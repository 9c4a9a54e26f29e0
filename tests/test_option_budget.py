"""The settable values of the fixed training regimen, the architecture and the untrained stages.

Each owner's set is every field of its config object or every parameter of
its function; the fixed values live in module constants.  A change that adds
or removes an option changes the set here as well.
"""

import dataclasses
import inspect

import pytest

from eitnet import (
    ablation,
    detection,
    encoder,
    i3d,
    metrics,
    pipeline,
    stream,
    synthetic,
    tensorops,
    training,
)

BUDGET = {
    training.Hyperparams: {"lr", "epochs", "seed"},
    training.Adam: {"params"},
    pipeline.PipelineModel.fit_feature_norm: {"self", "samples"},
    pipeline.PipelineModel.extract_batch: {"self", "clips", "seeds", "boxes"},
    pipeline.PipelineModel.extract: {"self", "clip"},
    pipeline.PipelineModel.forward: {"self", "clip"},
    pipeline.PipelineModel.stage_features: {"self", "cropped", "seeds"},
    pipeline.PipelineModel.crop_clip: {"self", "clips", "boxes"},
    synthetic.augment: {"clip", "seed"},
    synthetic.DatasetConfig: {"repetitions"},
    pipeline.PipelineConfig: {"detection", "spatiotemporal", "temporal"},
    detection.Detector: {"seed"},
    i3d.I3DStack: {"seed"},
    i3d.I3DStack.forward: {"self", "clips", "seeds"},
    i3d.i3d_forward: {"clips", "blocks", "seeds"},
    i3d.i3d_block: {"x", "params", "seeds"},
    i3d.I3DBlockParams: {"conv_weight", "conv_bias", "pool_spec", "bn_gamma", "bn_beta"},
    encoder.EncoderParams: {
        "w_q", "w_k", "w_v", "b_q", "b_k", "b_v", "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2",
        "norm1_gamma", "norm1_beta", "norm2_gamma", "norm2_beta",
    },
    metrics.SplitPlan: {"train_ids", "test_ids", "axis"},
    stream.SyncWindow: {"window_index", "frames", "completeness", "close_latency_us"},
    tensorops.ConvSpec: {"kernel", "stride", "padding"},
    stream.calibrate_clocks: {"samples"},
    stream.emit_feedback: {"window", "probs", "threshold"},
    stream.run_simulation: {
        "specs", "duration_us", "seed", "pipeline_hook", "frame_hw", "window_period_us",
        "feedback_threshold",
    },
    stream.check_simulation: {"specs", "duration_us", "window_period_us", "feedback_threshold"},
    ablation.run_ablation: {"samples", "plan", "base_config", "hp"},
}


def settable(owner) -> set[str]:
    if dataclasses.is_dataclass(owner):
        return {f.name for f in dataclasses.fields(owner) if f.init}
    return set(inspect.signature(owner).parameters)


@pytest.mark.parametrize("owner", list(BUDGET), ids=lambda owner: owner.__qualname__)
def test_settable_values(owner):
    assert settable(owner) == BUDGET[owner]


def test_patience_is_readable_but_not_settable():
    assert training.Hyperparams().patience == training.PATIENCE == 5
    with pytest.raises(TypeError):
        training.Hyperparams(patience=3)


def test_architecture_is_readable_but_not_settable():
    assert pipeline.PipelineConfig().i3d_widths == i3d.WIDTHS == (8, 16, 32)
    with pytest.raises(TypeError):
        pipeline.PipelineConfig(d_model=16)
