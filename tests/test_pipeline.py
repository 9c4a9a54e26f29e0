import numpy as np
import pytest

from eitnet.pipeline import (
    PipelineConfig,
    PipelineModel,
    StageToggles,
    count_attention_projections,
    count_conv3d,
    count_linear,
    count_params_flops,
    evaluate_pipeline,
    with_toggles,
)
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset


@pytest.fixture(scope="module")
def samples():
    return generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=21)[:12]


def live_parameter_arrays(model: PipelineModel):
    d = model.detector._weights
    arrays = [d["conv1"], d["conv2"], d["conv3"], np.zeros(3), d["reg_w"], d["reg_b"],
              d["score_w"], d["score_b"]]
    for b in model.i3d.blocks:
        arrays += [b.conv_weight, b.conv_bias, b.bn_gamma, b.bn_beta]
    arrays += [model.patch_weight, model.patch_bias, model.pos_enc]
    if model.config.has_summary:
        arrays += [model.summary_weight, model.summary_bias]
    for blk in model.blocks:
        arrays += [blk.w_q, blk.w_k, blk.w_v, blk.b_q, blk.b_k, blk.b_v,
                   blk.w_ffn1, blk.b_ffn1, blk.w_ffn2, blk.b_ffn2,
                   blk.norm1_gamma, blk.norm1_beta, blk.norm2_gamma, blk.norm2_beta]
    arrays += [model.cls_weight, model.cls_bias, model.pose_weight, model.pose_bias]
    return arrays


class TestToggles:
    def test_all_off_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            StageToggles(detection=False, spatiotemporal=False, temporal=False)

    def test_tags(self):
        assert StageToggles().tag() == "full"
        assert StageToggles(detection=False).tag() == "no-detection"
        assert StageToggles(spatiotemporal=False).tag() == "no-i3d"
        assert StageToggles(temporal=False).tag() == "no-timesformer"


class TestForward:
    def test_output_contract(self, samples):
        model = PipelineModel(PipelineConfig(), seed=3)
        out = model.forward(samples[0].clip)
        assert out.probs.shape == (4,)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert len(out.pose) == 8 and out.pose[0].count == 5
        assert out.cls_feat.shape == (32,)
        assert out.pose_feat.shape == (32,)

    def test_detection_off_changes_only_box_source(self, samples):
        clip = samples[0].clip
        on = PipelineModel(PipelineConfig(), seed=3)
        off = PipelineModel(
            PipelineConfig(toggles=StageToggles(detection=False)), seed=3
        )
        assert on.crop_clip(clip).shape == off.crop_clip(clip).shape == (1, 8, 12, 12)

    def test_i3d_off_uses_mean_frame_features(self, samples):
        config = PipelineConfig(toggles=StageToggles(spatiotemporal=False))
        model = PipelineModel(config, seed=3)
        out = model.forward(samples[0].clip)
        assert out.pose_feat.shape == (144,)
        assert out.probs.shape == (4,)

    def test_temporal_off_skips_encoder(self, samples):
        config = PipelineConfig(toggles=StageToggles(temporal=False))
        model = PipelineModel(config, seed=3)
        clip = samples[0].clip
        cropped = model.crop_clip(clip)
        feats = model.stage_features(cropped)
        seq = model.tokens(cropped, feats)
        z, _ = model.extract(clip)
        np.testing.assert_allclose(z, seq.tokens.mean(axis=0), atol=1e-12)

    def test_forward_rejects_nan_clip(self, samples):
        clip = samples[0].clip.copy()
        clip[0, 3, 5, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PipelineModel(PipelineConfig(), seed=3).forward(clip)

    @pytest.mark.parametrize("stat", ["cls_mean", "pose_scale"])
    def test_extract_rejects_nonfinite_features(self, samples, stat):
        model = PipelineModel(PipelineConfig(), seed=3)
        model.norm_stats[stat] = np.full_like(model.norm_stats[stat], np.inf)
        with pytest.raises(ValueError, match="not finite"):
            model.extract(samples[0].clip)

    @pytest.mark.parametrize("detection", [True, False])
    def test_given_frame_boxes_equal_computed_ones(self, samples, detection):
        model = PipelineModel(PipelineConfig(toggles=StageToggles(detection=detection)), seed=3)
        clip = samples[0].clip
        boxes = model.frame_boxes(clip)
        assert len(boxes) == 8
        a, b = model.forward(clip, boxes=boxes), model.forward(clip)
        for name in ("probs", "cls_feat", "pose_feat"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        with pytest.raises(ValueError, match="7 boxes for a clip of 8 frames"):
            model.forward(clip, boxes=boxes[:7])

    def test_forward_deterministic(self, samples):
        a = PipelineModel(PipelineConfig(), seed=9).forward(samples[1].clip)
        b = PipelineModel(PipelineConfig(), seed=9).forward(samples[1].clip)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_evaluate_pipeline_schema(self, samples):
        model = PipelineModel(PipelineConfig(), seed=3)
        metrics = evaluate_pipeline(model, samples)
        assert set(metrics) == {"accuracy", "mpjpe", "pa_mpjpe"}
        assert 0.0 <= metrics["accuracy"] <= 100.0
        assert metrics["pa_mpjpe"] <= metrics["mpjpe"] + 1e-9


class TestComplexity:
    def test_linear_toy_case(self):
        assert count_linear(4, 2) == (10, 8)

    def test_conv_toy_case(self):
        assert count_conv3d(1, 1, (3, 3, 3), (4, 4, 4)) == (28, 216)

    def test_attention_projection_scaling(self):
        assert count_attention_projections(64) == 4 * count_attention_projections(32) - 3 * 2 * 32
        # doubling d_model quadruples the weight part exactly
        weights_32 = count_attention_projections(32) - 3 * 32
        weights_64 = count_attention_projections(64) - 3 * 64
        assert weights_64 == 4 * weights_32

    @pytest.mark.parametrize(
        "toggles",
        [
            StageToggles(),
            StageToggles(detection=False),
            StageToggles(spatiotemporal=False),
            StageToggles(temporal=False),
        ],
    )
    def test_parameter_count_matches_live_arrays(self, toggles):
        config = with_toggles(PipelineConfig(), toggles)
        model = PipelineModel(config, seed=5)
        live = sum(a.size for a in live_parameter_arrays(model))
        counted = count_params_flops(config)[0]
        # arrays for disabled stages still exist on the model but are not
        # part of the configured pipeline; subtract them explicitly
        if not toggles.detection:
            d = model.detector._weights
            live -= sum(
                a.size
                for a in (d["conv1"], d["conv2"], d["conv3"], np.zeros(3), d["reg_w"],
                          d["reg_b"], d["score_w"], d["score_b"])
            )
        if not toggles.spatiotemporal:
            live -= sum(
                b.conv_weight.size + b.conv_bias.size + b.bn_gamma.size + b.bn_beta.size
                for b in model.i3d.blocks
            )
        if not toggles.temporal:
            for blk in model.blocks:
                live -= sum(
                    a.size
                    for a in (blk.w_q, blk.w_k, blk.w_v, blk.b_q, blk.b_k, blk.b_v,
                              blk.w_ffn1, blk.b_ffn1, blk.w_ffn2, blk.b_ffn2,
                              blk.norm1_gamma, blk.norm1_beta, blk.norm2_gamma,
                              blk.norm2_beta)
                )
        assert live == counted

    def test_macs_positive_and_monotone_in_stages(self):
        full = count_params_flops(PipelineConfig())[1]
        reduced = count_params_flops(
            PipelineConfig(toggles=StageToggles(temporal=False))
        )[1]
        assert 0 < reduced < full
