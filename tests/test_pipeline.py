import math

import numpy as np
import pytest

from eitnet import detection, encoder, i3d, pipeline
from eitnet.ablation import TABLE_ROWS
from eitnet.encoder import self_attention
from eitnet.metrics import SkeletonPose, accuracy, mpjpe, pa_mpjpe
from eitnet.pipeline import (
    PipelineConfig,
    PipelineModel,
    count_attention_projections,
    count_conv3d,
    count_linear,
    count_params_flops,
    evaluate_pipeline,
)
from eitnet.rng import Rng, derive_seed
from eitnet.synthetic import DatasetConfig, SampleSet, SyntheticAction, generate_synthetic_dataset
from eitnet.tensorops import as_tensor, conv3d, count_macs, linear
from eitnet.training import Hyperparams, train_toy

from test_metrics import per_frame_pa_mpjpe
from test_tensorops import np_pad_conv3d, np_pad_pool3d_max

ALL_TOGGLES = [
    PipelineConfig(),
    PipelineConfig(temporal=False),
    PipelineConfig(spatiotemporal=False),
    PipelineConfig(spatiotemporal=False, temporal=False),
    PipelineConfig(detection=False),
    PipelineConfig(detection=False, temporal=False),
    PipelineConfig(detection=False, spatiotemporal=False),
]

# (params, MACs) from the hand-written accounting that the counted forward replaced.
PINNED_COUNTS = {
    **{
        t.tag(): (t, counts)
        for t, counts in zip(
            ALL_TOGGLES,
            [(42263, 2852736), (27287, 1213312), (36983, 1861632), (22007, 230400),
             (40636, 2676608), (25660, 1037184), (35356, 1685504)],
        )
    },
}


@pytest.fixture(scope="module")
def samples():
    return generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=21)[:12]


class TestToggles:
    def test_all_off_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            PipelineConfig(detection=False, spatiotemporal=False, temporal=False)

    def test_tags(self):
        assert PipelineConfig().tag() == "full"
        assert PipelineConfig(detection=False).tag() == "no-detection"
        assert PipelineConfig(spatiotemporal=False).tag() == "no-i3d"
        assert PipelineConfig(temporal=False).tag() == "no-timesformer"


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
            PipelineConfig(detection=False), seed=3
        )
        stack = clip[None]
        crops = [m.crop_clip(stack, m.frame_boxes(stack)) for m in (on, off)]
        assert crops[0].shape == crops[1].shape == (1, 1, 8, 12, 12)

    def test_i3d_off_uses_mean_frame_features(self, samples):
        config = PipelineConfig(spatiotemporal=False)
        model = PipelineModel(config, seed=3)
        out = model.forward(samples[0].clip)
        assert out.pose_feat.shape == (144,)
        assert out.probs.shape == (4,)

    def test_temporal_off_skips_encoder(self, samples):
        config = PipelineConfig(temporal=False)
        model = PipelineModel(config, seed=3)
        clip = samples[0].clip
        cropped = model.crop_clip(clip[None], model.frame_boxes(clip[None]))
        feats = model.stage_features(cropped)
        seq = model.tokens(cropped, feats)
        z, _ = model.extract(clip)
        np.testing.assert_allclose(z, seq.tokens[0].mean(axis=0), atol=1e-12)

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
        model = PipelineModel(PipelineConfig(detection=detection), seed=3)
        clips = np.stack([s.clip for s in samples[:5]])
        boxes = model.frame_boxes(clips)
        assert boxes.shape == (5, 8, 5) and boxes.dtype == np.float64
        given, computed = model.extract_batch(clips, boxes=boxes), model.extract_batch(clips)
        for a, b in zip(given, computed):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match=r"boxes of shape \(5, 7, 5\), need \[5, 8, 5\]"):
            model.extract_batch(clips, boxes=boxes[:, :7])

    @pytest.mark.parametrize("detection", [True, False])
    def test_crop_region_runs_once_per_clip(self, samples, monkeypatch, detection):
        calls = []
        crop_region = pipeline.crop_region

        def counted(clip, boxes, out_hw):
            calls.append((clip.shape, boxes.shape))
            return crop_region(clip, boxes, out_hw)

        monkeypatch.setattr(pipeline, "crop_region", counted)
        model = PipelineModel(PipelineConfig(detection=detection), seed=3)
        for sample in samples[:3]:
            model.forward(sample.clip)
        clip = samples[0].clip[None]
        model.extract_batch(clip, boxes=model.frame_boxes(clip))
        assert calls == [((1, 8, 16, 16), (8, 5))] * 4  # one whole-clip call per clip

    def test_forward_and_extract_bitwise_equal_to_einsum_kernels(self, monkeypatch):
        clips = [s.clip for s in generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)]
        model = PipelineModel(PipelineConfig(), seed=7)

        def run():
            rows = []
            for i, clip in enumerate(clips[:50]):
                out = model.forward(clip)
                rows.append((out.probs, out.cls_feat, out.pose_feat))
                rows.append(model.extract_batch([clip], seeds=[i]))
            rows.extend(zip(*model.extract_batch(clips[:50], seeds=range(50))))
            return [b"".join(a.tobytes() for a in row) for row in rows]

        got = run()

        def einsum_conv3d(x, weights, spec, bias=None):
            return np_pad_conv3d(x, weights, spec, bias)

        def per_sample(kernel):
            def run(x, *args, **kwargs):  # I3D's [B, C, T, H, W] stack, one sample at a time
                return np.stack([kernel(sample, *args, **kwargs) for sample in x])

            return run

        monkeypatch.setattr(detection, "conv3d", einsum_conv3d)  # clips joined on T: [C, B*T, H, W]
        monkeypatch.setattr(i3d, "conv3d", per_sample(einsum_conv3d))
        monkeypatch.setattr(i3d, "pool3d_max", per_sample(np_pad_pool3d_max))
        assert got == run()

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


def per_sample_evaluation(model, samples) -> dict[str, float]:
    """The reference: each sample's T predicted poses against its ``poses``, frame by frame."""
    cls_feats, pose_feats = model.extract_batch(samples.clips)
    predicted = model.head_probs(cls_feats).argmax(axis=1).tolist()
    poses = [SkeletonPose.from_stack(clip) for clip in model.head_pose(pose_feats)]

    def per_frame_mpjpe(pred, truth):
        total = 0.0
        for p, t in zip(pred, truth):
            total += np.linalg.norm(p.joints - t.joints, axis=1).sum()
        return total / (len(pred) * pred[0].count)

    return {
        "accuracy": accuracy(predicted, samples.labels.tolist()),
        "mpjpe": float(np.mean([per_frame_mpjpe(p, s.poses) for p, s in zip(poses, samples)])),
        "pa_mpjpe": float(
            np.mean([per_frame_pa_mpjpe(p, s.poses) for p, s in zip(poses, samples)])
        ),
    }


class TestEvaluatePipeline:
    """A set is scored as one [N, T, J, 3] array per metric call."""

    @pytest.fixture(scope="class")
    def seed7(self):
        return generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)[::8]

    @pytest.mark.parametrize("config", TABLE_ROWS, ids=PipelineConfig.tag)
    def test_equals_the_per_sample_formula_bitwise(self, seed7, config):
        model = PipelineModel(config, seed=7)
        model.fit_feature_norm(seed7)
        got = evaluate_pipeline(model, seed7)
        want = per_sample_evaluation(model, seed7)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_calls_each_metric_once_and_builds_no_records(self, seed7, monkeypatch):
        model = PipelineModel(PipelineConfig(), seed=7)
        calls = []
        for name in ("mpjpe", "pa_mpjpe"):

            def counted(pred, truth, _name=name, _metric=getattr(pipeline, name)):
                calls.append((_name, np.shape(pred), np.shape(truth)))
                return _metric(pred, truth)

            monkeypatch.setattr(pipeline, name, counted)

        def refuse(*args, **kwargs):
            raise AssertionError("built a record")

        monkeypatch.setattr(SkeletonPose, "__post_init__", refuse)
        monkeypatch.setattr(SkeletonPose, "from_stack", refuse)
        monkeypatch.setattr(SyntheticAction, "__init__", refuse)
        evaluate_pipeline(model, seed7)
        shape = (len(seed7), 8, 5, 3)
        assert calls == [("mpjpe", shape, shape), ("pa_mpjpe", shape, shape)]


class TestStacking:
    """Stacks of clips: each clip gets the bytes of a one-clip call, one crop per stack."""

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("config", TABLE_ROWS, ids=PipelineConfig.tag)
    def test_stacked_rows_equal_one_clip_extract_bitwise(self, samples, config, dropout):
        model = PipelineModel(config, seed=7)
        model.fit_feature_norm(samples[:6])
        clips = [s.clip for s in samples[:9]]
        if dropout:
            seeds = [derive_seed(3, "drop", i) for i in range(9)]
            ones = [[f[0] for f in model.extract_batch([c], [s])] for c, s in zip(clips, seeds)]
        else:
            seeds = None
            ones = [model.extract(c) for c in clips]
        for b in (1, 2, 3, 4, 5, 9):  # 5 and 9 cross the stack cap
            part = None if seeds is None else seeds[:b]
            cls_feats, pose_feats = model.extract_batch(clips[:b], part)
            assert cls_feats.shape[0] == pose_feats.shape[0] == b
            for (z, f), cls_feat, pose_feat in zip(ones, cls_feats, pose_feats):
                assert cls_feat.tobytes() == z.tobytes()
                assert pose_feat.tobytes() == f.tobytes()

    @pytest.mark.parametrize("config", TABLE_ROWS, ids=PipelineConfig.tag)
    def test_stacked_heads_equal_forward_bitwise(self, samples, config):
        model = PipelineModel(config, seed=7)
        model.fit_feature_norm(samples)
        cls_feats, pose_feats = model.extract_batch([s.clip for s in samples])
        probs, poses = model.head_probs(cls_feats), model.head_pose(pose_feats)
        assert poses.shape == (len(samples), 8, 5, 3) and poses.dtype == np.float64
        for sample, row, pose in zip(samples, probs, poses):
            out = model.forward(sample.clip)
            assert row.tobytes() == out.probs.tobytes()
            assert [p.tobytes() for p in pose] == [p.joints.tobytes() for p in out.pose]

    def test_a_non_finite_pose_head_is_rejected_by_forward_and_the_metrics(self, samples):
        model = PipelineModel(PipelineConfig(), seed=7)
        subset = SampleSet.of(samples[:3])
        _, pose_feats = model.extract_batch(subset.clips)
        assert np.isfinite(model.head_pose(pose_feats)).all()
        model.pose_bias = model.pose_bias.copy()
        model.pose_bias[-1] = np.inf  # the last coordinate of the last frame
        poses = model.head_pose(pose_feats)
        assert np.isinf(poses[:, -1, -1, -1]).all() and np.isfinite(poses[:, :-1]).all()
        checks = [
            lambda: model.forward(subset.clips[0]),
            lambda: evaluate_pipeline(model, subset),
            lambda: mpjpe(subset.joints, poses),  # the truth side is checked too
            lambda: pa_mpjpe(subset.joints, poses),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="^joint coordinates must be finite$"):
                check()

    def test_frame_boxes_runs_the_detector_per_stack(self, samples, monkeypatch):
        model = PipelineModel(PipelineConfig(), seed=7)
        clips = np.stack([s.clip for s in samples[:9]])
        want = np.stack([model.detector.best_box(clip[None])[0] for clip in clips])
        calls = []
        best_box = detection.Detector.best_box

        def counted(self, stack):
            calls.append(len(stack))
            return best_box(self, stack)

        monkeypatch.setattr(detection.Detector, "best_box", counted)
        assert model.frame_boxes(clips).tobytes() == want.tobytes()
        assert calls == [4, 4, 1]

    def test_extract_batch_checks_seeds_and_rank(self, samples):
        model = PipelineModel(PipelineConfig(), seed=7)
        clips = [s.clip for s in samples[:3]]
        with pytest.raises(ValueError, match="2 dropout seeds for 3 clips"):
            model.extract_batch(clips, [1, 2])
        with pytest.raises(ValueError, match="must be \\[N,C,T,H,W\\], got rank 4"):
            model.extract_batch(clips[0])
        wide = Rng(5).uniforms(2 * 8 * 32 * 32).reshape(2, 1, 8, 32, 32)  # 32x32 frames
        with pytest.raises(
            ValueError, match=r"shape \(2, 1, 8, 32, 32\); need \[N, 1, 8, 16, 16\]"
        ):
            model.extract_batch(wide)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda stack: stack.astype(np.float32),
            list,  # a Python list of [C,T,H,W] clips
            np.asfortranarray,
            lambda stack: np.repeat(stack, 2, axis=-1)[..., ::2],
        ],
        ids=["float32", "list-of-clips", "fortran-order", "strided"],
    )
    def test_extract_batch_converts_at_its_edge(self, samples, convert, monkeypatch):
        """The kernels do not convert: extract_batch's as_tensor is the one place that does."""
        model = PipelineModel(PipelineConfig(), seed=7)
        clips = convert(np.stack([s.clip for s in samples[:5]]))
        assert isinstance(clips, list) or not (
            clips.dtype == np.float64 and clips.flags.c_contiguous
        )
        ref = as_tensor(clips)
        assert ref.dtype == np.float64 and ref.flags.c_contiguous
        want = model.extract_batch(ref)
        staged = []
        frame_boxes = model.frame_boxes
        monkeypatch.setattr(model, "frame_boxes", lambda x: staged.append(x) or frame_boxes(x))
        got = model.extract_batch(clips)
        assert [(x.dtype, x.flags.c_contiguous) for x in staged] == [(np.float64, True)]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "shape,message",
        [
            ((2, 8, 16), r"got rank 3 of shape \(2, 8, 16\); need \[N, 1, 8, 16, 16\]"),
            ((2, 1, 1, 8, 16, 16), "tensor rank must be 1..5, got 6"),
            ((2, 2, 8, 16, 16), r"shape \(2, 2, 8, 16, 16\); need \[N, 1, 8, 16, 16\]"),
        ],
        ids=["rank-3", "rank-6", "two-channels"],
    )
    def test_extract_batch_rejects_what_the_kernels_no_longer_check(self, shape, message):
        """conv3d checks neither rank nor channels; extract_batch's as_tensor and shape check do."""
        model = PipelineModel(PipelineConfig(), seed=7)
        with pytest.raises(ValueError, match=message):
            model.extract_batch(np.zeros(shape))

    @pytest.mark.parametrize("rows", [3, 5])
    def test_extract_batch_rejects_a_box_row_count_other_than_the_clips(self, samples, rows):
        model = PipelineModel(PipelineConfig(), seed=7)
        clips = np.stack([s.clip for s in samples[:5]])
        boxes = model.frame_boxes(clips)[:rows]  # each clip's own rows, plus or minus one
        with pytest.raises(ValueError, match=rf"boxes of shape \({rows}, 8, 5\), need \[4, 8, 5\]"):
            model.extract_batch(clips[:4], boxes=boxes)

    @pytest.fixture
    def crop_calls(self, monkeypatch):
        calls = []
        crop_region = pipeline.crop_region

        def counted(frames, boxes, out_hw):
            calls.append((frames.shape, boxes.shape))
            return crop_region(frames, boxes, out_hw)

        monkeypatch.setattr(pipeline, "crop_region", counted)
        return calls

    def test_fit_and_evaluate_crop_once_per_stack(self, samples, crop_calls):
        model = PipelineModel(PipelineConfig(), seed=3)
        for n in (1, 4, 5, 12):
            crop_calls.clear()
            model.fit_feature_norm(samples[:n])
            assert len(crop_calls) == math.ceil(n / 4)
        for n in (1, 4, 5, 12, 9):
            crop_calls.clear()
            evaluate_pipeline(model, samples[:n])
            assert len(crop_calls) == math.ceil(n / 4)
        # 9 clips: two stacks of 4 joined on the frame axis, then one clip
        assert crop_calls == [((1, 32, 16, 16), (32, 5))] * 2 + [((1, 8, 16, 16), (8, 5))]
        assert pipeline.STACK_CLIPS == 4

    def test_train_toy_epoch_crops_once_per_stack(self, samples, crop_calls):
        model = PipelineModel(PipelineConfig(), seed=3)
        train_toy(model, samples, Hyperparams(epochs=1, seed=4))
        # 12 samples: 2 held out for validation, 10 trained in batches of 8 and 2.
        # Feature norm fit, validation features, then the two batches of the epoch:
        assert len(crop_calls) == math.ceil(10 / 4) + math.ceil(2 / 4) + 2 + 1


class TestSharedFrozenStages:
    def test_outside_a_block_nothing_is_hashed(self, samples, monkeypatch):
        def refuse(stack):
            raise AssertionError("a stack was hashed outside shared_frozen_stages()")

        monkeypatch.setattr(pipeline, "_digest", refuse)
        clips = [s.clip for s in samples[:5]]
        for config in TABLE_ROWS:
            model = PipelineModel(config, seed=7)
            model.extract_batch(clips, seeds=range(5))
            model.frame_boxes(np.stack(clips))
        assert pipeline._SHARED.get() is None

    def test_models_with_other_weights_get_their_own_results(self, samples):
        clips = [s.clip for s in samples[:5]]
        seeds = [derive_seed(3, "drop", i) for i in range(5)]
        models = [
            PipelineModel(PipelineConfig(), seed=7),
            PipelineModel(PipelineConfig(), seed=8),
        ]
        calls = [(m, s) for m in models for s in (None, seeds, [1] * 5)]
        want = [m.extract_batch(clips, s) for m, s in calls]
        with pipeline.shared_frozen_stages():
            for _ in range(2):  # the second pass reads every result from the memo
                for (m, s), (cls_feat, pose_feat) in zip(calls, want):
                    got_cls, got_pose = m.extract_batch(clips, s)
                    assert got_cls.tobytes() == cls_feat.tobytes()
                    assert got_pose.tobytes() == pose_feat.tobytes()
            # two stacks each: boxes per model, I3D features per call
            assert len(pipeline._SHARED.get()) == 2 * 2 + 6 * 2
        assert pipeline._SHARED.get() is None

    def test_nested_block_starts_its_own_memo(self):
        with pipeline.shared_frozen_stages():
            outer = pipeline._SHARED.get()
            with pipeline.shared_frozen_stages():
                assert pipeline._SHARED.get() == {} and pipeline._SHARED.get() is not outer
            assert pipeline._SHARED.get() is outer


class TestKernelPreconditions:
    """The kernels trust their arguments; the model builds weights that keep their preconditions."""

    @pytest.mark.parametrize("c", ALL_TOGGLES, ids=[t.tag() for t in ALL_TOGGLES])
    def test_model_weights_chain_the_linear_widths(self, c):
        model = PipelineModel(c, seed=7)
        # patch_embed: the patch divides the crop, and its table takes one patch of one channel
        assert all(side % c.patch == 0 for side in c.crop_hw)
        assert c.grid_hw == (c.crop_hw[0] // c.patch, c.crop_hw[1] // c.patch)
        d = c.d_model
        shapes = {
            "patch_weight": (c.patch * c.patch, d),
            "patch_bias": (d,),
            "pos_enc": (c.patch_tokens, d),
            "summary_weight": (c.i3d_widths[-1], d),
            "summary_bias": (d,),
            "cls_weight": (d, c.num_classes),
            "cls_bias": (c.num_classes,),
            "pose_weight": (c.pose_feat_dim, c.pose_out_dim),
            "pose_bias": (c.pose_out_dim,),
        }
        for name, shape in shapes.items():
            array = getattr(model, name)
            assert (name, array.shape, array.dtype) == (name, shape, np.float64)
        block_shapes = {
            "w_q": (d, d), "w_k": (d, d), "w_v": (d, d),
            "b_q": (d,), "b_k": (d,), "b_v": (d,),
            "w_ffn1": (d, c.d_ff), "b_ffn1": (c.d_ff,),
            "w_ffn2": (c.d_ff, d), "b_ffn2": (d,),
            "norm1_gamma": (d,), "norm1_beta": (d,),
            "norm2_gamma": (d,), "norm2_beta": (d,),
        }
        assert len(model.blocks) == c.encoder_blocks
        for params in model.blocks:
            for name, shape in block_shapes.items():
                array = getattr(params, name)
                assert (name, array.shape, array.dtype) == (name, shape, np.float64)


class TestComplexity:
    def test_linear_toy_case(self):
        assert count_linear(4, 2) == (10, 8)

    def test_conv_toy_case(self):
        assert count_conv3d(1, 1, (3, 3, 3), (4, 4, 4)) == (28, 216)

    @pytest.mark.parametrize("kernel", [(2, 2), (2, 2.5, 2)])
    def test_conv_malformed_kernel_raises(self, kernel):
        with pytest.raises(ValueError, match="kernel must be 3 integers"):
            count_conv3d(1, 1, kernel, (4, 4, 4))

    def test_attention_projection_scaling(self):
        assert count_attention_projections(64) == 4 * count_attention_projections(32) - 3 * 2 * 32
        # doubling d_model quadruples the weight part exactly
        weights_32 = count_attention_projections(32) - 3 * 32
        weights_64 = count_attention_projections(64) - 3 * 64
        assert weights_64 == 4 * weights_32

    @pytest.mark.parametrize(
        "toggles",
        [
            PipelineConfig(),
            PipelineConfig(detection=False),
            PipelineConfig(spatiotemporal=False),
            PipelineConfig(temporal=False),
        ],
    )
    def test_parameter_count_matches_live_arrays(self, toggles):
        model = PipelineModel(toggles, seed=5)
        listed = {id(a) for a in model.parameters()}
        # a disabled stage keeps its arrays on the model but lists none of them
        stage_arrays = {
            "detection": [model.detector.parameters()["conv1"]],
            "spatiotemporal": [b.conv_weight for b in model.i3d.blocks],
            "temporal": [blk.w_q for blk in model.blocks],
        }
        for stage, arrays in stage_arrays.items():
            assert all((id(a) in listed) == getattr(toggles, stage) for a in arrays), stage
        live = sum(a.size for a in model.parameters())
        assert live == count_params_flops(toggles)[0]

    @pytest.mark.parametrize("config, counts", PINNED_COUNTS.values(), ids=PINNED_COUNTS)
    def test_counts_pinned(self, config, counts):
        assert count_params_flops(config) == counts

    @pytest.mark.parametrize("config", ALL_TOGGLES, ids=PipelineConfig.tag)
    def test_traced_macs_equal_count(self, samples, monkeypatch, config):
        model = PipelineModel(config, seed=0)
        macs = []

        def traced_linear(x, weight, bias=None):
            macs.append(math.prod(np.shape(x)[:-1]) * np.size(weight))
            return linear(x, weight, bias)

        def traced_conv3d(x, weights, spec, bias=None):
            out = conv3d(x, weights, spec, bias)
            macs.append(np.size(weights) * out[..., 0, :, :, :].size)  # weights x output positions
            return out

        def traced_attention(tokens, params):
            *groups, size, d = np.shape(tokens)
            macs.append(2 * math.prod(groups) * size * size * d)  # QKV go through linear
            return self_attention(tokens, params)

        for module, name, fn in [
            (detection, "conv3d", traced_conv3d),
            (detection, "linear", traced_linear),
            (i3d, "conv3d", traced_conv3d),
            (encoder, "linear", traced_linear),
            (encoder, "self_attention", traced_attention),
            (pipeline, "linear", traced_linear),
        ]:
            monkeypatch.setattr(module, name, fn)
        model.forward(samples[0].clip)
        assert sum(macs) == count_params_flops(config)[1]

    @pytest.mark.parametrize("config", ALL_TOGGLES, ids=PipelineConfig.tag)
    def test_counted_macs_scale_with_the_stack(self, samples, config):
        model = PipelineModel(config, seed=0)
        clips = np.stack([s.clip for s in samples[:4]])
        counts = []
        for stack in (clips[:1], clips):
            with count_macs() as macs:
                model.extract_batch(stack)
            counts.append(macs.total)
        assert counts[1] == 4 * counts[0]
        heads = model.cls_weight.size + model.pose_weight.size
        assert counts[0] + heads == count_params_flops(config)[1]

    def test_macs_positive_and_monotone_in_stages(self):
        full = count_params_flops(PipelineConfig())[1]
        reduced = count_params_flops(
            PipelineConfig(temporal=False)
        )[1]
        assert 0 < reduced < full
