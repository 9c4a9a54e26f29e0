import math

import numpy as np
import pytest

from eitnet import detection
from eitnet.detection import (
    ANCHORS,
    FUSED_HW,
    FUSION_EPS,
    IOU_THRESHOLD,
    BoundingBox,
    DetectionLossParts,
    Detector,
    crop_region,
    detection_loss,
    nms,
)
from eitnet.pipeline import PipelineConfig, PipelineModel
from eitnet.rng import Rng
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset, pose_bounding_box
from eitnet.tensorops import linear, sigmoid

import oracles


def rand_levels(rng, c=2, t=3):
    """Coarse-to-fine [C,T,h,w] levels of the detector's pyramid extents."""
    return [rng.normals(c * t * n * n).reshape(c, t, n, n) for n in (4, 8, 16)]


def oracle_resample(level: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """[..., H, W] to [..., out_h, out_w], one oracle call per plane."""
    planes = level.reshape(-1, *level.shape[-2:])
    out = [oracles.nearest_resample_oracle(p, *out_hw) for p in planes]
    return np.array(out).reshape(*level.shape[:-2], *out_hw)


def reference_fuse(det: Detector, levels: list[np.ndarray]) -> np.ndarray:
    """The general fusion that the detector's strided one replaced.

    Each level is resampled to ``FUSED_HW`` by the center rule, then the
    levels are summed from zeros, coarse to fine, with weights
    raw_i / (sum_j raw_j + eps).
    """
    raw = det.parameters()["fusion"]
    alpha = raw / (raw.sum() + FUSION_EPS)
    out = np.zeros(levels[0].shape)
    for a, level in zip(alpha, levels):
        out += a * oracle_resample(level, FUSED_HW)
    return out


def corners(box: BoundingBox) -> tuple[float, float, float, float]:
    return (
        box.cx - box.w / 2.0,
        box.cy - box.h / 2.0,
        box.cx + box.w / 2.0,
        box.cy + box.h / 2.0,
    )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Scalar IoU of two boxes, the reference for the array NMS."""
    ax0, ay0, ax1, ay1 = corners(a)
    bx0, by0, bx1, by1 = corners(b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def list_nms(boxes: list[BoundingBox], iou_threshold: float) -> list[BoundingBox]:
    """The per-frame NMS over box objects that the clip-wide array NMS replaced."""
    ordered = sorted(boxes, key=lambda b: (-b.score, b.cx))
    kept: list[BoundingBox] = []
    for box in ordered:
        if all(iou(box, k) <= iou_threshold for k in kept):
            kept.append(box)
    return kept


def reference_detect(det: Detector, clip: np.ndarray) -> list[list[BoundingBox]]:
    """Per-anchor box objects and per-frame list NMS over the reference fusion and heads."""
    fused = reference_fuse(det, det.pyramid(clip))
    rows = fused.transpose(1, 0, 2, 3).reshape(fused.shape[1], 1, -1)
    w = det.parameters()
    scores = sigmoid(linear(rows, w["score_w"], w["score_b"])[:, 0])
    logits = linear(rows, w["reg_w"], w["reg_b"])[:, 0]
    gates = np.clip(sigmoid(logits.reshape(-1, len(ANCHORS), 4)), 1e-12, 1.0)
    anchors = [BoundingBox(*a) for a in ANCHORS.tolist()]
    return [
        list_nms(
            [
                BoundingBox(g[0] * a.cx, g[1] * a.cy, g[2] * a.w, g[3] * a.h, s)
                for g, a, s in zip(frame_gates, anchors, frame_scores)
            ],
            IOU_THRESHOLD,
        )
        for frame_gates, frame_scores in zip(gates, scores)
    ]


def box_rows(boxes: list[BoundingBox]) -> np.ndarray:
    return np.array([[b.cx, b.cy, b.w, b.h, b.score] for b in boxes]).reshape(-1, 5)


def frame_crop_region(frame: np.ndarray, box: BoundingBox, out_hw: tuple[int, int]) -> np.ndarray:
    """The per-frame crop that the whole-clip gather replaced: one [C,H,W] frame, one box."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3:
        raise ValueError(f"frame must be [C,H,W], got rank {frame.ndim}")
    _, h, w = frame.shape
    x0, y0, x1, y1 = corners(box)
    c0 = max(int(math.floor(x0)), 0)
    r0 = max(int(math.floor(y0)), 0)
    c1 = min(int(math.ceil(x1)), w)
    r1 = min(int(math.ceil(y1)), h)
    if c1 <= c0 or r1 <= r0:
        raise ValueError(f"box {box} does not intersect a {h}x{w} frame")
    return oracle_resample(frame[:, r0:r1, c0:c1], out_hw)


def frame_by_frame_crops(clip, boxes, out_hw) -> list:
    """Each frame's reference crop, or None where the reference raises."""
    crops = []
    for t, row in enumerate(np.asarray(boxes).tolist()):
        try:
            crops.append(frame_crop_region(clip[:, t], BoundingBox(*row[:4]), out_hw))
        except (ValueError, OverflowError):
            crops.append(None)
    return crops


class TestFuse:
    def fuse(self, levels, raw):
        det = Detector(seed=0)
        det._weights["fusion"] = np.array(raw)
        return det.fuse(levels)

    def test_identical_levels_equal_weights(self):
        coarse = rand_levels(Rng(20))[0]
        levels = [coarse, coarse.repeat(2, -1).repeat(2, -2), coarse.repeat(4, -1).repeat(4, -2)]
        fused = self.fuse(levels, [3.0, 3.0, 3.0])
        np.testing.assert_allclose(fused, coarse * 9.0 / (9.0 + FUSION_EPS), rtol=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_hot_weights_select_level(self, k):
        levels = rand_levels(Rng(21))
        fused = self.fuse(levels, np.eye(3)[k])
        want = oracle_resample(levels[k], FUSED_HW) / (1.0 + FUSION_EPS)
        np.testing.assert_allclose(fused, want, rtol=1e-15)

    def test_three_level_weighted_sum_oracle(self):
        levels = rand_levels(Rng(22))
        raw = (0.7, 1.3, 0.2)
        fused = self.fuse(levels, raw)
        total = sum(raw) + FUSION_EPS
        ref = sum((w / total) * oracle_resample(lv, FUSED_HW) for w, lv in zip(raw, levels))
        np.testing.assert_allclose(fused, ref, atol=1e-12)

    def test_convexity_bound(self):
        levels = rand_levels(Rng(23))
        raw = np.array([1.0, 2.0, 3.0])
        fused = self.fuse(levels, raw) * (raw.sum() + FUSION_EPS) / raw.sum()
        common = [oracle_resample(lv, FUSED_HW) for lv in levels]
        lo, hi = np.minimum.reduce(common), np.maximum.reduce(common)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)


class TestBoxGating:
    """The sigmoid gate of ``Detector.detect`` under chosen head weights."""

    def detect(self, monkeypatch, reg_w, reg_b, seed=5):
        det = Detector(seed=0)
        det._weights["reg_w"] = reg_w
        det._weights["reg_b"] = reg_b
        det._weights["score_w"] = np.zeros((64, 4))
        det._weights["score_b"] = np.array([4.0, 3.0, 2.0, 1.0])  # rank the anchors in order
        monkeypatch.setattr(detection, "IOU_THRESHOLD", 1.0)  # NMS keeps every box
        clip = np.abs(Rng(seed).normals(3 * 16 * 16)).reshape(1, 3, 16, 16)
        kept = det.detect(clip)
        assert all(len(k) == len(ANCHORS) for k in kept)
        return det, clip, np.stack(kept)[..., :4]  # [T, A, 4] boxes in anchor order

    def test_zero_logits_halve_anchor(self, monkeypatch):
        _, _, boxes = self.detect(monkeypatch, np.zeros((64, 16)), np.zeros(16))
        assert boxes.tobytes() == np.broadcast_to(0.5 * ANCHORS, boxes.shape).tobytes()

    def test_saturated_logits_recover_anchor(self, monkeypatch):
        _, _, boxes = self.detect(monkeypatch, np.zeros((64, 16)), np.full(16, 50.0))
        assert np.abs(boxes - ANCHORS).max() <= 1e-9

    def test_random_logits_scalar_oracle(self, monkeypatch):
        rng = Rng(26)
        reg_w = rng.normals(64 * 16).reshape(64, 16)
        det, clip, boxes = self.detect(monkeypatch, reg_w, rng.normals(16))
        fused = det.fuse(det.pyramid(clip))
        w = det.parameters()
        for t, frame_boxes in enumerate(boxes):
            logits = fused[:, t].reshape(-1) @ w["reg_w"] + w["reg_b"]
            for i, (box, anchor) in enumerate(zip(frame_boxes, ANCHORS)):
                for j, (got, base) in enumerate(zip(box, anchor)):
                    gate = 1.0 / (1.0 + math.exp(-logits[4 * i + j]))
                    assert abs(got - gate * base) <= 1e-12

    @pytest.mark.parametrize("seed", [27, 28, 29])
    def test_predictions_bounded_by_anchor(self, monkeypatch, seed):
        rng = Rng(seed)
        reg_w = rng.normals(64 * 16).reshape(64, 16) * 3.0
        _, _, boxes = self.detect(monkeypatch, reg_w, rng.normals(16), seed=seed)
        extents = boxes[..., 2:]
        assert np.all(extents > 0.0) and np.all(extents <= ANCHORS[:, 2:])

    def test_anchors_are_one_read_only_constant(self):
        assert ANCHORS.shape == (4, 4) and not ANCHORS.flags.writeable


def reference_detection_loss(pred_scores, true_labels, pred_boxes, true_boxes, lam=1.0):
    """The loop over ``BoundingBox`` pairs with [N, K] scores and [N] labels that the one-class
    array loss replaced, kept as its reference."""
    pred_scores = np.atleast_2d(np.asarray(pred_scores, dtype=np.float64))
    n = pred_scores.shape[0]
    cls = 0.0
    for row, label in zip(pred_scores, true_labels):
        cls -= math.log(max(row[label], 1e-300))
    cls /= n
    reg = 0.0
    for pred, true in zip(pred_boxes, true_boxes):
        deltas = (pred.cx - true.cx, pred.cy - true.cy, pred.w - true.w, pred.h - true.h)
        for d in deltas:
            a = abs(d)
            reg += 0.5 * d * d if a < 1.0 else a - 0.5
    reg /= 4 * n
    return DetectionLossParts(cls=float(cls), reg=float(reg), lam=float(lam))


def seed7_loss_inputs(detection: bool):
    """run-pipeline's loss inputs on the seed-7 dataset: [N] scores, predicted and true boxes."""
    samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
    model = PipelineModel(PipelineConfig(detection=detection), seed=7)
    boxes = model.frame_boxes(samples.clips).reshape(-1, 5)
    true_boxes = pose_bounding_box(samples.joints, *samples.clips.shape[-2:]).reshape(-1, 4)
    return boxes[:, 4], boxes[:, :4], true_boxes


class TestDetectionLoss:
    def test_perfect_predictions(self):
        box = np.array([[5.0, 5.0, 2.0, 2.0]])
        parts = detection_loss(np.array([1.0]), box, box, lam=1.0)
        assert parts.total <= 1e-9

    def test_lambda_zero_is_cls_only(self):
        a = np.array([[5.0, 5.0, 2.0, 2.0]])
        b = np.array([[9.0, 9.0, 3.0, 1.0]])
        parts = detection_loss(np.array([0.7]), a, b, lam=0.0)
        assert parts.total == parts.cls

    def test_hand_cross_entropy(self):
        box = np.array([[5.0, 5.0, 2.0, 2.0]])
        parts = detection_loss(np.array([0.5]), box, box, lam=1.0)
        assert parts.total == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_score_is_clipped(self):
        box = np.zeros((2, 4))
        parts = detection_loss(np.array([0.0, 1.0]), box, box)
        assert parts.cls == -math.log(1e-12) / 2

    def test_monotone_in_lambda(self):
        a = np.array([[5.0, 5.0, 2.0, 2.0]])
        b = np.array([[7.0, 6.0, 2.5, 2.0]])
        low = detection_loss(np.array([0.6]), a, b, lam=0.5)
        high = detection_loss(np.array([0.6]), a, b, lam=2.0)
        assert high.total >= low.total >= 0.0

    def test_empty_match_set_raises(self):
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError, match="empty"):
            detection_loss(np.zeros(0), empty, empty)

    @pytest.mark.parametrize(
        "scores, pred_shape, true_shape",
        [
            ([0.5, 0.5], (2, 5), (2, 4)),
            ([0.5, 0.5], [4], (2, 4)),
            ([0.5, 0.5], (1, 4), (1, 4)),
            ([[0.5], [0.5]], (2, 4), (2, 4)),
        ],
    )
    def test_mismatched_inputs_raise(self, scores, pred_shape, true_shape):
        message = r"^matched inputs must be 2 scores and two \[2, 4\] box arrays$"
        with pytest.raises(ValueError, match=message):
            detection_loss(np.array(scores), np.ones(pred_shape), np.ones(true_shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_scores_raise(self, bad):
        box = np.ones((2, 4))
        with pytest.raises(ValueError, match="finite"):
            detection_loss(np.array([0.5, bad]), box, box)

    @pytest.mark.parametrize("detection", [True, False])
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_equals_box_loop_bytes_on_seed7_boxes(self, detection, lam):
        scores, pred, true = seed7_loss_inputs(detection)
        got = detection_loss(scores, pred, true, lam=lam)
        # run-pipeline's former [score, 1 - score] table, clipped, with every label 0
        table = np.clip(np.stack([scores, 1.0 - scores], axis=1), 1e-12, 1.0)
        want = reference_detection_loss(
            table,
            [0] * len(scores),
            [BoundingBox(*row) for row in pred.tolist()],
            [BoundingBox(*row) for row in true.tolist()],
            lam=lam,
        )
        assert repr((got.total, got.cls, got.reg)) == repr((want.total, want.cls, want.reg))
        if not detection:  # every full-frame score is 1: the loss is +0.0, not -0.0
            assert repr(got.cls) == "0.0"


def as_frame(boxes: list[BoundingBox]) -> tuple[np.ndarray, np.ndarray]:
    """One frame's [1, A, 4] boxes and [1, A] scores."""
    rows = box_rows(boxes)
    return rows[None, :, :4], rows[None, :, 4]


class TestNms:
    def test_single_box(self):
        boxes, scores = as_frame([BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.5)])
        assert nms(boxes, scores, 0.5) == [[0]]

    def test_identical_boxes_tie_break(self):
        a = BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.8)
        b = BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.8)
        assert nms(*as_frame([a, b]), 0.5) == [[0]]  # equal keys keep anchor order

    def test_threshold_straddles_hand_iou(self):
        # A=[0,0,2,4], B=[0,1,2,5] -> inter 2x3=6, union 8+8-6=10, IoU 0.6.
        a = BoundingBox(1.0, 2.0, 2.0, 4.0, score=0.9)
        b = BoundingBox(1.0, 3.0, 2.0, 4.0, score=0.8)
        assert iou(a, b) == pytest.approx(0.6)
        assert nms(*as_frame([a, b]), 0.4) == [[0]]
        assert nms(*as_frame([a, b]), 0.6) == [[0, 1]]

    def test_output_subset_and_pairwise_bound(self):
        rng = Rng(28)
        boxes = [
            BoundingBox(
                cx=4.0 + 4.0 * rng.uniform(),
                cy=4.0 + 4.0 * rng.uniform(),
                w=1.0 + 3.0 * rng.uniform(),
                h=1.0 + 3.0 * rng.uniform(),
                score=rng.uniform(),
            )
            for _ in range(12)
        ]
        (kept,) = nms(*as_frame(boxes), 0.3)
        assert len(set(kept)) == len(kept) and set(kept) <= set(range(12))
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(boxes[a], boxes[b]) <= 0.3

    def test_matches_list_reference_on_random_sets(self):
        rng = Rng(34)
        for trial in range(250):
            frames, count = 1 + trial % 4, 1 + trial % 9
            frame_boxes = []
            for _ in range(frames):
                # few distinct values, so equal scores, equal cx, exact duplicates,
                # touching edges and IoUs exactly at the threshold occur
                frame_boxes.append(
                    [
                        BoundingBox(
                            cx=float(rng.below(4)),
                            cy=float(rng.below(4)),
                            w=1.0 + rng.below(3),
                            h=1.0 + rng.below(3),
                            score=rng.below(4) / 3.0,
                        )
                        for _ in range(count)
                    ]
                )
            rows = np.stack([box_rows(fb) for fb in frame_boxes])
            threshold = (0.0, 1.0 / 3.0, 0.5, 1.0)[trial % 4]
            kept = nms(rows[..., :4], rows[..., 4], threshold)
            assert len(kept) == frames
            for fb, keep in zip(frame_boxes, kept):
                ref = list_nms(fb, threshold)
                assert [id(fb[i]) for i in keep] == [id(b) for b in ref], trial


class TestCropRegion:
    def test_full_frame_identity(self):
        rng = Rng(29)
        frame = rng.normals(2 * 4 * 4).reshape(2, 4, 4)
        boxes = np.array([[2.0, 2.0, 4.0, 4.0, 1.0]])
        np.testing.assert_array_equal(crop_region(frame[:, None], boxes, (4, 4))[:, 0], frame)

    def test_downscale_constant(self):
        clip = np.full((1, 2, 8, 8), 3.25)
        boxes = np.array([[4.0, 4.0, 8.0, 8.0], [3.0, 5.0, 2.5, 6.0]])
        out = crop_region(clip, boxes, (4, 4))
        np.testing.assert_array_equal(out, np.full((1, 2, 4, 4), 3.25))

    def test_checkerboard_matches_oracle_resampler(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        clip = board[None, None, :, :].astype(float)
        out = crop_region(clip, np.array([[2.0, 2.0, 4.0, 4.0, 1.0]]), (2, 2))
        ref = oracles.nearest_resample_oracle(clip[0, 0], 2, 2)
        np.testing.assert_array_equal(out[0, 0], ref)

    def test_no_intersection_raises(self):
        clip = np.ones((1, 3, 4, 4))
        boxes = np.array([[2.0, 2.0, 2.0, 2.0], [100.0, 100.0, 2.0, 2.0], [-9.0, 2.0, 2.0, 2.0]])
        with pytest.raises(ValueError, match=r"^frame 1 box .* does not intersect a 4x4 frame$"):
            crop_region(clip, boxes, (2, 2))

    @pytest.mark.parametrize(
        "row",
        [
            (np.nan, 2.0, 2.0, 2.0),
            (2.0, 2.0, np.nan, 2.0),
            (np.inf, 2.0, 2.0, 2.0),
            (2.0, -np.inf, 2.0, 2.0),
            (2.0, 2.0, np.inf, 2.0),
            (2.5, 2.5, 0.0, 2.0),  # would span one pixel if empty boxes were allowed
            (2.5, 2.5, 2.0, -0.5),
        ],
    )
    def test_empty_or_non_finite_box_raises(self, row):
        clip = np.ones((1, 2, 4, 4))
        boxes = np.array([(2.0, 2.0, 2.0, 2.0), row])
        assert frame_by_frame_crops(clip, boxes, (2, 2))[1] is None  # the reference raises too
        with pytest.raises(ValueError, match="^frame 1 box .* does not intersect"):
            crop_region(clip, boxes, (2, 2))

    @pytest.mark.parametrize("shape", [(8,), (8, 3), (7, 5), (9, 5)])
    def test_box_array_must_match_frames(self, shape):
        with pytest.raises(ValueError, match=f"^{shape[0]} boxes for a clip of 8 frames"):
            crop_region(np.ones((1, 8, 4, 4)), np.ones(shape), (2, 2))

    @pytest.mark.parametrize("detection", [True, False])
    def test_equals_frame_by_frame_crop_on_seed7_clips(self, detection):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
        model = PipelineModel(PipelineConfig(detection=detection), seed=7)
        for sample in samples:
            boxes = model.frame_boxes(sample.clip[None])[0]
            ref = np.stack(frame_by_frame_crops(sample.clip, boxes, (12, 12)), axis=1)
            got = model.crop_clip(sample.clip[None], boxes[None])[0]
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert got.flags.c_contiguous

    def test_equals_frame_by_frame_crop_on_random_boxes(self):
        """3200 boxes in 8-frame clips: inside, partly outside, missing and under a pixel."""
        rng = Rng(35)
        raised = 0
        for trial in range(400):
            h, w = (16, 16) if trial % 2 else (5 + rng.below(12), 5 + rng.below(12))
            clip = rng.normals(2 * 8 * h * w).reshape(2, 8, h, w)
            out_hw = (1 + rng.below(13), 1 + rng.below(13))
            boxes = np.array(
                [
                    [
                        -0.3 * w + 1.6 * w * rng.uniform(),
                        -0.3 * h + 1.6 * h * rng.uniform(),
                        w * math.exp(-5.0 + 5.5 * rng.uniform()),
                        h * math.exp(-5.0 + 5.5 * rng.uniform()),
                        rng.uniform(),
                    ]
                    for _ in range(8)
                ]
            )
            ref = frame_by_frame_crops(clip, boxes, out_hw)
            kept = [t for t, crop in enumerate(ref) if crop is not None]
            if len(kept) < 8:
                raised += 8 - len(kept)
                first = min(set(range(8)) - set(kept))
                with pytest.raises(ValueError, match=f"^frame {first} box .* does not intersect"):
                    crop_region(clip, boxes, out_hw)
            if kept:
                got = crop_region(clip[:, kept], boxes[kept], out_hw)
                want = np.stack([ref[t] for t in kept], axis=1)
                assert got.tobytes() == want.tobytes(), trial
        assert 100 < raised < 1600  # both outcomes are well represented

    # 33 and 49 tell (i + 0.5) * n / out from (i + 0.5) * (n / out), which rounds otherwise
    @pytest.mark.parametrize("out", [5, 33, 49])
    def test_center_rule_over_an_extent_array_matches_oracle(self, out):
        extents = np.array([1, 2, 5, 7, 12, 16, 18])
        rows = detection._center_index(extents, out)
        assert rows.shape == (7, out)
        for n, row in zip(extents, rows):
            plane = np.arange(float(n))[:, None]
            np.testing.assert_array_equal(row, oracles.nearest_resample_oracle(plane, out, 1)[:, 0])

    def test_full_frame_crop_matches_oracle_on_random(self):
        rng = Rng(30)
        plane = rng.normals(5 * 7).reshape(5, 7)
        out = crop_region(plane[None, None], np.array([[3.5, 2.5, 7.0, 5.0]]), (3, 4))[0, 0]
        np.testing.assert_array_equal(out, oracles.nearest_resample_oracle(plane, 3, 4))

    def test_full_frame_crop_of_each_extent_matches_oracle(self):
        rng = Rng(31)
        for in_hw in [(5, 7), (7, 5), (5, 7), (2, 9)]:
            plane = rng.normals(in_hw[0] * in_hw[1]).reshape(in_hw)
            box = np.array([[in_hw[1] / 2, in_hw[0] / 2, in_hw[1], in_hw[0]]])
            out = crop_region(plane[None, None], box, (3, 4))[0, 0]
            np.testing.assert_array_equal(out, oracles.nearest_resample_oracle(plane, 3, 4))


class TestDetector:
    def test_detect_is_deterministic_and_in_frame(self):
        det = Detector(seed=5)
        rng = Rng(31)
        frame = np.abs(rng.normals(16 * 16)).reshape(1, 16, 16)
        first = det.detect(frame[:, None])[0]
        second = det.detect(frame[:, None])[0]
        assert np.array_equal(first, second)
        assert first.shape[0] >= 1 and first.shape[1] == 5
        assert np.all((first[:, 2:4] > 0.0) & (first[:, 2:4] <= 16.0))

    def test_best_box_crop_shape(self):
        det = Detector(seed=5)
        rng = Rng(32)
        frame = np.abs(rng.normals(16 * 16)).reshape(1, 16, 16)
        boxes = det.best_box(frame[None, :, None])
        assert boxes.shape == (1, 1, 5) and boxes.dtype == np.float64
        crop = crop_region(frame[:, None], boxes[0], (12, 12))
        assert crop.shape == (1, 1, 12, 12)

    def test_clip_detect_equals_frame_by_frame_bitwise(self):
        det = Detector(seed=5)
        rng = Rng(33)
        clip = np.abs(rng.normals(8 * 16 * 16)).reshape(1, 8, 16, 16)
        batched = det.detect(clip)
        assert len(batched) == 8
        for t, survivors in enumerate(batched):
            single = det.detect(clip[:, t : t + 1])
            assert len(single) == 1
            assert np.array_equal(survivors, single[0])

    def test_detect_and_best_box_match_reference_on_seed7_clips(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)[:100]
        det = PipelineModel(PipelineConfig(), seed=7).detector
        for sample in samples:
            ref = reference_detect(det, sample.clip)
            got = det.detect(sample.clip)
            assert len(got) == len(ref)
            for survivors, kept in zip(got, ref):
                assert survivors.tobytes() == box_rows(kept).tobytes()
            best = det.best_box(sample.clip[None])[0]
            assert best.tobytes() == box_rows([kept[0] for kept in ref]).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_fuse_detect_and_best_box_match_reference(self, seed):
        """64 seed-7 clips and 40 uniform-random ones, in stacks of 1 and of 4."""
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)[:64]
        noise = Rng(36).uniforms(40 * 8 * 16 * 16).reshape(40, 1, 8, 16, 16)
        clips = np.concatenate([np.stack([s.clip for s in samples]), noise])
        det = Detector(seed=seed)
        refs = []
        for clip in clips:
            levels = det.pyramid(clip)
            assert det.fuse(levels).tobytes() == reference_fuse(det, levels).tobytes()
            ref = reference_detect(det, clip)
            got = det.detect(clip)
            assert len(got) == len(ref)
            for survivors, kept in zip(got, ref):
                assert survivors.tobytes() == box_rows(kept).tobytes()
            refs.append(box_rows([kept[0] for kept in ref]))
        want = np.stack(refs)
        for b in (1, 4):
            got = np.concatenate([det.best_box(clips[i : i + b]) for i in range(0, len(clips), b)])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [2, 5, 9])
    def test_best_box_of_a_stack_equals_one_clip_calls_bitwise(self, b):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)[: 2 * b]
        det = PipelineModel(PipelineConfig(), seed=7).detector
        clips = np.stack([s.clip for s in samples])
        for stack in (clips[:b], clips[b:]):
            want = np.stack([det.best_box(clip[None])[0] for clip in stack])
            assert det.best_box(stack).tobytes() == want.tobytes()

    def test_detection_off_boxes_are_the_full_frame(self):
        full = [6.0, 8.0, 12.0, 16.0, 1.0]  # (w/2, h/2, w, h, score) of the 16x12 frame
        assert detection.full_frame_box((16, 12)).tolist() == full
        off = PipelineModel(PipelineConfig(detection=False), seed=5)
        assert off.frame_boxes(np.ones((2, 1, 3, 16, 12))).tolist() == [[full] * 3] * 2

    def test_every_frame_gets_a_box(self):
        det = Detector(seed=5)
        clips = np.abs(Rng(34).normals(2 * 8 * 16 * 16)).reshape(2, 1, 8, 16, 16)
        kept = det.detect(clips[0])
        assert all(1 <= len(k) <= 4 for k in kept)
        boxes = det.best_box(clips)
        assert boxes.shape == (2, 8, 5)
        assert boxes[0].tobytes() == np.stack([k[0] for k in kept]).tobytes()

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.5, 1.0])
    def test_nms_keeps_each_frames_top_ranked_box(self, threshold):
        rng = Rng(35)
        boxes = np.abs(rng.normals(6 * 4 * 4)).reshape(6, 4, 4) * 5.0 + 0.5
        scores = rng.uniforms(6 * 4).reshape(6, 4)
        top = np.lexsort((boxes[..., 0], -scores))[:, 0]
        kept = nms(boxes, scores, threshold)
        assert [k[0] for k in kept] == top.tolist()
