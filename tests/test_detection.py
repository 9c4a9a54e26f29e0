import math

import numpy as np
import pytest

from eitnet.detection import (
    BoundingBox,
    Detector,
    FeaturePyramid,
    FusionWeights,
    bifpn_fuse,
    crop_region,
    detection_loss,
    iou,
    level_attention,
    match_anchors,
    nms,
    predict_boxes,
    resample_nearest,
)
from eitnet.rng import Rng

import oracles


def rand_level(rng, c=2, h=4, w=4):
    return rng.normals(c * h * w).reshape(c, h, w)


class TestBifpnFuse:
    def test_identical_levels_equal_weights(self):
        rng = Rng(20)
        lv = rand_level(rng)
        fused = bifpn_fuse(
            FeaturePyramid(levels=[lv, lv.copy()]),
            FusionWeights(raw=(3.0, 3.0), eps=1e-12),
        )
        np.testing.assert_allclose(fused, lv, atol=1e-10)

    def test_one_hot_weights_select_level(self):
        rng = Rng(21)
        a, b = rand_level(rng), rand_level(rng)
        fused = bifpn_fuse(
            FeaturePyramid(levels=[a, b]), FusionWeights(raw=(1.0, 0.0), eps=1e-12)
        )
        np.testing.assert_allclose(fused, a, atol=1e-10)

    def test_three_level_weighted_sum_oracle(self):
        rng = Rng(22)
        levels = [rand_level(rng) for _ in range(3)]
        raw = (0.7, 1.3, 0.2)
        eps = 1e-4
        fused = bifpn_fuse(FeaturePyramid(levels=levels), FusionWeights(raw=raw, eps=eps))
        total = sum(raw) + eps
        ref = sum((w / total) * lv for w, lv in zip(raw, levels))
        np.testing.assert_allclose(fused, ref, atol=1e-12)

    def test_convexity_bound(self):
        rng = Rng(23)
        levels = [rand_level(rng) for _ in range(3)]
        fused = bifpn_fuse(
            FeaturePyramid(levels=levels), FusionWeights(raw=(1.0, 2.0, 3.0), eps=1e-15)
        )
        lo = np.minimum.reduce(levels)
        hi = np.maximum.reduce(levels)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel"):
            FeaturePyramid(levels=[np.ones((2, 4, 4)), np.ones((3, 4, 4))])

    def test_extent_mismatch_raises(self):
        pyr = FeaturePyramid(levels=[np.ones((2, 4, 4)), np.ones((2, 2, 2))])
        with pytest.raises(ValueError, match="common extent"):
            bifpn_fuse(pyr, FusionWeights(raw=(1.0, 1.0)))


class TestLevelAttention:
    def test_equal_levels_give_ones(self):
        rng = Rng(24)
        lv = rand_level(rng) + 10.0
        np.testing.assert_allclose(level_attention(lv, lv.copy(), 0.0), np.ones_like(lv))

    def test_zero_previous_definition(self):
        cur = np.full((1, 2, 2), 3.0)
        prev = np.zeros((1, 2, 2))
        np.testing.assert_allclose(level_attention(cur, prev, 1e-4), np.full_like(cur, 3e4))

    def test_elementwise_oracle(self):
        rng = Rng(25)
        cur, prev = rand_level(rng), np.abs(rand_level(rng)) + 0.5
        out = level_attention(cur, prev, 1e-3)
        for idx in np.ndindex(cur.shape):
            assert abs(out[idx] - cur[idx] / (prev[idx] + 1e-3)) <= 1e-12


ONE_FRAME_SCORES = np.ones((1, 2))


class TestPredictBoxes:
    def anchors(self):
        return [BoundingBox(8.0, 8.0, 16.0, 16.0), BoundingBox(4.0, 12.0, 8.0, 6.0)]

    def test_zero_logits_halve_anchor(self):
        fused = np.zeros((1, 2, 2))
        w = np.zeros((4, 8))
        out = predict_boxes(fused, w, np.zeros(8), self.anchors(), ONE_FRAME_SCORES)[0]
        for box, anchor in zip(out, self.anchors()):
            assert box.cx == pytest.approx(0.5 * anchor.cx)
            assert box.h == pytest.approx(0.5 * anchor.h)

    def test_saturated_logits_recover_anchor(self):
        fused = np.ones((1, 1, 1))
        w = np.zeros((1, 8))
        out = predict_boxes(fused, w, np.full(8, 50.0), self.anchors(), ONE_FRAME_SCORES)[0]
        for box, anchor in zip(out, self.anchors()):
            for got, want in zip(
                (box.cx, box.cy, box.w, box.h), (anchor.cx, anchor.cy, anchor.w, anchor.h)
            ):
                assert abs(got - want) <= 1e-9

    def test_random_logits_scalar_oracle(self):
        rng = Rng(26)
        fused = rng.normals(8).reshape(2, 2, 2)
        w = rng.normals(8 * 8).reshape(8, 8)
        b = rng.normals(8)
        out = predict_boxes(fused[None], w, b, self.anchors(), ONE_FRAME_SCORES)[0]
        logits = fused.reshape(-1) @ w + b
        for i, (box, anchor) in enumerate(zip(out, self.anchors())):
            for j, (got, base) in enumerate(
                zip((box.cx, box.cy, box.w, box.h), (anchor.cx, anchor.cy, anchor.w, anchor.h))
            ):
                gate = 1.0 / (1.0 + math.exp(-logits[4 * i + j]))
                assert abs(got - gate * base) <= 1e-12

    def test_predictions_bounded_by_anchor(self):
        rng = Rng(27)
        fused = rng.normals(4).reshape(1, 2, 2)
        w = rng.normals(4 * 8).reshape(4, 8) * 3.0
        out = predict_boxes(fused, w, rng.normals(8), self.anchors(), ONE_FRAME_SCORES)[0]
        for box, anchor in zip(out, self.anchors()):
            assert 0.0 < box.w <= anchor.w and 0.0 < box.h <= anchor.h

    def test_anchor_count_mismatch(self):
        with pytest.raises(ValueError, match="4 per anchor"):
            predict_boxes(
                np.ones((1, 1, 2)), np.ones((2, 4)), np.zeros(4), self.anchors(), ONE_FRAME_SCORES
            )


    def test_score_rows_must_match_frames(self):
        with pytest.raises(ValueError, match="scores must be"):
            predict_boxes(
                np.ones((2, 1, 1)), np.ones((1, 8)), np.zeros(8), self.anchors(), ONE_FRAME_SCORES
            )


class TestDetectionLoss:
    def test_perfect_predictions(self):
        box = BoundingBox(5.0, 5.0, 2.0, 2.0)
        parts = detection_loss(np.array([[1.0, 0.0]]), [0], [box], [box], lam=1.0)
        assert parts.total <= 1e-9

    def test_lambda_zero_is_cls_only(self):
        a = BoundingBox(5.0, 5.0, 2.0, 2.0)
        b = BoundingBox(9.0, 9.0, 3.0, 1.0)
        parts = detection_loss(np.array([[0.7, 0.3]]), [0], [a], [b], lam=0.0)
        assert parts.total == parts.cls

    def test_hand_cross_entropy(self):
        box = BoundingBox(5.0, 5.0, 2.0, 2.0)
        parts = detection_loss(np.array([[0.5, 0.5]]), [0], [box], [box], lam=1.0)
        assert parts.total == pytest.approx(math.log(2.0), abs=1e-12)

    def test_monotone_in_lambda(self):
        a = BoundingBox(5.0, 5.0, 2.0, 2.0)
        b = BoundingBox(7.0, 6.0, 2.5, 2.0)
        low = detection_loss(np.array([[0.6, 0.4]]), [0], [a], [b], lam=0.5)
        high = detection_loss(np.array([[0.6, 0.4]]), [0], [a], [b], lam=2.0)
        assert high.total >= low.total >= 0.0

    def test_empty_match_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            detection_loss(np.zeros((0, 2)), [], [], [])


class TestNms:
    def test_single_box(self):
        box = BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.5)
        assert nms([box], 0.5) == [box]

    def test_identical_boxes_tie_break(self):
        a = BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.8, class_id=1)
        b = BoundingBox(1.0, 1.0, 2.0, 2.0, score=0.8, class_id=0)
        kept = nms([a, b], 0.5)
        assert kept == [b]

    def test_threshold_straddles_hand_iou(self):
        # two 2x4 boxes overlapping on a 2x2 area: IoU = 4 / (8 + 8 - 4) = 1/3... use
        # a pair engineered to IoU exactly 0.5: 2x4 and 2x4 sharing a 2x... build from
        # corners: A=[0,0,2,4], B=[0,1,2,5] -> inter 2x3=6, union 8+8-6=10, IoU 0.6.
        a = BoundingBox(1.0, 2.0, 2.0, 4.0, score=0.9)
        b = BoundingBox(1.0, 3.0, 2.0, 4.0, score=0.8)
        assert iou(a, b) == pytest.approx(0.6)
        assert len(nms([a, b], 0.4)) == 1
        assert len(nms([a, b], 0.6)) == 2

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
        kept = nms(boxes, 0.3)
        assert all(k in boxes for k in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(a, b) <= 0.3


class TestCropRegion:
    def test_full_frame_identity(self):
        rng = Rng(29)
        frame = rng.normals(2 * 4 * 4).reshape(2, 4, 4)
        box = BoundingBox(2.0, 2.0, 4.0, 4.0)
        np.testing.assert_array_equal(crop_region(frame, box, (4, 4)), frame)

    def test_downscale_constant(self):
        frame = np.full((1, 8, 8), 3.25)
        box = BoundingBox(4.0, 4.0, 8.0, 8.0)
        out = crop_region(frame, box, (4, 4))
        np.testing.assert_array_equal(out, np.full((1, 4, 4), 3.25))

    def test_checkerboard_matches_oracle_resampler(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        frame = board[None, :, :].astype(float)
        box = BoundingBox(2.0, 2.0, 4.0, 4.0)
        out = crop_region(frame, box, (2, 2))
        ref = oracles.nearest_resample_oracle(frame[0], 2, 2)
        np.testing.assert_array_equal(out[0], ref)

    def test_no_intersection_raises(self):
        frame = np.ones((1, 4, 4))
        with pytest.raises(ValueError, match="intersect"):
            crop_region(frame, BoundingBox(100.0, 100.0, 2.0, 2.0), (2, 2))

    def test_resample_matches_oracle_on_random(self):
        rng = Rng(30)
        plane = rng.normals(5 * 7).reshape(5, 7)
        out = resample_nearest(plane[None], (3, 4))[0]
        np.testing.assert_array_equal(out, oracles.nearest_resample_oracle(plane, 3, 4))


class TestMatchAnchors:
    def test_one_to_one_greedy(self):
        anchors = [BoundingBox(2.0, 2.0, 2.0, 2.0), BoundingBox(6.0, 6.0, 2.0, 2.0)]
        truths = [BoundingBox(6.2, 6.0, 2.0, 2.0), BoundingBox(2.1, 2.0, 2.0, 2.0)]
        pairs = match_anchors(anchors, truths)
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_disjoint_boxes_unmatched(self):
        anchors = [BoundingBox(2.0, 2.0, 1.0, 1.0)]
        truths = [BoundingBox(50.0, 50.0, 1.0, 1.0)]
        assert match_anchors(anchors, truths) == []


class TestDetector:
    def test_detect_is_deterministic_and_in_frame(self):
        det = Detector(frame_hw=(16, 16), seed=5)
        rng = Rng(31)
        frame = np.abs(rng.normals(16 * 16)).reshape(1, 16, 16)
        first = det.detect(frame[:, None])[0]
        second = det.detect(frame[:, None])[0]
        assert first == second
        assert len(first) >= 1
        for box in first:
            assert 0.0 < box.w <= 16.0 and 0.0 < box.h <= 16.0

    def test_best_box_crop_shape(self):
        det = Detector(frame_hw=(16, 16), seed=5)
        rng = Rng(32)
        frame = np.abs(rng.normals(16 * 16)).reshape(1, 16, 16)
        crop = crop_region(frame, det.best_box(frame[:, None])[0], (12, 12))
        assert crop.shape == (1, 12, 12)

    def test_clip_detect_equals_frame_by_frame_bitwise(self):
        det = Detector(frame_hw=(16, 16), seed=5)
        rng = Rng(33)
        clip = np.abs(rng.normals(8 * 16 * 16)).reshape(1, 8, 16, 16)

        def as_array(boxes):
            return np.array([[b.cx, b.cy, b.w, b.h, b.score, b.class_id] for b in boxes])

        batched = det.detect(clip)
        assert len(batched) == 8
        for t, boxes in enumerate(batched):
            single = det.detect(clip[:, t : t + 1])
            assert len(single) == 1
            assert np.array_equal(as_array(boxes), as_array(single[0]))

