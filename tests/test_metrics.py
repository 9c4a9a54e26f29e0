import math

import numpy as np
import pytest

from eitnet.metrics import (
    SPLIT_SIZES,
    SUBJECT_IDS,
    VIEW_IDS,
    SimilarityTransform,
    SkeletonPose,
    _similarity_fit,
    accuracy,
    make_split,
    mpjpe,
    pa_mpjpe,
    procrustes_align,
)
from eitnet.rng import Rng


def per_frame_procrustes(pred: SkeletonPose, truth: SkeletonPose) -> SimilarityTransform:
    """One frame's similarity fit, the reference for the batched fit."""
    x = pred.joints
    y = truth.joints
    mu_x = x.mean(axis=0)
    mu_y = y.mean(axis=0)
    xc = x - mu_x
    yc = y - mu_y
    cov = yc.T @ xc / pred.count
    u, d, vt = np.linalg.svd(cov)
    flip = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        flip[2, 2] = -1.0
    rot = u @ flip @ vt
    var_x = (xc**2).sum() / pred.count
    scale = float(np.trace(np.diag(d) @ flip) / var_x)
    trans = mu_y - scale * rot @ mu_x
    return SimilarityTransform(s=scale, R=rot, t=trans)


def per_frame_pa_mpjpe(pred: list[SkeletonPose], truth: list[SkeletonPose]) -> float:
    """The frame-by-frame PA-MPJPE loop that the batched fit replaced."""
    total = 0.0
    count = 0
    for p, t in zip(pred, truth):
        aligned = per_frame_procrustes(p, t).apply(p)
        total += np.linalg.norm(aligned.joints - t.joints, axis=1).sum()
        count += p.count
    return total / count


def random_sequence(rng, frames=8, n=17):
    """A prediction and a truth sequence; every third frame is nearly a similarity image."""
    pred, truth = [], []
    for f in range(frames):
        p = random_pose(rng, n=n, scale=100.0 * (0.1 + 10.0 * rng.uniform()))
        if f % 3 == 0:
            t = random_similarity(rng).apply(p).joints + rng.normals(n * 3).reshape(n, 3)
        else:
            t = random_pose(rng, n=n, scale=300.0).joints
        pred.append(p)
        truth.append(SkeletonPose(joints=t))
    return pred, truth


def random_pose(rng, n=5, scale=100.0):
    return SkeletonPose(joints=rng.normals(n * 3).reshape(n, 3) * scale)


def random_rotation(rng):
    """QR-based uniform-ish rotation with positive determinant."""
    m = rng.normals(9).reshape(3, 3)
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def random_similarity(rng):
    return SimilarityTransform(
        s=0.5 + 2.0 * rng.uniform(),
        R=random_rotation(rng),
        t=rng.normals(3) * 50.0,
    )


class TestSkeletonPose:
    def test_stack_rows_are_read_only_views_of_one_array(self):
        stack = np.arange(8 * 5 * 3).reshape(8, 5, 3)
        poses = SkeletonPose.from_stack(stack)
        assert [p.count for p in poses] == [5] * 8
        base = poses[0].joints.base
        assert base is not None and base.shape == (8, 5, 3) and not base.flags.writeable
        for pose, row in zip(poses, stack):
            assert pose.joints.dtype == np.float64 and not pose.joints.flags.writeable
            assert pose.joints.base is base
            assert pose.joints.tobytes() == SkeletonPose(joints=row).joints.tobytes()
        assert SkeletonPose.from_stack(np.zeros((0, 5, 3))) == []
        assert not hasattr(poses[0], "__dict__")  # slots: a pose is its joints alone

    def test_stack_copies_a_writeable_input_once(self):
        stack = Rng(96).normals(8 * 5 * 3).reshape(8, 5, 3)
        want = [row.tobytes() for row in stack]
        poses = SkeletonPose.from_stack(stack)
        base = poses[0].joints.base
        assert all(p.joints.base is base for p in poses)  # one copy, not one per row
        assert not np.shares_memory(base, stack)
        stack[...] = -1.0
        assert [p.joints.tobytes() for p in poses] == want

    def test_stack_keeps_a_read_only_input(self):
        stack = Rng(97).normals(8 * 5 * 3).reshape(8, 5, 3)
        stack.flags.writeable = False
        poses = SkeletonPose.from_stack(stack)
        assert all(np.shares_memory(p.joints, stack) for p in poses)

    @pytest.mark.parametrize(
        "shape, bad, value",
        [
            ((8, 5, 3), (7, 4, 2), np.nan),  # the last frame only
            ((8, 5, 3), (0, 0, 0), np.inf),
            ((8, 5, 3), (3, 1, 1), -np.inf),
            ((8, 5, 2), None, None),
            ((8, 0, 3), None, None),
            ((8, 5), None, None),
            ((8,), None, None),
            ((8, 5, 3, 1), None, None),
        ],
    )
    def test_stack_raises_what_one_pose_per_frame_raises(self, shape, bad, value):
        stack = np.zeros(shape)
        if bad is not None:
            stack[bad] = value
        with pytest.raises(ValueError) as per_pose:
            [SkeletonPose(joints=row) for row in stack]
        with pytest.raises(ValueError) as stacked:
            SkeletonPose.from_stack(stack)
        assert str(stacked.value) == str(per_pose.value)


class TestMpjpe:
    def test_exact_match_is_zero(self):
        rng = Rng(70)
        pose = random_pose(rng)
        assert mpjpe(pose, SkeletonPose(joints=pose.joints.copy())) == 0.0

    def test_three_four_five_triangle(self):
        truth = SkeletonPose(joints=np.zeros((1, 3)))
        pred = SkeletonPose(joints=np.array([[3.0, 4.0, 0.0]]))
        assert mpjpe(pred, truth) == 5.0

    def test_hand_mean_of_two_joints(self):
        truth = SkeletonPose(joints=np.zeros((2, 3)))
        pred = SkeletonPose(joints=np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert mpjpe(pred, truth) == 2.5

    def test_translation_equivariance(self):
        rng = Rng(71)
        pose = random_pose(rng)
        t = np.array([3.0, -4.0, 12.0])
        shifted = SkeletonPose(joints=pose.joints + t)
        assert mpjpe(shifted, pose) == pytest.approx(np.linalg.norm(t), abs=1e-12)

    def test_sequence_averaging(self):
        truth = [SkeletonPose(joints=np.zeros((1, 3))) for _ in range(2)]
        pred = [
            SkeletonPose(joints=np.array([[1.0, 0.0, 0.0]])),
            SkeletonPose(joints=np.array([[3.0, 0.0, 0.0]])),
        ]
        assert mpjpe(pred, truth) == 2.0

    def test_matches_per_frame_sum_bitwise(self):
        rng = Rng(84)
        for clip in range(50):
            pred, truth = random_sequence(rng, n=(17, 3, 5, 16)[clip % 4])
            total = 0.0
            for p, t in zip(pred, truth):
                total += np.linalg.norm(p.joints - t.joints, axis=1).sum()
            assert mpjpe(pred, truth) == total / (len(pred) * pred[0].count)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="joint counts"):
            mpjpe(SkeletonPose(joints=np.zeros((2, 3))), SkeletonPose(joints=np.zeros((3, 3))))


class TestProcrustes:
    def test_identity_recovered(self):
        rng = Rng(72)
        pose = random_pose(rng)
        tf = procrustes_align(pose, pose)
        assert abs(tf.s - 1.0) <= 1e-9
        assert np.abs(tf.R - np.eye(3)).max() <= 1e-9
        assert np.abs(tf.t).max() <= 1e-6

    def test_known_similarity_recovered(self):
        rng = Rng(73)
        pose = random_pose(rng)
        r0 = random_rotation(rng)
        t0 = np.array([10.0, -20.0, 5.0])
        truth = SkeletonPose(joints=2.0 * pose.joints @ r0.T + t0)
        tf = procrustes_align(pose, truth)
        assert abs(tf.s - 2.0) <= 1e-6
        assert np.abs(tf.R - r0).max() <= 1e-6
        assert np.abs(tf.t - t0).max() <= 1e-6

    def test_beats_random_transforms(self):
        rng = Rng(74)
        pred = random_pose(rng)
        truth = random_pose(rng)
        tf = procrustes_align(pred, truth)
        best = np.linalg.norm(tf.apply(pred).joints - truth.joints)
        for _ in range(1000):
            cand = random_similarity(rng)
            residual = np.linalg.norm(cand.apply(pred).joints - truth.joints)
            assert best <= residual + 1e-9

    def test_reflection_never_returned(self):
        rng = Rng(75)
        pose = random_pose(rng)
        mirrored = SkeletonPose(joints=pose.joints * np.array([-1.0, 1.0, 1.0]))
        tf = procrustes_align(pose, mirrored)
        assert np.linalg.det(tf.R) == pytest.approx(1.0, abs=1e-9)

    def test_batched_fit_matches_per_frame_reference_bitwise(self):
        rng = Rng(81)
        for clip in range(100):
            pred, truth = random_sequence(rng, n=(17, 3, 5, 16)[clip % 4])
            x = np.stack([p.joints for p in pred])
            y = np.stack([t.joints for t in truth])
            s, R, t = _similarity_fit(x, y)
            for f, (p, q) in enumerate(zip(pred, truth)):
                ref = per_frame_procrustes(p, q)
                assert s[f] == ref.s
                assert R[f].tobytes() == ref.R.tobytes()
                assert t[f].tobytes() == ref.t.tobytes()
            single = procrustes_align(pred[0], truth[0])
            assert (single.s, single.R.tobytes()) == (s[0], R[0].tobytes())

    def test_degenerate_geometry_raises(self):
        line = SkeletonPose(joints=np.outer(np.arange(4.0), [1.0, 2.0, 3.0]))
        target = SkeletonPose(joints=np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match="collinear"):
            procrustes_align(line, target)
        point = SkeletonPose(joints=np.ones((4, 3)))
        with pytest.raises(ValueError, match="coincident|collinear"):
            procrustes_align(point, target)
        with pytest.raises(ValueError, match="3 joints"):
            procrustes_align(
                SkeletonPose(joints=np.eye(3)[:2]), SkeletonPose(joints=np.eye(3)[:2])
            )


class TestPaMpjpe:
    def test_matches_per_frame_reference_bitwise(self):
        rng = Rng(82)
        for clip in range(100):
            pred, truth = random_sequence(rng, n=(17, 3, 5, 16)[clip % 4])
            assert pa_mpjpe(pred, truth) == per_frame_pa_mpjpe(pred, truth)

    def test_first_degenerate_frame_reported_predicted_first(self):
        rng = Rng(83)
        pred, truth = random_sequence(rng, frames=4, n=5)
        line = SkeletonPose(joints=np.outer(np.arange(5.0), [1.0, 2.0, 3.0]))
        pred[2] = line
        truth[1] = line
        with pytest.raises(ValueError, match="^ground-truth joints are coincident or collinear$"):
            pa_mpjpe(pred, truth)
        truth[2] = line
        truth[1] = pred[1]
        with pytest.raises(ValueError, match="^predicted joints are coincident or collinear$"):
            pa_mpjpe(pred, truth)

    def test_zero_cross_covariance_keeps_scale_message(self):
        # planar sets in orthogonal subspaces of the centered joint space: cov = 0, so s = 0
        v1, v2, v3, v4 = (
            np.array(v, dtype=float)
            for v in ([1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [1, 1, -1, -1, 0], [1, 1, 1, 1, -4])
        )
        pred = SkeletonPose(joints=np.column_stack([v1, v2, np.zeros(5)]))
        truth = SkeletonPose(joints=np.column_stack([v3, v4, np.zeros(5)]))
        with pytest.raises(ValueError, match="^scale must be positive, got 0.0$"):
            procrustes_align(pred, truth)
        with pytest.raises(ValueError, match="^scale must be positive, got 0.0$"):
            pa_mpjpe([truth, pred], [truth, truth])  # the second frame fails

    @pytest.mark.parametrize(
        "pred, truth, message",
        [
            ([], [SkeletonPose(joints=np.eye(3))], "pose sequence is empty"),
            ([SkeletonPose(joints=np.eye(3))], [], "pose sequence is empty"),
            ([SkeletonPose(joints=np.eye(3))] * 2, [SkeletonPose(joints=np.eye(3))],
             "sequence lengths differ: 2 vs 1"),
            ([SkeletonPose(joints=np.eye(3))], [SkeletonPose(joints=np.ones((4, 3)))],
             "joint counts differ: 3 vs 4"),
            (SkeletonPose(joints=np.eye(3)[:2]), SkeletonPose(joints=np.eye(3)[:2]),
             "alignment needs at least 3 joints"),
            (np.zeros((2, 8, 5, 3)), np.zeros((3, 8, 5, 3)), "sequence counts differ: 2 vs 3"),
            (np.zeros((2, 8, 5, 3)), np.zeros((2, 7, 5, 3)), "sequence lengths differ: 8 vs 7"),
            (np.zeros((8, 5, 3)), np.zeros((8, 4, 3)), "joint counts differ: 5 vs 4"),
            (np.zeros((0, 8, 5, 3)), np.zeros((0, 8, 5, 3)), "pose sequence is empty"),
            (np.zeros(3), np.zeros(3), r"poses must be \[J, 3\], \[T, J, 3\] or \[N, T, J, 3\], "
             r"got \(3,\)"),
            (np.zeros((1, 1, 8, 5, 3)), np.zeros((1, 1, 8, 5, 3)), "poses must be .*, got "
             r"\(1, 1, 8, 5, 3\)"),
            (np.zeros((8, 5, 2)), np.zeros((8, 5, 2)), r"joints must be \[N, 3\], got \(5, 2\)"),
            (np.zeros((8, 0, 3)), np.zeros((8, 0, 3)), "pose needs at least one joint"),
        ],
    )
    def test_bad_sequences_keep_their_messages(self, pred, truth, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pa_mpjpe(pred, truth)
        if "3 joints" not in message:
            with pytest.raises(ValueError, match=f"^{message}$"):
                mpjpe(pred, truth)

    def test_similarity_transform_of_truth_scores_zero(self):
        rng = Rng(76)
        truth = random_pose(rng)
        pred = random_similarity(rng).apply(truth)
        assert pa_mpjpe(pred, truth) <= 1e-6

    def test_never_worse_than_mpjpe(self):
        rng = Rng(77)
        for _ in range(200):
            pred, truth = random_pose(rng), random_pose(rng)
            assert pa_mpjpe(pred, truth) <= mpjpe(pred, truth) + 1e-9

    def test_matches_direct_residual_of_checked_transform(self):
        rng = Rng(78)
        pred, truth = random_pose(rng), random_pose(rng)
        tf = procrustes_align(pred, truth)
        ref = np.linalg.norm(tf.apply(pred).joints - truth.joints, axis=1).mean()
        assert abs(pa_mpjpe(pred, truth) - ref) <= 1e-9

    def test_invariant_under_pred_similarity(self):
        rng = Rng(79)
        pred, truth = random_pose(rng), random_pose(rng)
        base = pa_mpjpe(pred, truth)
        moved = random_similarity(rng).apply(pred)
        assert abs(pa_mpjpe(moved, truth) - base) <= 1e-6


class TestPoseArrays:
    """A pose, a list of poses and a [J, 3], [T, J, 3] or [N, T, J, 3] array score alike."""

    def test_poses_lists_and_arrays_are_bitwise_equal(self):
        rng = Rng(85)
        for n in (17, 3, 5):
            pred, truth = random_sequence(rng, n=n)
            x, y = np.stack([p.joints for p in pred]), np.stack([t.joints for t in truth])
            for metric in (mpjpe, pa_mpjpe):
                one = metric(pred[0], truth[0])
                assert metric(x[0], y[0]) == one and metric([pred[0]], y[:1]) == one
                seq = metric(pred, truth)
                assert metric(x, y) == seq and metric(x[None], y[None]) == seq
                assert metric(pred, y) == seq and metric(x[None], truth) == seq
            tf = procrustes_align(pred[0], truth[0])
            for got in (procrustes_align(x[0], y[0]), procrustes_align(x[:1][None], y[:1][None])):
                assert (got.s, got.R.tobytes(), got.t.tobytes()) == (
                    tf.s, tf.R.tobytes(), tf.t.tobytes()
                )

    def test_a_set_is_the_mean_of_per_sequence_calls_bitwise(self):
        rng = Rng(86)
        for n in (17, 5):
            seqs = [random_sequence(rng, n=n) for _ in range(7)]
            x = np.stack([[p.joints for p in pred] for pred, _ in seqs])
            y = np.stack([[t.joints for t in truth] for _, truth in seqs])
            assert x.shape == (7, 8, n, 3)
            for metric in (mpjpe, pa_mpjpe):
                want = float(np.mean([metric(pred, truth) for pred, truth in seqs]))
                assert metric(x, y) == want

    def test_first_degenerate_frame_of_a_set_is_reported(self):
        rng = Rng(87)
        seqs = [random_sequence(rng, frames=4, n=5) for _ in range(3)]
        x = np.stack([[p.joints for p in pred] for pred, _ in seqs])
        y = np.stack([[t.joints for t in truth] for _, truth in seqs])
        line = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        x[2, 0], y[1, 3] = line, line  # the truth's frame comes first in (sequence, frame) order
        with pytest.raises(ValueError, match="^ground-truth joints are coincident or collinear$"):
            pa_mpjpe(x, y)
        x[1, 3] = line  # the same frame: predicted before truth
        with pytest.raises(ValueError, match="^predicted joints are coincident or collinear$"):
            pa_mpjpe(x, y)

    def test_a_pose_converts_to_its_joints(self):
        pose = random_pose(Rng(88))
        assert np.asarray(pose) is pose.joints
        assert np.asarray([pose, pose]).tobytes() == np.stack([pose.joints] * 2).tobytes()
        assert np.asarray(pose, dtype=np.float32).dtype == np.float32


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 100.0

    def test_half_correct(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 50.0

    def test_nine_of_twelve(self):
        preds = [0] * 9 + [1] * 3
        truths = [0] * 12
        assert accuracy(preds, truths) == 75.0

    def test_relabeling_invariance(self):
        rng = Rng(80)
        preds = [rng.below(4) for _ in range(50)]
        truths = [rng.below(4) for _ in range(50)]
        relabel = {0: 3, 1: 2, 2: 0, 3: 1}
        assert accuracy(preds, truths) == accuracy(
            [relabel[p] for p in preds], [relabel[t] for t in truths]
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestMakeSplit:
    def test_subject_sizes_and_coverage(self):
        for seed in range(25):
            plan = make_split("subject", seed)
            assert len(plan.train_ids) == 6 and len(plan.test_ids) == 4
            assert not set(plan.train_ids) & set(plan.test_ids)
            assert set(plan.train_ids) | set(plan.test_ids) == set(SUBJECT_IDS)

    def test_view_sizes_and_coverage(self):
        for seed in range(25):
            plan = make_split("view", seed)
            assert len(plan.train_ids) == 3 and len(plan.test_ids) == 2
            assert set(plan.train_ids) | set(plan.test_ids) == set(VIEW_IDS)

    def test_deterministic(self):
        assert make_split("subject", 7) == make_split("subject", 7)
        assert make_split("view", 7) == make_split("view", 7)

    def test_seed_changes_plan(self):
        plans = {make_split("subject", s).train_ids for s in range(30)}
        assert len(plans) > 1

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            make_split("camera", 1)

    def test_sizes_match_protocol_constants(self):
        assert SPLIT_SIZES == {"subject": (6, 4), "view": (3, 2)}
