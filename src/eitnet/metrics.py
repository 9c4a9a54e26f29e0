"""Pose-error metrics, classification accuracy, and evaluation splits.

MPJPE is the mean Euclidean joint distance over all joints and frames.
PA-MPJPE removes the best-fit similarity transform first: the transform
minimizing sum_i ||p_i - s R phat_i - t||^2 comes from centering both sets,
taking the orthogonal factor of the cross-covariance (with the smallest
singular direction flipped when the determinant would be negative), the
trace-ratio scale, and the centroid-difference translation.  Sequences are
aligned frame by frame, all frames in one batched fit over the [T, J, 3]
joint stacks (Umeyama, TPAMI 1991): one SVD and one determinant call on the
[T, 3, 3] cross-covariances, and the degeneracy and rotation checks run on
every frame at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import Rng, derive_seed

SUBJECT_IDS = tuple(range(1, 11))
VIEW_IDS = tuple(range(1, 6))
SPLIT_SIZES = {"subject": (6, 4), "view": (3, 2)}


@dataclass
class SkeletonPose:
    """N joint positions in millimeters, rows of (x, y, z)."""

    joints: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        _check_joints(self.joints, self.joints.shape)

    @classmethod
    def from_stack(cls, joints) -> list[SkeletonPose]:
        """The T poses of a [T, N, 3] stack, checked once as a whole; each owns its row."""
        joints = np.asarray(joints, dtype=np.float64)
        _check_joints(joints, joints.shape[1:])
        poses = []
        for row in joints:
            pose = cls.__new__(cls)
            pose.joints = row.copy()
            poses.append(pose)
        return poses

    @property
    def count(self) -> int:
        return self.joints.shape[0]


def _check_joints(joints: np.ndarray, pose_shape: tuple) -> None:
    """Raise unless every pose of ``joints`` is [N, 3] with N >= 1 and finite."""
    if len(pose_shape) != 2 or pose_shape[1] != 3:
        raise ValueError(f"joints must be [N, 3], got {pose_shape}")
    if pose_shape[0] < 1:
        raise ValueError("pose needs at least one joint")
    if not np.all(np.isfinite(joints)):
        raise ValueError("joint coordinates must be finite")


@dataclass
class SimilarityTransform:
    """x -> s * R @ x + t with R a proper rotation."""

    s: float
    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        _check_similarities(np.array([self.s]), self.R[None])

    def apply(self, pose: SkeletonPose) -> SkeletonPose:
        return SkeletonPose(joints=self.s * pose.joints @ self.R.T + self.t)


def _check_similarities(s: np.ndarray, R: np.ndarray) -> None:
    """Positive scales [T] and proper rotations [T, 3, 3], else the first failure."""
    if (s <= 0).any():
        raise ValueError(f"scale must be positive, got {s[s <= 0][0]}")
    if R.shape[1:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape[1:]}")
    if np.abs(R.swapaxes(1, 2) @ R - np.eye(3)).max() > 1e-9:
        raise ValueError("rotation is not orthonormal")
    if (np.abs(np.linalg.det(R) - 1.0) > 1e-9).any():
        raise ValueError("rotation determinant must be +1")


PoseLike = SkeletonPose | Sequence[SkeletonPose]


def _joint_stacks(pred: PoseLike, truth: PoseLike) -> tuple[np.ndarray, np.ndarray]:
    """[T, J, 3] joints of two equal-length pose sequences (a single pose is T = 1)."""
    sides = []
    for poses in (pred, truth):
        seq = [poses] if isinstance(poses, SkeletonPose) else list(poses)
        if not seq:
            raise ValueError("pose sequence is empty")
        sides.append(seq)
    p, t = sides
    if len(p) != len(t):
        raise ValueError(f"sequence lengths differ: {len(p)} vs {len(t)}")
    for a, b in zip(p, t):
        if a.count != b.count:
            raise ValueError(f"joint counts differ: {a.count} vs {b.count}")
    return np.stack([a.joints for a in p]), np.stack([b.joints for b in t])


def _mean_joint_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Mean over frames and joints of ||x - y||.

    The frame sums are added one after another in frame order (a cumulative
    sum, not a pairwise one), so the value is bitwise that of a per-frame loop.
    """
    frame_sums = np.linalg.norm(x - y, axis=2).sum(axis=1)
    return float(np.cumsum(frame_sums)[-1] / (x.shape[0] * x.shape[1]))


def mpjpe(pred: PoseLike, truth: PoseLike) -> float:
    """Mean Euclidean distance between corresponding joints, in millimeters."""
    return _mean_joint_distance(*_joint_stacks(pred, truth))


def _similarity_fit(x: np.ndarray, y: np.ndarray):
    """Per-frame (s [T], R [T, 3, 3], t [T, 3]) minimizing ||y - (s R x + t)|| over [T, J, 3]."""
    n = x.shape[1]
    if n < 3:
        raise ValueError("alignment needs at least 3 joints")
    mu_x = x.mean(axis=1, keepdims=True)
    mu_y = y.mean(axis=1, keepdims=True)
    xc = x - mu_x
    yc = y - mu_y
    sv = np.linalg.svd(np.stack([xc, yc], axis=1), compute_uv=False)  # [T, 2, 3]
    degenerate = (sv[..., 0] < 1e-12) | (sv[..., 1] < 1e-9 * sv[..., 0])
    if degenerate.any():
        side = np.argwhere(degenerate)[0][1]
        name = ("predicted", "ground-truth")[side]
        raise ValueError(f"{name} joints are coincident or collinear")
    cov = yc.swapaxes(1, 2) @ xc / n
    u, d, vt = np.linalg.svd(cov)
    flip = np.ones_like(d)  # the diagonal of the reflection guard
    flip[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rot = (u * flip[:, None, :]) @ vt
    var_x = (xc**2).reshape(len(x), -1).sum(axis=1) / n
    scale = (d * flip).sum(axis=1) / var_x
    trans = mu_y[:, 0] - (scale[:, None, None] * rot @ mu_x.swapaxes(1, 2))[..., 0]
    return scale, rot, trans


def procrustes_align(pred: SkeletonPose, truth: SkeletonPose) -> SimilarityTransform:
    """Similarity transform minimizing the summed squared residual to the truth."""
    s, R, t = _similarity_fit(*_joint_stacks(pred, truth))
    return SimilarityTransform(s=float(s[0]), R=R[0], t=t[0])


def pa_mpjpe(pred: PoseLike, truth: PoseLike) -> float:
    """Mean joint error after per-frame Procrustes alignment of pred onto truth."""
    x, y = _joint_stacks(pred, truth)
    s, R, t = _similarity_fit(x, y)
    _check_similarities(s, R)
    aligned = s[:, None, None] * x @ R.swapaxes(1, 2) + t[:, None, :]
    return _mean_joint_distance(aligned, y)


def accuracy(predictions: Sequence, truths: Sequence) -> float:
    """Percentage of matching labels."""
    if len(predictions) != len(truths):
        raise ValueError(f"label counts differ: {len(predictions)} vs {len(truths)}")
    if len(predictions) == 0:
        raise ValueError("accuracy needs at least one prediction")
    correct = sum(1 for p, t in zip(predictions, truths) if p == t)
    return 100.0 * correct / len(predictions)


@dataclass(frozen=True)
class SplitPlan:
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    axis: str

    def __post_init__(self):
        if set(self.train_ids) & set(self.test_ids):
            raise ValueError("train and test ids overlap")


def make_split(axis: str, seed: int) -> SplitPlan:
    """Seeded shuffle then prefix split: subjects 6/4, views 3/2."""
    if axis == "subject":
        universe = list(SUBJECT_IDS)
    elif axis == "view":
        universe = list(VIEW_IDS)
    else:
        raise ValueError(f"axis must be 'subject' or 'view', got {axis!r}")
    n_train, _ = SPLIT_SIZES[axis]
    ids = list(universe)
    Rng(derive_seed(seed, "split", axis)).shuffle(ids)
    return SplitPlan(
        train_ids=tuple(sorted(ids[:n_train])),
        test_ids=tuple(sorted(ids[n_train:])),
        axis=axis,
    )
