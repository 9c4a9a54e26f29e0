"""Synthetic multi-view action clips standing in for the non-public datasets.

Each sample is a five-joint figure (head, two hands, two feet) whose motion
follows a per-class template: a dribble bounces one hand at high frequency,
a shot raises both hands steadily, a pass sweeps the hands sideways, and a
jump translates the whole body up and down.  Subjects vary in build, motion
amplitude and phase; each camera view applies a rigid rotation about the
vertical axis before orthographic rendering to small grayscale frames with
Gaussian joint blobs and seeded pixel noise.  Ground-truth pose sequences
are the camera-frame joint coordinates in millimeters.

The samples of one (subject, view, class) form a group: they share the
build, the view rotation and the point count (a ball or none), and they are
consecutive in the output.  Each keeps its own seeded stream for its
amplitude and phase, its scalar motion templates and its own camera
product, so its poses are bitwise those of a sample built alone.  The group
is rendered in one pass: its camera-frame points are one ``[G, T, P, 3]``
stack, every point's Gaussian over ``[P, G, T, H, W]`` is one ``exp``, and
the points are added into the frames one at a time in joint order, ball
last, before the clips are clipped to [0, 1].  The pixel noise is one
``[G, T*H*W]`` draw.  SplitMix64 is counter-based (output k of a stream is
``mix(state + (k+1)*INCREMENT)``), so one counter array gives every stream's
next T*H*W outputs, and Box-Muller is elementwise on their pairs: row g
equals stream g's own ``normals(T*H*W)``.  That draw equals T per-frame
``normals(H*W)`` draws because Box-Muller takes the raw outputs in pairs and
H*W is even.  Every step is elementwise or keeps the per-frame renderer's
order of summation, so clips and poses are byte-identical to rendering each
sample frame by frame.  The pose checks run once per sample on its
``[T, 5, 3]`` stack (``SkeletonPose.from_stack``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ACTION_LABELS, FRAME_HW, FRAMES, JOINT_NAMES
from .metrics import SUBJECT_IDS, VIEW_IDS, SkeletonPose
from .rng import Rng, derive_seed, normals_rows
from .tensorops import as_tensor

_BASE_JOINTS_MM = np.array(
    [
        [0.0, 900.0, 0.0],  # head
        [-250.0, 500.0, 60.0],  # left hand
        [250.0, 500.0, 60.0],  # right hand
        [-150.0, 0.0, 0.0],  # left foot
        [150.0, 0.0, 0.0],  # right foot
    ]
)

_VIEW_ANGLES_DEG = {1: -40.0, 2: -20.0, 3: 0.0, 4: 20.0, 5: 40.0}

_JOINT_BLOB = (1.0, 1.3)  # (gain, sigma in pixels) of a joint's rendered blob
_BALL_BLOB = (1.4, 1.6)  # the ball is brighter and wider


NOISE = 0.02  # standard deviation of the Gaussian pixel noise
FLIP_PROB = 0.5  # augmentation: chance of a horizontal mirror
MAX_ROTATION_DEG = 15.0  # augmentation: largest rotation either way

# The clip's noise is one draw of T*H*W normals.  Box-Muller turns raw
# outputs into normals in pairs, so that draw equals T draws of H*W normals
# only when H*W is even; an odd count would shift every frame after the first.
if FRAME_HW[0] * FRAME_HW[1] % 2:
    raise RuntimeError(f"FRAME_HW {FRAME_HW} must have an even pixel count")


@dataclass
class DatasetConfig:
    repetitions: int = 2

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class SyntheticAction:
    clip: np.ndarray  # [1, T, H, W] grayscale in [0, 1]
    poses: list[SkeletonPose]  # camera-frame joints, mm, one per frame
    subject_id: int
    view_id: int
    label: str

    def __post_init__(self):
        self.clip = as_tensor(self.clip)
        expected = (1, FRAMES, *FRAME_HW)
        if self.clip.shape != expected:
            raise ValueError(
                f"clip must be [1, T, H, W], got shape {self.clip.shape}, expected {expected}"
            )
        if self.label not in ACTION_LABELS:
            raise ValueError(f"label must be one of {ACTION_LABELS}, got {self.label!r}")
        if self.subject_id not in SUBJECT_IDS or self.view_id not in VIEW_IDS:
            raise ValueError("subject_id must be 1..10 and view_id 1..5")
        if [pose.count for pose in self.poses] != [len(JOINT_NAMES)] * FRAMES:
            raise ValueError(f"need {FRAMES} poses of {len(JOINT_NAMES)} joints, one per frame")

    @property
    def label_index(self) -> int:
        return ACTION_LABELS.index(self.label)


def _motion_template(label: str, tau: float, amp: float, phase: float) -> np.ndarray:
    """Joint offsets (mm) at normalized time tau in [0, 1]."""
    offsets = np.zeros((5, 3))
    if label == "dribble":
        bounce = abs(math.sin(2.0 * math.pi * (2.0 * tau + phase)))
        offsets[1, 1] = -380.0 * amp * bounce  # both hands pump downward
        offsets[2, 1] = -380.0 * amp * bounce
    elif label == "shoot":
        rise = (max(tau + phase, 0.0)) ** 1.5
        offsets[1, 1] = 540.0 * amp * rise
        offsets[2, 1] = 540.0 * amp * rise
        offsets[1, 0] = 150.0 * amp * rise  # hands come together overhead
        offsets[2, 0] = -150.0 * amp * rise
        offsets[0, 1] = 60.0 * amp * rise
    elif label == "pass":
        spread = math.sin(math.pi * (tau + phase))
        offsets[1, 0] = -440.0 * amp * spread  # hands spread apart and return
        offsets[2, 0] = 440.0 * amp * spread
        offsets[1, 1] = 80.0 * amp * spread
        offsets[2, 1] = 80.0 * amp * spread
    elif label == "jump":
        lift = math.sin(math.pi * (tau + phase))
        offsets[:, 1] += 430.0 * amp * lift  # whole body rises and lands
    else:
        raise ValueError(f"unknown label {label!r}")
    return offsets


def _view_rotation(view_id: int) -> np.ndarray:
    theta = math.radians(_VIEW_ANGLES_DEG[view_id])
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _ball_position(label: str, tau: float, amp: float) -> np.ndarray | None:
    """World-space ball center per class; a jump carries no ball."""
    if label == "dribble":
        bounce = abs(math.sin(2.0 * math.pi * 2.0 * tau))
        return np.array([0.0, 400.0 - 360.0 * amp * bounce, 80.0])
    if label == "shoot":
        rise = tau**1.5
        return np.array([0.0, 560.0 + 840.0 * amp * rise, 60.0])
    if label == "pass":
        spread = math.sin(math.pi * tau)
        return np.array([0.0, 520.0 + 90.0 * spread, 60.0 + 500.0 * amp * spread])
    return None


def _render_clip(points: np.ndarray, blobs: list, height: int, width: int) -> np.ndarray:
    """Orthographic render of [G, T, P, 3] points to [G, 1, T, H, W], a (gain, sigma) blob each."""
    mm_per_px = 1600.0 / min(height, width)
    gain = np.array([g for g, _ in blobs])[:, None, None, None, None]
    spread = np.array([2.0 * sigma**2 for _, sigma in blobs])[:, None, None, None, None]
    x, y = np.moveaxis(points[..., :2], (3, 2), (0, 1))  # [P, G, T] each
    px = ((width - 1) / 2.0 + x / mm_per_px)[..., None, None]  # [P, G, T, 1, 1]
    py = ((height - 1) * 0.92 - y / mm_per_px)[..., None, None]
    # The frames outlive the call as the group's clips.  Allocating them before
    # the [P, G, T, H, W] temporaries, and computing those in place, keeps the
    # heap from fragmenting across datasets (peak RSS of repeated generation).
    frames = np.zeros((*points.shape[:2], height, width))
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    # gain * exp(-d2 / spread), each step in place
    gaussians = (rows - py) ** 2 + (cols - px) ** 2
    np.negative(gaussians, out=gaussians)
    np.divide(gaussians, spread, out=gaussians)
    np.exp(gaussians, out=gaussians)
    np.multiply(gain, gaussians, out=gaussians)
    for gaussian in gaussians:  # one point at a time, in joint order, ball last
        frames += gaussian
    return np.clip(frames, 0.0, 1.0, out=frames)[:, None]


def _make_group(
    subject_id: int, view_id: int, label: str, rngs: list[Rng]
) -> list[SyntheticAction]:
    """One sample per stream of one (subject, view, class), rendered and noised in one pass."""
    build = 0.85 + 0.03 * (subject_id - 1)
    rot_t = _view_rotation(view_id).T
    taus = [t / (FRAMES - 1) for t in range(FRAMES)]
    cameras, points = [], []
    for rng in rngs:
        amp = 1.0 + 0.12 * (rng.uniform() - 0.5)
        phase = 0.08 * (rng.uniform() - 0.5)
        offsets = np.stack([_motion_template(label, tau, amp, phase) for tau in taus])
        camera = build * (_BASE_JOINTS_MM + offsets) @ rot_t  # [T, 5, 3]
        cameras.append(camera)
        balls = [_ball_position(label, tau, amp) for tau in taus]
        if balls[0] is not None:  # [T, 1, 3] rows keep one vector-matrix product per frame
            camera = np.concatenate([camera, build * np.stack(balls)[:, None] @ rot_t], axis=1)
        points.append(camera)
    points = np.stack(points)  # [G, T, P, 3]
    blobs = [_JOINT_BLOB] * len(JOINT_NAMES) + [_BALL_BLOB] * (points.shape[2] - len(JOINT_NAMES))
    frames = _render_clip(points, blobs, *FRAME_HW)
    frames += NOISE * normals_rows(rngs, frames[0].size).reshape(frames.shape)
    clips = np.clip(frames, 0.0, 1.0, out=frames)
    return [
        SyntheticAction(
            clip=clip,
            poses=SkeletonPose.from_stack(camera),
            subject_id=subject_id,
            view_id=view_id,
            label=label,
        )
        for clip, camera in zip(clips, cameras)
    ]


def generate_synthetic_dataset(config: DatasetConfig, seed: int) -> list[SyntheticAction]:
    """Balanced subjects x views x classes x repetitions samples, fully seeded."""
    samples = []
    for subject_id in SUBJECT_IDS:
        for view_id in VIEW_IDS:
            for label in ACTION_LABELS:
                rngs = [
                    Rng(derive_seed(seed, "sample", subject_id, view_id, label, rep))
                    for rep in range(config.repetitions)
                ]
                samples += _make_group(subject_id, view_id, label, rngs)
    return samples


def pose_bounding_box(joints: np.ndarray, height: int, width: int, margin_px=1.5) -> np.ndarray:
    """[..., 4] (cx, cy, w, h) of the tight pixel box around each [J, 3] pose's rendered joints."""
    mm_per_px = 1600.0 / min(height, width)
    px = (width - 1) / 2.0 + joints[..., 0] / mm_per_px
    py = (height - 1) * 0.92 - joints[..., 1] / mm_per_px
    lo = np.maximum(np.stack([px.min(-1), py.min(-1)], axis=-1) - margin_px, 0.0)
    hi = np.minimum(np.stack([px.max(-1), py.max(-1)], axis=-1) + margin_px, (width, height))
    return np.concatenate([(lo + hi) / 2.0, np.maximum(hi - lo, 1.0)], axis=-1)


def horizontal_flip(clip: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(clip[..., ::-1])


def rotate_frames(clip: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate every frame about its center, nearest-neighbor, zeros outside."""
    if angle_deg == 0.0:
        return clip.copy()
    h, w = clip.shape[2:]
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows = np.arange(h)[:, None] - cy
    cols = np.arange(w)[None, :] - cx
    src_r = np.rint(cos_t * rows + sin_t * cols + cy).astype(int)
    src_c = np.rint(-sin_t * rows + cos_t * cols + cx).astype(int)
    valid = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    src_r_safe = np.clip(src_r, 0, h - 1)
    src_c_safe = np.clip(src_c, 0, w - 1)
    return np.ascontiguousarray(np.where(valid, clip[..., src_r_safe, src_c_safe], 0.0))


def augment(clip: np.ndarray, seed: int) -> np.ndarray:
    """Seeded coin-flip horizontal mirror, then rotation within the limit.

    The clip is validated here once; the two steps trust their input.
    """
    rng = Rng(seed)
    # Two draws stand where a full-frame crop drew its offsets, so every
    # augmentation stream, and so every training run, keeps its bits.
    rng.below(1)
    rng.below(1)
    out = as_tensor(clip)
    if rng.uniform() < FLIP_PROB:
        out = horizontal_flip(out)
    angle = (2.0 * rng.uniform() - 1.0) * MAX_ROTATION_DEG
    return rotate_frames(out, angle)
