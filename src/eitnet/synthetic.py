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
consecutive in the output.  Each draws its amplitude, then its phase, from
its own seeded stream.  The group's poses are one ``[G, T, 5, 3]`` array and
its ball rows one ``[G, T, 1, 3]`` array; only the motion scalars that need
``math.sin`` or ``**`` are Python floats, every other step is elementwise in
the per-frame template's order, and one ``@`` each runs the per-pose and
per-row camera products.  Every point's Gaussian over ``[P, G, T, H, W]`` is
one ``exp``, added into the frames in joint order, ball last, then clipped.
The pixel noise is one ``[G, T*H*W]`` draw: SplitMix64 is counter-based, so
row g is stream g's own ``normals(T*H*W)``, which equals T ``normals(H*W)``
draws because Box-Muller takes outputs in pairs and H*W is even.  So clips
and poses are byte-identical to building and rendering each sample frame by
frame.  Each sample's ``[T, 5, 3]`` poses are checked once (``from_stack``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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

# Per class: the motion scalar of (tau, phase) each frame, and the joint
# coordinates it drives, {(joint, axis): mm at unit amplitude}.
_MOTIONS = {
    "dribble": (lambda tau, phase: abs(math.sin(2.0 * math.pi * (2.0 * tau + phase))),
                {(1, 1): -380.0, (2, 1): -380.0}),  # both hands pump downward
    "shoot": (lambda tau, phase: max(tau + phase, 0.0) ** 1.5,  # hands rise and meet overhead
              {(1, 1): 540.0, (2, 1): 540.0, (1, 0): 150.0, (2, 0): -150.0, (0, 1): 60.0}),
    "pass": (lambda tau, phase: math.sin(math.pi * (tau + phase)),  # hands spread and return
             {(1, 0): -440.0, (2, 0): 440.0, (1, 1): 80.0, (2, 1): 80.0}),
    "jump": (lambda tau, phase: math.sin(math.pi * (tau + phase)),  # the body rises and lands
             {(joint, 1): 430.0 for joint in range(5)}),
}
# Per class: the ball's scalar of tau, its world position at rest, and the axes
# it moves, [(axis, mm, whether that scales with amplitude)].  A jump has no ball.
_BALL_MOTIONS = {
    "dribble": (lambda tau: abs(math.sin(2.0 * math.pi * 2.0 * tau)), (0.0, 400.0, 80.0),
                [(1, -360.0, True)]),
    "shoot": (lambda tau: tau**1.5, (0.0, 560.0, 60.0), [(1, 840.0, True)]),
    "pass": (lambda tau: math.sin(math.pi * tau), (0.0, 520.0, 60.0),
             [(1, 90.0, False), (2, 500.0, True)]),
}

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
        try:
            self.repetitions = operator.index(self.repetitions)
        except TypeError:
            raise ValueError(f"repetitions must be an integer, got {self.repetitions!r}") from None
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


def _view_rotation(view_id: int) -> np.ndarray:
    theta = math.radians(_VIEW_ANGLES_DEG[view_id])
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _pixels(x, y, height: int, width: int):
    """Camera-plane millimetres to pixel (column, row): the shorter side spans 1600 mm."""
    mm_per_px = 1600.0 / min(height, width)
    return (width - 1) / 2.0 + x / mm_per_px, (height - 1) * 0.92 - y / mm_per_px


def _render_clip(points: np.ndarray, blobs: list, height: int, width: int) -> np.ndarray:
    """Orthographic render of [G, T, P, 3] points to [G, 1, T, H, W], a (gain, sigma) blob each."""
    gain = np.array([g for g, _ in blobs])[:, None, None, None, None]
    spread = np.array([2.0 * sigma**2 for _, sigma in blobs])[:, None, None, None, None]
    x, y = points[..., :2].transpose(3, 2, 0, 1)  # [P, G, T] each
    px, py = (p[..., None, None] for p in _pixels(x, y, height, width))  # [P, G, T, 1, 1]
    # The frames outlive the call as the group's clips.  Allocating them before
    # the [P, G, T, H, W] temporaries, and computing those in place, keeps the
    # heap from fragmenting across datasets (peak RSS of repeated generation).
    frames = np.zeros((*points.shape[:2], height, width))
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    # gain * exp(-d2 / spread), each step in place
    gaussians = (rows - py) ** 2 + (cols - px) ** 2
    np.divide(gaussians, -spread, out=gaussians)  # bitwise -(d2 / spread)
    np.exp(gaussians, out=gaussians)
    np.multiply(gain, gaussians, out=gaussians)
    for gaussian in gaussians:  # one point at a time, in joint order, ball last
        frames += gaussian
    return np.clip(frames, 0.0, 1.0, out=frames)[:, None]


def _make_group(
    subject_id: int, view_id: int, label: str, rngs: list[Rng]
) -> list[SyntheticAction]:
    """One sample per stream of one (subject, view, class), built, rendered and noised at once."""
    build = 0.85 + 0.03 * (subject_id - 1)
    rot_t = _view_rotation(view_id).T
    taus = [t / (FRAMES - 1) for t in range(FRAMES)]
    draws = [(1.0 + 0.12 * (rng.uniform() - 0.5), 0.08 * (rng.uniform() - 0.5)) for rng in rngs]
    amp = np.array([a for a, _ in draws])[:, None]  # [G, 1]
    scalar, moves = _MOTIONS[label]
    motion = np.array([[scalar(tau, phase) for tau in taus] for _, phase in draws])  # [G, T]
    world = np.full((len(rngs), FRAMES, *_BASE_JOINTS_MM.shape), _BASE_JOINTS_MM)
    for (joint, axis), mm in moves.items():  # rest + offset, the per-frame template's sum
        world[:, :, joint, axis] += (mm * amp) * motion
    cameras = build * world @ rot_t  # [G, T, 5, 3]: one product per [5, 3] pose
    points = cameras
    if label in _BALL_MOTIONS:
        scalar, rest, moves = _BALL_MOTIONS[label]
        motion = np.array([scalar(tau) for tau in taus])  # [T]
        balls = np.full((len(rngs), FRAMES, 1, 3), rest)  # [G, T, 1, 3]: one product per row
        for axis, mm, scaled in moves:
            balls[:, :, 0, axis] += (mm * amp if scaled else mm) * motion
        points = np.concatenate([cameras, build * balls @ rot_t], axis=2)
    blobs = [_JOINT_BLOB] * len(JOINT_NAMES) + [_BALL_BLOB] * (points.shape[2] - len(JOINT_NAMES))
    frames = _render_clip(points, blobs, *FRAME_HW)
    noise = normals_rows(rngs, frames[0].size)
    frames += np.multiply(noise, NOISE, out=noise).reshape(frames.shape)
    clips = np.clip(frames, 0.0, 1.0, out=frames)
    return [
        SyntheticAction(clip, SkeletonPose.from_stack(camera), subject_id, view_id, label)
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
    px, py = _pixels(joints[..., 0], joints[..., 1], height, width)
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
