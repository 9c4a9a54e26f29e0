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
its own seeded stream.  Each group computes its rows of the dataset's clip
and pose arrays, allocated once, in place; its ball rows are one
``[G, T, 1, 3]`` array.  Only the motion scalars that need ``math.sin`` or
``**`` are Python floats, every other step is elementwise in the per-frame
template's order, and one ``@`` each runs the per-pose and per-row camera
products.  The points are rendered one at a time, in joint order, ball last:
each Gaussian over the ``[G, T, H, W]`` frames is computed in place in one
reused buffer and added in; the sum is then clipped.
The pixel noise is one ``[G, T*H*W]`` draw: SplitMix64 is counter-based, so
row g is stream g's own ``normals(T*H*W)``, which equals T ``normals(H*W)``
draws because Box-Muller takes outputs in pairs and H*W is even.  So clips
and poses are byte-identical to building and rendering each sample frame by
frame.  The dataset is one ``SampleSet`` of read-only arrays; sample i is
its row i, and its ``poses`` are that row's frames as ``SkeletonPose``s.

``augment`` mirrors and rotates a whole [B, C, T, H, W] stack with one gather:
each clip keeps its own scalar draws, ``math.cos`` and ``math.sin``, and the
per-frame index steps in order, so it gets the bits it gets on its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

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
BOX_MARGIN_PX = 1.5  # how far a pose's box reaches past its outermost joint pixels
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
    """A plain record: the generator builds valid samples; the loader checks read ones."""

    clip: np.ndarray  # [1, T, H, W] float64 grayscale in [0, 1]
    joints: np.ndarray  # [T, 5, 3] read-only camera-frame joints, mm
    subject_id: int
    view_id: int
    label: str

    @property
    def poses(self) -> list[SkeletonPose]:
        return SkeletonPose.from_stack(self.joints)

    @property
    def label_index(self) -> int:
        return ACTION_LABELS.index(self.label)


@dataclass(frozen=True)
class SampleSet:
    """N samples as five read-only arrays whose row i is sample i.

    An integer index gives one sample, a ``SyntheticAction`` of row views; a
    slice, an index array or a boolean mask gives a ``SampleSet``.
    """

    clips: np.ndarray  # [N, 1, T, H, W] float64 grayscale in [0, 1]
    joints: np.ndarray  # [N, T, 5, 3] camera-frame joints, mm
    labels: np.ndarray  # [N] indices into ACTION_LABELS
    subject_ids: np.ndarray  # [N]
    view_ids: np.ndarray  # [N]

    def __post_init__(self):
        for field in fields(self):
            view = np.asarray(getattr(self, field.name)).view()
            view.flags.writeable = False
            object.__setattr__(self, field.name, view)

    @classmethod
    def of(cls, samples) -> SampleSet:
        """``samples`` if it is a set, else its sequence of records stacked into one."""
        if isinstance(samples, SampleSet):
            return samples
        records = list(samples)
        return cls(
            np.stack([s.clip for s in records]),
            np.stack([s.joints for s in records]),
            np.array([s.label_index for s in records]),
            np.array([s.subject_id for s in records]),
            np.array([s.view_id for s in records]),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SyntheticAction(
                self.clips[index],
                self.joints[index],
                int(self.subject_ids[index]),
                int(self.view_ids[index]),
                ACTION_LABELS[self.labels[index]],
            )
        return SampleSet(*(getattr(self, field.name)[index] for field in fields(self)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _view_rotation(view_id: int) -> np.ndarray:
    theta = math.radians(_VIEW_ANGLES_DEG[view_id])
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _pixels(x, y, height: int, width: int):
    """Camera-plane millimetres to pixel (column, row): the shorter side spans 1600 mm."""
    mm_per_px = 1600.0 / min(height, width)
    return (width - 1) / 2.0 + x / mm_per_px, (height - 1) * 0.92 - y / mm_per_px


def _render_clip(points: np.ndarray, blobs: list, frames: np.ndarray) -> None:
    """Orthographic render of [G, T, P, 3] points into [G, T, H, W] frames, a blob each."""
    height, width = frames.shape[2:]
    x, y = points[..., :2].transpose(3, 2, 0, 1)  # [P, G, T] each
    px, py = (p[..., None, None] for p in _pixels(x, y, height, width))  # [P, G, T, 1, 1]
    frames.fill(0.0)
    gaussian = np.empty_like(frames)  # one point's blob in every frame, reused point by point
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    for (gain, sigma), qx, qy in zip(blobs, px, py):  # in joint order, ball last
        # gain * exp(-d2 / spread), each step in place
        np.add((rows - qy) ** 2, (cols - qx) ** 2, out=gaussian)
        np.divide(gaussian, -(2.0 * sigma**2), out=gaussian)  # bitwise -(d2 / spread)
        np.exp(gaussian, out=gaussian)
        np.multiply(gain, gaussian, out=gaussian)
        frames += gaussian
    np.clip(frames, 0.0, 1.0, out=frames)


def _make_group(
    subject_id: int, view_id: int, label: str, rngs: list[Rng],
    clips: np.ndarray, joints: np.ndarray,
) -> None:
    """One sample per stream of one (subject, view, class), built, rendered and noised in its
    [G, 1, T, H, W] clip rows and [G, T, 5, 3] joint rows."""
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
    points = np.matmul(build * world, rot_t, out=joints)  # one product per [5, 3] pose
    if label in _BALL_MOTIONS:
        scalar, rest, moves = _BALL_MOTIONS[label]
        motion = np.array([scalar(tau) for tau in taus])  # [T]
        balls = np.full((len(rngs), FRAMES, 1, 3), rest)  # [G, T, 1, 3]: one product per row
        for axis, mm, scaled in moves:
            balls[:, :, 0, axis] += (mm * amp if scaled else mm) * motion
        points = np.concatenate([joints, build * balls @ rot_t], axis=2)
    blobs = [_JOINT_BLOB] * len(JOINT_NAMES) + [_BALL_BLOB] * (points.shape[2] - len(JOINT_NAMES))
    frames = clips[:, 0]
    _render_clip(points, blobs, frames)
    noise = normals_rows(rngs, frames[0].size)
    frames += np.multiply(noise, NOISE, out=noise).reshape(frames.shape)
    np.clip(frames, 0.0, 1.0, out=frames)


def generate_synthetic_dataset(config: DatasetConfig, seed: int) -> SampleSet:
    """Balanced subjects x views x classes x repetitions samples, fully seeded."""
    reps = config.repetitions
    groups = [(s, v, label) for s in SUBJECT_IDS for v in VIEW_IDS for label in ACTION_LABELS]
    clips = np.empty((len(groups) * reps, 1, FRAMES, *FRAME_HW))
    joints = np.empty((len(groups) * reps, FRAMES, len(JOINT_NAMES), 3))
    for g, (subject_id, view_id, label) in enumerate(groups):
        rngs = [
            Rng(derive_seed(seed, "sample", subject_id, view_id, label, rep))
            for rep in range(reps)
        ]
        rows = slice(g * reps, (g + 1) * reps)
        _make_group(subject_id, view_id, label, rngs, clips[rows], joints[rows])
    ids = [(ACTION_LABELS.index(label), s, v) for s, v, label in groups]
    return SampleSet(clips, joints, *np.repeat(ids, reps, axis=0).T)


def pose_bounding_box(joints: np.ndarray, height: int, width: int) -> np.ndarray:
    """[..., 4] (cx, cy, w, h) of the pixel box just past each [J, 3] pose's rendered joints."""
    px, py = _pixels(joints[..., 0], joints[..., 1], height, width)
    lo = np.maximum(np.stack([px.min(-1), py.min(-1)], axis=-1) - BOX_MARGIN_PX, 0.0)
    hi = np.minimum(np.stack([px.max(-1), py.max(-1)], axis=-1) + BOX_MARGIN_PX, (width, height))
    return np.concatenate([(lo + hi) / 2.0, np.maximum(hi - lo, 1.0)], axis=-1)


def _source_pixels(h: int, w: int, flips, angles_deg) -> tuple[np.ndarray, np.ndarray]:
    """[B, 1, H*W] flat source pixels, and whether each is inside its frame, of B frames
    mirrored (``w - 1 - col``) where ``flips``, then rotated nearest-neighbor about the center."""
    thetas = [math.radians(angle) for angle in angles_deg]
    cos_t = np.array([math.cos(theta) for theta in thetas])[:, None, None]  # [B, 1, 1]
    sin_t = np.array([math.sin(theta) for theta in thetas])[:, None, None]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows = np.arange(h)[:, None] - cy
    cols = np.arange(w)[None, :] - cx
    src_r = np.rint(cos_t * rows + sin_t * cols + cy).astype(int)  # [B, H, W]
    src_c = np.rint(-sin_t * rows + cos_t * cols + cx).astype(int)
    valid = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    src_r = np.clip(src_r, 0, h - 1)
    src_c = np.clip(src_c, 0, w - 1)
    src_c = np.where(np.array(flips, dtype=bool)[:, None, None], w - 1 - src_c, src_c)
    shape = (len(thetas), 1, h * w)
    return (src_r * w + src_c).reshape(shape), valid.reshape(shape)


def augment(clips: np.ndarray, seeds) -> np.ndarray:
    """A [B,C,T,H,W] stack, each clip mirrored on a coin flip, then rotated within the limit.

    Clip b draws from ``Rng(seeds[b])``; the stack is validated once."""
    clips = as_tensor(clips)
    if len(seeds) != len(clips):
        raise ValueError(f"{len(seeds)} augmentation seeds for {len(clips)} clips")
    flips, angles = [], []
    for seed in seeds:
        rng = Rng(seed)
        # Two draws stand where a full-frame crop drew its offsets, so every
        # augmentation stream, and so every training run, keeps its bits.
        rng.below(1)
        rng.below(1)
        flips.append(rng.uniform() < FLIP_PROB)
        angles.append((2.0 * rng.uniform() - 1.0) * MAX_ROTATION_DEG)
    b, c, t, h, w = clips.shape
    index, valid = _source_pixels(h, w, flips, angles)
    frames = np.take_along_axis(clips.reshape(b, c * t, h * w), index, axis=2)
    return np.where(valid, frames, 0.0).reshape(clips.shape)
