"""Detection stage: multi-scale feature fusion, box regression, loss, NMS, crops.

A fixed three-level convolution stack stands in for the backbone.  Its
pyramid levels, 16, 8 and 4 pixels wide for 16x16 frames, meet at the
coarsest extent by strided selection (every 4th, 2nd and 1st cell: the
nearest-neighbour center rule at those integer ratios) and are summed with
fast normalized fusion weights, raw_i / (sum_j raw_j + eps).  A
fully-connected head scales the module's four anchors through a sigmoid gate
(predicted extents can never exceed the anchor, a documented limitation of
the gating form), and greedy NMS picks the surviving boxes.

Between stages everything is a plain array over the whole clip: pyramid
levels are [C,T,h,w], anchors [A, 4] and predicted boxes [T, A, 4] rows of
(cx, cy, w, h) with [T, A] scores, and one NMS call covers every frame.  The
crop boxes are one [T, 5] array of (cx, cy, w, h, score) rows, and one gather
crops the whole clip to them; ``crop_region`` checks those boxes, since its
callers pass them in.  ``BoundingBox`` checks one box's extents and score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import FRAME_HW
from .rng import Rng
from .tensorops import ConvSpec, as_tensor, conv3d, linear, relu, sigmoid


@dataclass(frozen=True)
class BoundingBox:
    """Center-format pixel box with a confidence score."""

    cx: float
    cy: float
    w: float
    h: float
    score: float = 1.0

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "score"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extents must be positive, got w={self.w}, h={self.h}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class DetectionLossParts:
    cls: float
    reg: float
    lam: float

    def __post_init__(self):
        if self.cls < 0 or self.reg < 0 or self.lam < 0:
            raise ValueError("loss parts and lambda must be nonnegative")

    @property
    def total(self) -> float:
        return self.cls + self.lam * self.reg


def _center_index(n, out: int) -> np.ndarray:
    """Center rule, [..., out]: sample i of n cells reads min(floor((i + 0.5) * n / out), n - 1)."""
    n = np.asarray(n)[..., None]
    return np.minimum(((np.arange(out) + 0.5) * n / out).astype(int), n - 1)


def detection_loss(
    pred_scores: np.ndarray,
    true_labels: np.ndarray,
    pred_boxes: np.ndarray,
    true_boxes: np.ndarray,
    lam: float = 1.0,
) -> DetectionLossParts:
    """Mean cross-entropy over matched anchors plus lambda times mean smooth-L1.

    Scores are [N, K], labels [N] and boxes [N, 4] rows of (cx, cy, w, h).
    Both means divide running sums taken in match order.
    """
    if np.size(true_labels) == 0 or np.size(pred_scores) == 0:
        raise ValueError("empty match set")
    pred_scores = np.atleast_2d(as_tensor(pred_scores))
    n = pred_scores.shape[0]
    if np.shape(true_labels) != (n,) or not np.shape(pred_boxes) == np.shape(true_boxes) == (n, 4):
        raise ValueError(f"matched inputs must be {n} labels and two [{n}, 4] box arrays")
    cls = 0.0
    for p in np.maximum(pred_scores[np.arange(n), true_labels], 1e-300).tolist():
        cls -= math.log(p)  # np.log may differ from math.log in the last bit
    d = (np.asarray(pred_boxes, dtype=np.float64) - true_boxes).ravel()
    a = np.abs(d)
    reg = np.add.accumulate(np.where(a < 1.0, 0.5 * d * d, a - 0.5))[-1] / (4 * n)
    return DetectionLossParts(cls=float(cls / n), reg=float(reg), lam=float(lam))


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> list[list[int]]:
    """Greedy suppression over every frame of [T, A, 4] boxes with [T, A] scores.

    Each frame's boxes are ranked by descending score, then ascending cx
    (stable), and a box is kept when its IoU with every kept box is at most
    the threshold.  Returns each frame's kept anchor indices in rank order.
    """
    order = np.lexsort((boxes[..., 0], -scores))  # [T, A]
    lo = boxes[..., :2] - boxes[..., 2:] / 2.0  # (x0, y0)
    hi = boxes[..., :2] + boxes[..., 2:] / 2.0  # (x1, y1)
    sides = np.minimum(hi[:, :, None], hi[:, None]) - np.maximum(lo[:, :, None], lo[:, None])
    inter = np.maximum(sides, 0.0).prod(axis=-1)  # [T, A, A]
    area = boxes[..., 2] * boxes[..., 3]
    table = (inter / (area[:, :, None] + area[:, None] - inter)).tolist()  # IoU
    kept = []
    for frame_order, frame_iou in zip(order.tolist(), table):
        keep: list[int] = []
        for i in frame_order:
            if all(frame_iou[i][k] <= iou_threshold for k in keep):
                keep.append(i)
        kept.append(keep)
    return kept


def crop_region(clip: np.ndarray, boxes: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Crop each [C,T,H,W] frame to its clamped box row in one gather: [C,T,out_h,out_w]."""
    clip = np.asarray(clip, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64)
    c, t, h, w = clip.shape
    if boxes.ndim != 2 or boxes.shape[1] < 4 or len(boxes) != t:
        raise ValueError(f"{len(boxes)} boxes for a clip of {t} frames, need [{t}, >=4] rows")
    if min(out_hw) < 1:
        raise ValueError("output extents must be positive")
    centers, extents = boxes[:, :2], boxes[:, 2:4]
    start = np.maximum(np.floor(centers - extents / 2.0), 0.0)  # (c0, r0)
    stop = np.minimum(np.ceil(centers + extents / 2.0), (w, h))  # (c1, r1)
    ok = ((stop > start) & (extents > 0.0) & np.isfinite(centers + extents)).all(axis=1)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"frame {k} box {boxes[k].tolist()} does not intersect a {h}x{w} frame")
    start, stop = start.astype(int), stop.astype(int)
    rows = start[:, 1:] + _center_index(stop[:, 1] - start[:, 1], out_hw[0])  # [T, out_h]
    cols = start[:, :1] + _center_index(stop[:, 0] - start[:, 0], out_hw[1])  # [T, out_w]
    flat = (np.arange(t)[:, None, None] * h + rows[:, :, None]) * w + cols[:, None, :]
    return np.take(clip.reshape(c, -1), flat, axis=1)


SAME_CONV = ConvSpec(kernel=(1, 3, 3), padding=(0, 1, 1))
DOWN_CONV = ConvSpec(kernel=(1, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1))
# Backbone convs, fine to coarse and without bias: the weight each level reads
# and the spec it runs with.
PYRAMID_CONVS = (("conv1", SAME_CONV), ("conv2", DOWN_CONV), ("conv3", DOWN_CONV))
IN_CHANNELS = 1  # grayscale clips
CHANNELS = 4  # of every backbone level
FUSED_HW = (FRAME_HW[0] // 4, FRAME_HW[1] // 4)  # the levels meet at the coarsest extent
IOU_THRESHOLD = 0.5  # NMS drops a box overlapping a kept one by more than this
FUSION_EPS = 1e-4  # keeps the fusion weights' normalizing sum positive
_H, _W = FRAME_HW
ANCHORS = np.array(  # [A, 4] rows of (cx, cy, w, h), read-only and shared by every Detector
    [
        (_W / 2, _H / 2, _W, _H),
        (_W / 2, _H / 2, 0.75 * _W, 0.75 * _H),
        (_W / 3, _H / 3, 0.6 * _W, 0.6 * _H),
        (2 * _W / 3, 2 * _H / 3, 0.6 * _W, 0.6 * _H),
    ],
    dtype=np.float64,
)
ANCHORS.setflags(write=False)


@dataclass
class Detector:
    """Toy three-level backbone with fusion, score and box heads for ``FRAME_HW`` frames.

    Weights are drawn from the seeded stream at construction; nothing here is
    trained, and the seed alone identifies them. Clips enter as [C,T,H,W] and
    every stage runs on all T frames at once; detect() returns each frame's
    NMS survivors.  best_box() takes a [B,C,T,H,W] stack and joins its clips
    on the T axis.
    """

    seed: int = 0
    _weights: dict = field(init=False, repr=False)

    def __post_init__(self):
        rng = Rng(self.seed)
        c, a = CHANNELS, len(ANCHORS)
        feat_dim = c * FUSED_HW[0] * FUSED_HW[1]
        scale = 1.0 / math.sqrt(9 * max(IN_CHANNELS, c))
        self._weights = {
            "conv1": rng.normals(c * IN_CHANNELS * 9).reshape(c, IN_CHANNELS, 1, 3, 3)
            * scale,
            "conv2": rng.normals(c * c * 9).reshape(c, c, 1, 3, 3) * scale,
            "conv3": rng.normals(c * c * 9).reshape(c, c, 1, 3, 3) * scale,
            "fusion": np.ones(3),
            "reg_w": rng.normals(feat_dim * 4 * a).reshape(feat_dim, 4 * a) / math.sqrt(feat_dim),
            "reg_b": np.zeros(4 * a),
            "score_w": rng.normals(feat_dim * a).reshape(feat_dim, a) / math.sqrt(feat_dim),
            "score_b": np.zeros(a),
        }

    def pyramid(self, clip: np.ndarray) -> list[np.ndarray]:
        """[C,T,H,W] clip to coarse-to-fine [C,T,h,w] levels; the kt=1 convs keep frames apart."""
        x = clip
        levels = []
        for name, spec in PYRAMID_CONVS:
            x = relu(conv3d(x, self._weights[name], spec))
            levels.insert(0, x)
        return levels

    def fuse(self, levels: list[np.ndarray]) -> np.ndarray:
        """Coarse-to-fine [C,T,h,w] levels to their [C,T,*FUSED_HW] weighted sum.

        A level s times finer than ``FUSED_HW`` contributes every s-th cell
        from s // 2 on, the center rule's pick at an integer ratio.  The sum
        starts from zeros and adds the levels coarse to fine, so the sign of
        every zero is that of the level-by-level sum.
        """
        raw = self._weights["fusion"]
        alpha = raw / (raw.sum() + FUSION_EPS)
        out = np.zeros_like(levels[0])
        for a, lv in zip(alpha, levels):
            s = lv.shape[-1] // FUSED_HW[1]
            out += a * lv[..., s // 2 :: s, s // 2 :: s]
        return out

    def detect(self, clip: np.ndarray) -> list[np.ndarray]:
        """Each frame's NMS survivors of a [C,T,H,W] clip: [K, 5] rows of (cx, cy, w, h, score)."""
        fused = self.fuse(self.pyramid(clip))  # [C, T, h, w]
        rows = fused.transpose(1, 0, 2, 3).reshape(fused.shape[1], 1, -1)  # [T, 1, feat]
        w = self._weights
        scores = sigmoid(linear(rows, w["score_w"], w["score_b"])[:, 0])
        logits = linear(rows, w["reg_w"], w["reg_b"])[:, 0].reshape(-1, len(ANCHORS), 4)
        boxes = np.clip(sigmoid(logits), 1e-12, 1.0) * ANCHORS  # gates in (0, 1] scale anchors
        found = np.concatenate([boxes, scores[..., None]], axis=-1)  # [T, A, 5]
        return [f[keep] for f, keep in zip(found, nms(boxes, scores, IOU_THRESHOLD))]

    def best_box(self, clips: np.ndarray) -> np.ndarray:
        """[B, T, 5] rows: each frame's top surviving box.

        Greedy NMS always keeps a frame's first-ranked box, so every frame has
        one.  The [B,C,T,H,W] stack runs as one clip of B*T frames: the convs
        have kt=1 and every later stage works frame by frame, so no frame sees
        another clip's.
        """
        b, c, t, h, w = clips.shape
        kept = self.detect(clips.swapaxes(0, 1).reshape(c, b * t, h, w))
        return np.array([k[0] for k in kept]).reshape(b, t, 5)

    def parameters(self) -> dict[str, np.ndarray]:
        """Every weight array by name; the three fusion weights are one array."""
        return dict(self._weights)


def full_frame_box(frame_hw: tuple[int, int]) -> np.ndarray:
    """The whole frame as one (cx, cy, w, h, score) row, with score 1."""
    h, w = frame_hw
    return np.array([w / 2.0, h / 2.0, w, h, 1.0])


DETECTION_CSV_HEADER = "frame_id,camera_id,class_id,score,cx,cy,w,h"


def detection_csv_row(frame_id: int, camera_id: int, box: list[float]) -> str:
    """One detection row from a (cx, cy, w, h, score) box of the single class 0."""
    cx, cy, w, h, score = map(float, box)
    return f"{frame_id},{camera_id},0,{score!r},{cx!r},{cy!r},{w!r},{h!r}"
