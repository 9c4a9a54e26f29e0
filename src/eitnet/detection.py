"""Detection stage: multi-scale feature fusion, box regression, loss, NMS, crops.

A fixed three-level stride-2 convolution stack stands in for the backbone;
its pyramid levels are fused with normalized nonnegative weights, a small
fully-connected head regresses per-anchor boxes through a sigmoid gate
(predicted extents can never exceed the anchor, a documented limitation of
the gating form), and greedy NMS picks the surviving boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng
from .tensorops import ConvSpec, as_tensor, conv3d, linear, relu, sigmoid


@dataclass(frozen=True)
class BoundingBox:
    """Center-format pixel box with a confidence score and class id."""

    cx: float
    cy: float
    w: float
    h: float
    score: float = 1.0
    class_id: int = 0

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "score"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extents must be positive, got w={self.w}, h={self.h}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")

    def corners(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )


@dataclass
class FeaturePyramid:
    """Ordered coarse-to-fine feature maps with matching channel counts."""

    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("pyramid needs at least two levels")
        self.levels = [np.asarray(lv, dtype=np.float64) for lv in self.levels]
        channels = {lv.shape[0] for lv in self.levels}
        if len(channels) != 1:
            raise ValueError(f"pyramid levels must share a channel count, got {channels}")


@dataclass(frozen=True)
class FusionWeights:
    """Nonnegative raw fusion weights normalized as w_i / (sum_j w_j + eps)."""

    raw: tuple[float, ...]
    eps: float = 1e-4

    def __post_init__(self):
        if any(w < 0 for w in self.raw):
            raise ValueError("fusion weights must be nonnegative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def normalized(self) -> np.ndarray:
        raw = np.asarray(self.raw, dtype=np.float64)
        return raw / (raw.sum() + self.eps)


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


def resample_nearest(feature: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resample of [..., H, W] to [..., out_h, out_w] (center rule)."""
    feature = np.asarray(feature, dtype=np.float64)
    in_h, in_w = feature.shape[-2:]
    out_h, out_w = out_hw
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be positive")
    rows = np.minimum(((np.arange(out_h) + 0.5) * in_h / out_h).astype(int), in_h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * in_w / out_w).astype(int), in_w - 1)
    return np.ascontiguousarray(feature[..., rows[:, None], cols[None, :]])


def bifpn_fuse(pyramid: FeaturePyramid, weights: FusionWeights) -> np.ndarray:
    """Weighted sum of same-extent pyramid levels using normalized weights."""
    shapes = {lv.shape for lv in pyramid.levels}
    if len(shapes) != 1:
        raise ValueError(f"levels must be resampled to a common extent, got {shapes}")
    if len(weights.raw) != len(pyramid.levels):
        raise ValueError(
            f"{len(weights.raw)} weights for {len(pyramid.levels)} levels"
        )
    alpha = weights.normalized()
    out = np.zeros_like(pyramid.levels[0])
    for a, level in zip(alpha, pyramid.levels):
        out += a * level
    return out


def level_attention(current: np.ndarray, previous: np.ndarray, eps: float) -> np.ndarray:
    """Elementwise ratio of the current level to the previous level plus eps."""
    current = as_tensor(current)
    previous = as_tensor(previous)
    if current.shape != previous.shape:
        raise ValueError(f"shape mismatch: {current.shape} vs {previous.shape}")
    return current / (previous + eps)


def predict_boxes(
    fused: np.ndarray,
    reg_weight: np.ndarray,
    reg_bias: np.ndarray,
    anchors: list[BoundingBox],
    scores: np.ndarray,
) -> list[list[BoundingBox]]:
    """Sigmoid-gated regression rescaling each anchor coordinatewise, per frame.

    ``fused`` is [T, ...] with one frame per row, ``scores`` the [T, A] box
    scores.  Each row is its own [1, feat] product, so it rounds exactly as a
    one-frame call would (a [T, feat] matrix product does not).
    """
    fused = np.asarray(fused, dtype=np.float64)
    logits = linear(fused.reshape(fused.shape[0], 1, -1), reg_weight, reg_bias)[:, 0]
    if logits.shape[1] != 4 * len(anchors):
        raise ValueError(
            f"regression head emits {logits.shape[1]} values, need 4 per anchor "
            f"for {len(anchors)} anchors"
        )
    if np.shape(scores) != (len(logits), len(anchors)):
        raise ValueError(f"scores must be [{len(logits)}, {len(anchors)}], got {np.shape(scores)}")
    gates = np.clip(sigmoid(logits.reshape(-1, len(anchors), 4)), 1e-12, 1.0)
    return [
        [
            BoundingBox(g[0] * a.cx, g[1] * a.cy, g[2] * a.w, g[3] * a.h, s, a.class_id)
            for g, a, s in zip(frame_gates, anchors, frame_scores)
        ]
        for frame_gates, frame_scores in zip(gates, scores)
    ]


def detection_loss(
    pred_scores: np.ndarray,
    true_labels: list[int],
    pred_boxes: list[BoundingBox],
    true_boxes: list[BoundingBox],
    lam: float = 1.0,
) -> DetectionLossParts:
    """Mean cross-entropy over matched anchors plus lambda times mean smooth-L1."""
    if len(true_labels) == 0 or np.size(pred_scores) == 0:
        raise ValueError("empty match set")
    pred_scores = np.atleast_2d(as_tensor(pred_scores))
    n = pred_scores.shape[0]
    if not (n == len(true_labels) == len(pred_boxes) == len(true_boxes)):
        raise ValueError("matched inputs must have equal lengths")
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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def nms(boxes: list[BoundingBox], iou_threshold: float) -> list[BoundingBox]:
    """Greedy suppression of boxes overlapping a kept box by more than the threshold."""
    ordered = sorted(boxes, key=lambda b: (-b.score, b.class_id, b.cx))
    kept: list[BoundingBox] = []
    for box in ordered:
        if all(iou(box, k) <= iou_threshold for k in kept):
            kept.append(box)
    return kept


def crop_region(
    frame: np.ndarray, box: BoundingBox, out_hw: tuple[int, int]
) -> np.ndarray:
    """Clamp the box to the frame and nearest-resample the crop to out_hw."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3:
        raise ValueError(f"frame must be [C,H,W], got rank {frame.ndim}")
    _, h, w = frame.shape
    x0, y0, x1, y1 = box.corners()
    c0 = max(int(math.floor(x0)), 0)
    r0 = max(int(math.floor(y0)), 0)
    c1 = min(int(math.ceil(x1)), w)
    r1 = min(int(math.ceil(y1)), h)
    if c1 <= c0 or r1 <= r0:
        raise ValueError(f"box {box} does not intersect a {h}x{w} frame")
    return resample_nearest(frame[:, r0:r1, c0:c1], out_hw)


def match_anchors(
    anchors: list[BoundingBox], truths: list[BoundingBox]
) -> list[tuple[int, int]]:
    """Greedy one-to-one pairing by descending IoU; unmatched entries drop out."""
    pairs = sorted(
        ((iou(a, t), ai, ti) for ai, a in enumerate(anchors) for ti, t in enumerate(truths)),
        key=lambda x: (-x[0], x[1], x[2]),
    )
    used_a: set[int] = set()
    used_t: set[int] = set()
    matched = []
    for score, ai, ti in pairs:
        if score <= 0.0 or ai in used_a or ti in used_t:
            continue
        matched.append((ai, ti))
        used_a.add(ai)
        used_t.add(ti)
    return matched


@dataclass
class Detector:
    """Toy three-level backbone with fusion, score and box heads.

    Weights are drawn from the seeded stream at construction; nothing here is
    trained. Clips enter as [C,T,H,W] and every stage runs on all T frames at
    once; detect() returns each frame's NMS survivors.
    """

    frame_hw: tuple[int, int]
    in_channels: int = 1
    channels: int = 4
    num_anchors: int = 4
    iou_threshold: float = 0.5
    seed: int = 0
    fusion_eps: float = 1e-4
    _weights: dict = field(init=False, repr=False)

    def __post_init__(self):
        rng = Rng(self.seed)
        c = self.channels
        h, w = self.frame_hw
        self.fused_hw = (max(h // 4, 1), max(w // 4, 1))
        feat_dim = c * self.fused_hw[0] * self.fused_hw[1]
        scale = 1.0 / math.sqrt(9 * max(self.in_channels, c))
        self._weights = {
            "conv1": rng.normals(c * self.in_channels * 9).reshape(c, self.in_channels, 1, 3, 3)
            * scale,
            "conv2": rng.normals(c * c * 9).reshape(c, c, 1, 3, 3) * scale,
            "conv3": rng.normals(c * c * 9).reshape(c, c, 1, 3, 3) * scale,
            "fusion": FusionWeights(raw=(1.0, 1.0, 1.0), eps=self.fusion_eps),
            "reg_w": rng.normals(feat_dim * 4 * self.num_anchors).reshape(
                feat_dim, 4 * self.num_anchors
            )
            / math.sqrt(feat_dim),
            "reg_b": np.zeros(4 * self.num_anchors),
            "score_w": rng.normals(feat_dim * self.num_anchors).reshape(
                feat_dim, self.num_anchors
            )
            / math.sqrt(feat_dim),
            "score_b": np.zeros(self.num_anchors),
        }
        self.anchors = self._make_anchors()

    def _make_anchors(self) -> list[BoundingBox]:
        h, w = self.frame_hw
        base = [
            (w / 2, h / 2, w, h),
            (w / 2, h / 2, 0.75 * w, 0.75 * h),
            (w / 3, h / 3, 0.6 * w, 0.6 * h),
            (2 * w / 3, 2 * h / 3, 0.6 * w, 0.6 * h),
        ]
        boxes = [BoundingBox(cx, cy, bw, bh) for cx, cy, bw, bh in base]
        return boxes[: self.num_anchors]

    def pyramid(self, clip: np.ndarray) -> FeaturePyramid:
        """[C,T,H,W] clip to [C,T,h,w] levels; the kt=1 convs keep frames apart."""
        x = np.asarray(clip, dtype=np.float64)
        w = self._weights
        same = ConvSpec(kernel=(1, 3, 3), padding=(0, 1, 1), bias_enabled=False)
        down = ConvSpec(kernel=(1, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1), bias_enabled=False)
        f1 = relu(conv3d(x, w["conv1"], same))
        f2 = relu(conv3d(f1, w["conv2"], down))
        f3 = relu(conv3d(f2, w["conv3"], down))
        return FeaturePyramid(levels=[f3, f2, f1])

    def fuse(self, pyramid: FeaturePyramid) -> np.ndarray:
        common = [
            lv if lv.shape[-2:] == self.fused_hw else resample_nearest(lv, self.fused_hw)
            for lv in pyramid.levels
        ]
        return bifpn_fuse(FeaturePyramid(levels=common), self._weights["fusion"])

    def detect(self, clip: np.ndarray) -> list[list[BoundingBox]]:
        """NMS survivors of each frame of a [C,T,H,W] clip."""
        fused = self.fuse(self.pyramid(clip))  # [C, T, h, w]
        rows = fused.transpose(1, 0, 2, 3).reshape(fused.shape[1], 1, -1)  # [T, 1, feat]
        w = self._weights
        scores = sigmoid(linear(rows, w["score_w"], w["score_b"])[:, 0])
        boxes = predict_boxes(rows, w["reg_w"], w["reg_b"], self.anchors, scores)
        return [nms(frame_boxes, self.iou_threshold) for frame_boxes in boxes]

    def best_box(self, clip: np.ndarray) -> list[BoundingBox]:
        """Top surviving box of each frame, or the full frame where none survives."""
        return [kept[0] if kept else self.full_frame_box() for kept in self.detect(clip)]

    def full_frame_box(self) -> BoundingBox:
        h, w = self.frame_hw
        return BoundingBox(cx=w / 2.0, cy=h / 2.0, w=float(w), h=float(h))


DETECTION_CSV_HEADER = "frame_id,camera_id,class_id,score,cx,cy,w,h"


def detection_csv_row(frame_id: int, camera_id: int, box: BoundingBox) -> str:
    return (
        f"{frame_id},{camera_id},{box.class_id},{box.score!r},"
        f"{box.cx!r},{box.cy!r},{box.w!r},{box.h!r}"
    )
