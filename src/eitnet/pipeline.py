"""End-to-end pipeline: detection crop, 3D features, token encoding, heads.

Stage toggles let any of the three stages be replaced by its pass-through
adapter (full-frame box without detection, flattened mean-frame features
without the 3D extractor, mean-pooled raw tokens without the encoder), which
keeps downstream shapes stable for the ablation table.  Only the two output
heads are trainable: the action classifier over the mean-pooled token and
the pose regressor over the stage-two features (joint trajectories are
predicted in meters and reported in millimeters).

Complexity accounting counts parameters exactly and multiply-accumulates
under a fixed convention: only matrix products contribute (convolutions,
linear layers, attention score and value products); pooling, activations,
residuals, normalizations and resampling count zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ACTION_LABELS
from .detection import BoundingBox, Detector, crop_region
from .encoder import EncoderParams, TokenSequence, encoder_block, patch_embed
from .i3d import DEFAULT_POOLS, I3DStack
from .metrics import SkeletonPose, accuracy, mpjpe, pa_mpjpe
from .rng import Rng, derive_seed
from .tensorops import as_tensor, linear, softmax


@dataclass(frozen=True)
class StageToggles:
    detection: bool = True
    spatiotemporal: bool = True
    temporal: bool = True

    def __post_init__(self):
        if not (self.detection or self.spatiotemporal or self.temporal):
            raise ValueError("at least one stage must be enabled")

    def tag(self) -> str:
        if self.detection and self.spatiotemporal and self.temporal:
            return "full"
        off = []
        if not self.detection:
            off.append("detection")
        if not self.spatiotemporal:
            off.append("i3d")
        if not self.temporal:
            off.append("timesformer")
        return "no-" + "+".join(off)


@dataclass(frozen=True)
class PipelineConfig:
    frames: int = 8
    frame_hw: tuple[int, int] = (16, 16)
    crop_hw: tuple[int, int] = (12, 12)
    patch: int = 4
    d_model: int = 32
    d_ff: int = 64
    encoder_blocks: int = 2
    num_classes: int = len(ACTION_LABELS)
    joints: int = 5
    i3d_widths: tuple[int, ...] = (8, 16, 32)
    detector_channels: int = 4
    num_anchors: int = 4
    summary_token: bool = True
    toggles: StageToggles = StageToggles()

    def __post_init__(self):
        ch, cw = self.crop_hw
        if ch % self.patch or cw % self.patch:
            raise ValueError(f"patch {self.patch} must divide crop extents {self.crop_hw}")

    @property
    def grid_hw(self) -> tuple[int, int]:
        return (self.crop_hw[0] // self.patch, self.crop_hw[1] // self.patch)

    @property
    def patch_tokens(self) -> int:
        gh, gw = self.grid_hw
        return self.frames * gh * gw

    @property
    def has_summary(self) -> bool:
        return self.summary_token and self.toggles.spatiotemporal

    @property
    def pose_feat_dim(self) -> int:
        if self.toggles.spatiotemporal:
            return self.i3d_widths[-1]
        return self.crop_hw[0] * self.crop_hw[1]

    @property
    def pose_out_dim(self) -> int:
        return self.frames * self.joints * 3


@dataclass
class PipelineOutput:
    probs: np.ndarray
    pose: list[SkeletonPose]
    cls_feat: np.ndarray
    pose_feat: np.ndarray

    @property
    def label_index(self) -> int:
        return int(self.probs.argmax())


def _encoder_params(rng: Rng, d: int, d_ff: int) -> EncoderParams:
    def mat(rows, cols, scale):
        return rng.normals(rows * cols).reshape(rows, cols) * scale

    qk = 1.0 / math.sqrt(d)
    return EncoderParams(
        w_q=mat(d, d, qk),
        w_k=mat(d, d, qk),
        w_v=mat(d, d, qk),
        b_q=np.zeros(d),
        b_k=np.zeros(d),
        b_v=np.zeros(d),
        w_ffn1=mat(d, d_ff, math.sqrt(2.0 / d)),
        b_ffn1=np.zeros(d_ff),
        w_ffn2=mat(d_ff, d, 1.0 / math.sqrt(d_ff)),
        b_ffn2=np.zeros(d),
        norm1_gamma=np.ones(d),
        norm1_beta=np.zeros(d),
        norm2_gamma=np.ones(d),
        norm2_beta=np.zeros(d),
    )


class PipelineModel:
    """All stage weights drawn from the seeded stream; only heads are trained."""

    def __init__(self, config: PipelineConfig, seed: int):
        self.config = config
        self.seed = seed
        c = config
        self.detector = Detector(
            frame_hw=c.frame_hw,
            channels=c.detector_channels,
            num_anchors=c.num_anchors,
            seed=derive_seed(seed, "detector"),
        )
        self.i3d = I3DStack(widths=c.i3d_widths, seed=derive_seed(seed, "i3d"))
        rng = Rng(derive_seed(seed, "encoder"))
        patch_dim = c.patch * c.patch  # single-channel clips
        self.patch_weight = rng.normals(patch_dim * c.d_model).reshape(
            patch_dim, c.d_model
        ) / math.sqrt(patch_dim)
        self.patch_bias = np.zeros(c.d_model)
        self.pos_enc = rng.normals(c.patch_tokens * c.d_model).reshape(
            c.patch_tokens, c.d_model
        ) * 0.1
        self.summary_weight = rng.normals(c.i3d_widths[-1] * c.d_model).reshape(
            c.i3d_widths[-1], c.d_model
        ) / math.sqrt(c.i3d_widths[-1])
        self.summary_bias = np.zeros(c.d_model)
        self.blocks = [
            _encoder_params(rng, c.d_model, c.d_ff) for _ in range(c.encoder_blocks)
        ]
        head_rng = Rng(derive_seed(seed, "heads"))
        self.cls_weight = head_rng.normals(c.d_model * c.num_classes).reshape(
            c.d_model, c.num_classes
        ) * 0.01
        self.cls_bias = np.zeros(c.num_classes)
        self.pose_weight = head_rng.normals(c.pose_feat_dim * c.pose_out_dim).reshape(
            c.pose_feat_dim, c.pose_out_dim
        ) * 0.01
        self.pose_bias = np.zeros(c.pose_out_dim)
        # Head-input standardization (identity until fit): frozen statistics in
        # the style of inference-mode batch norm, so the fixed learning-rate
        # budget reaches well-scaled head weights.
        self.norm_stats = {
            "cls_mean": np.zeros(c.d_model),
            "cls_scale": np.ones(c.d_model),
            "pose_mean": np.zeros(c.pose_feat_dim),
            "pose_scale": np.ones(c.pose_feat_dim),
        }

    # -- frozen stages -----------------------------------------------------

    def frame_boxes(self, clip: np.ndarray) -> list[BoundingBox]:
        """Each frame's crop box: the detector's best box, or the full frame without it.

        ``clip`` is trusted: a validated [C,T,H,W] float64 clip.
        """
        if self.config.toggles.detection:
            return self.detector.best_box(clip)
        h, w = clip.shape[2:]
        return [BoundingBox(cx=w / 2.0, cy=h / 2.0, w=float(w), h=float(h))] * clip.shape[1]

    def crop_clip(self, clip: np.ndarray, boxes: list[BoundingBox] | None = None) -> np.ndarray:
        """Validate the clip and crop each frame to its box (default: ``frame_boxes``)."""
        clip = as_tensor(clip)
        if boxes is None:
            boxes = self.frame_boxes(clip)
        elif len(boxes) != clip.shape[1]:
            raise ValueError(f"{len(boxes)} boxes for a clip of {clip.shape[1]} frames")
        crops = [crop_region(clip[:, t], box, self.config.crop_hw) for t, box in enumerate(boxes)]
        return np.stack(crops, axis=1)

    def stage_features(self, cropped: np.ndarray, dropout_p: float = 0.0, seed: int = 0):
        if self.config.toggles.spatiotemporal:
            return self.i3d.forward(cropped, dropout_p=dropout_p, seed=seed)
        return cropped.mean(axis=(0, 1)).ravel()

    def tokens(self, cropped: np.ndarray, feats: np.ndarray) -> TokenSequence:
        c = self.config
        seq = patch_embed(cropped, c.patch, self.patch_weight, self.patch_bias, self.pos_enc)
        if c.has_summary:
            summary = feats @ self.summary_weight + self.summary_bias
            seq = TokenSequence(
                tokens=np.vstack([summary[None, :], seq.tokens]),
                frames=seq.frames,
                grid_h=seq.grid_h,
                grid_w=seq.grid_w,
                patch=seq.patch,
                has_summary=True,
            )
        return seq

    def encode(self, seq: TokenSequence) -> TokenSequence:
        if not self.config.toggles.temporal:
            return seq
        for params in self.blocks:
            seq = encoder_block(seq, params, "divided")
        return seq

    def extract(
        self,
        clip: np.ndarray,
        dropout_p: float = 0.0,
        seed: int = 0,
        boxes: list[BoundingBox] | None = None,
    ):
        """Frozen-stage forward: (classifier feature, pose feature), standardized.

        ``boxes`` are this clip's ``frame_boxes``, for a caller that already
        has them.  The stages inside do not scan their arrays for NaN or
        infinity; this one check on the features stands in for them.
        """
        cropped = self.crop_clip(clip, boxes)
        feats = self.stage_features(cropped, dropout_p=dropout_p, seed=seed)
        seq = self.encode(self.tokens(cropped, feats))
        ns = self.norm_stats
        cls_feat = (seq.tokens.mean(axis=0) - ns["cls_mean"]) * ns["cls_scale"]
        pose_feat = (feats - ns["pose_mean"]) * ns["pose_scale"]
        if not (np.isfinite(cls_feat).all() and np.isfinite(pose_feat).all()):
            raise ValueError("extracted features are not finite")
        return cls_feat, pose_feat

    def fit_feature_norm(self, samples, target_std: float = 16.0) -> None:
        """Freeze head-input statistics from the given samples' clean features.

        Called once before head training; afterwards every extract() applies
        the same affine standardization, scaled so each dimension has the
        target standard deviation over the fitting set.
        """
        self.norm_stats = {
            "cls_mean": np.zeros_like(self.norm_stats["cls_mean"]),
            "cls_scale": np.ones_like(self.norm_stats["cls_scale"]),
            "pose_mean": np.zeros_like(self.norm_stats["pose_mean"]),
            "pose_scale": np.ones_like(self.norm_stats["pose_scale"]),
        }
        cls_rows, pose_rows = [], []
        for sample in samples:
            z, f = self.extract(sample.clip)
            cls_rows.append(z)
            pose_rows.append(f)
        cls = np.stack(cls_rows)
        pose = np.stack(pose_rows)
        self.norm_stats = {
            "cls_mean": cls.mean(axis=0),
            "cls_scale": target_std / np.maximum(cls.std(axis=0), 1e-8),
            "pose_mean": pose.mean(axis=0),
            "pose_scale": target_std / np.maximum(pose.std(axis=0), 1e-8),
        }

    # -- trainable heads ----------------------------------------------------

    def head_probs(self, cls_feat: np.ndarray) -> np.ndarray:
        return softmax(linear(cls_feat[None, :], self.cls_weight, self.cls_bias)[0])

    def head_pose(self, pose_feat: np.ndarray) -> list[SkeletonPose]:
        c = self.config
        meters = linear(pose_feat[None, :], self.pose_weight, self.pose_bias)[0]
        mm = 1000.0 * meters.reshape(c.frames, c.joints, 3)
        return [SkeletonPose(joints=mm[t]) for t in range(c.frames)]

    def forward(
        self,
        clip: np.ndarray,
        dropout_p: float = 0.0,
        seed: int = 0,
        boxes: list[BoundingBox] | None = None,
    ) -> PipelineOutput:
        cls_feat, pose_feat = self.extract(clip, dropout_p=dropout_p, seed=seed, boxes=boxes)
        return PipelineOutput(
            probs=self.head_probs(cls_feat),
            pose=self.head_pose(pose_feat),
            cls_feat=cls_feat,
            pose_feat=pose_feat,
        )

    def head_parameters(self) -> dict[str, np.ndarray]:
        return {
            "cls_weight": self.cls_weight,
            "cls_bias": self.cls_bias,
            "pose_weight": self.pose_weight,
            "pose_bias": self.pose_bias,
        }

    def set_head_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.cls_weight = np.array(params["cls_weight"], dtype=np.float64)
        self.cls_bias = np.array(params["cls_bias"], dtype=np.float64)
        self.pose_weight = np.array(params["pose_weight"], dtype=np.float64)
        self.pose_bias = np.array(params["pose_bias"], dtype=np.float64)


def evaluate_pipeline(model: PipelineModel, samples) -> dict[str, float]:
    """Accuracy plus pooled MPJPE / PA-MPJPE over the given samples."""
    if not samples:
        raise ValueError("no samples to evaluate")
    predicted, truths = [], []
    mpjpes, pa_mpjpes = [], []
    for sample in samples:
        out = model.forward(sample.clip)
        predicted.append(out.label_index)
        truths.append(sample.label_index)
        mpjpes.append(mpjpe(out.pose, sample.poses))
        pa_mpjpes.append(pa_mpjpe(out.pose, sample.poses))
    return {
        "accuracy": accuracy(predicted, truths),
        "mpjpe": float(np.mean(mpjpes)),
        "pa_mpjpe": float(np.mean(pa_mpjpes)),
    }


# -- complexity accounting ---------------------------------------------------


def count_linear(d_in: int, d_out: int, bias: bool = True, rows: int = 1) -> tuple[int, int]:
    """Parameters and per-forward MACs of a dense layer applied to `rows` rows."""
    return d_in * d_out + (d_out if bias else 0), rows * d_in * d_out


def count_conv3d(
    c_in: int,
    c_out: int,
    kernel: tuple[int, int, int],
    in_extents: tuple[int, int, int],
    stride: tuple[int, int, int] = (1, 1, 1),
    padding: tuple[int, int, int] = (0, 0, 0),
    bias: bool = True,
) -> tuple[int, int]:
    kt, kh, kw = kernel
    out = [
        (n + 2 * p - k) // s + 1
        for n, k, s, p in zip(in_extents, kernel, stride, padding)
    ]
    params = c_out * c_in * kt * kh * kw + (c_out if bias else 0)
    macs = c_out * c_in * kt * kh * kw * out[0] * out[1] * out[2]
    return params, macs


def count_attention_projections(d_model: int) -> int:
    """Q, K, V projection parameters (weights plus biases)."""
    return 3 * (d_model * d_model + d_model)


def _attention_group_macs(group_sizes: list[int], d: int) -> int:
    """QKV plus score and value products for each attended group (singletons skip)."""
    macs = 0
    for g in group_sizes:
        if g > 1:
            macs += 3 * g * d * d + 2 * g * g * d
    return macs


def count_params_flops(config: PipelineConfig) -> tuple[int, int]:
    """Exact parameter and multiply-accumulate counts for one clip forward."""
    c = config
    params = 0
    macs = 0
    t = c.frames
    fh, fw = c.frame_hw
    cb = c.detector_channels

    if c.toggles.detection:
        p, m = count_conv3d(1, cb, (1, 3, 3), (1, fh, fw), padding=(0, 1, 1), bias=False)
        params += p
        macs += t * m
        p, m = count_conv3d(
            cb, cb, (1, 3, 3), (1, fh, fw), stride=(1, 2, 2), padding=(0, 1, 1), bias=False
        )
        params += p
        macs += t * m
        p, m = count_conv3d(
            cb, cb, (1, 3, 3), (1, fh // 2, fw // 2), stride=(1, 2, 2), padding=(0, 1, 1),
            bias=False,
        )
        params += p
        macs += t * m
        params += 3  # fusion weights
        feat = cb * (fh // 4) * (fw // 4)
        p, m = count_linear(feat, 4 * c.num_anchors)
        params += p
        macs += t * m
        p, m = count_linear(feat, c.num_anchors)
        params += p
        macs += t * m

    ch, cw = c.crop_hw
    if c.toggles.spatiotemporal:
        extents = (t, ch, cw)
        c_prev = 1
        for width, pool in zip(c.i3d_widths, DEFAULT_POOLS):
            p, m = count_conv3d(c_prev, width, (3, 3, 3), extents, padding=(1, 1, 1))
            params += p
            macs += m
            params += 2 * width  # batch-norm affine
            extents = tuple(n // k for n, k in zip(extents, pool))
            c_prev = width

    gh, gw = c.grid_hw
    s0 = c.patch_tokens
    p, m = count_linear(c.patch * c.patch, c.d_model, rows=s0)
    params += p
    macs += m
    params += s0 * c.d_model  # learned positional table
    if c.has_summary:
        p, m = count_linear(c.i3d_widths[-1], c.d_model)
        params += p
        macs += m

    s = s0 + (1 if c.has_summary else 0)
    if c.toggles.temporal:
        for _ in range(c.encoder_blocks):
            params += count_attention_projections(c.d_model)
            temporal_groups = [t] * (gh * gw)
            spatial_groups = [gh * gw] * t
            macs += _attention_group_macs(temporal_groups, c.d_model)
            macs += _attention_group_macs(spatial_groups, c.d_model)
            p, m = count_linear(c.d_model, c.d_ff, rows=s)
            params += p
            macs += m
            p, m = count_linear(c.d_ff, c.d_model, rows=s)
            params += p
            macs += m
            params += 4 * c.d_model  # two layer-norm affines

    p, m = count_linear(c.d_model, c.num_classes)
    params += p
    macs += m
    p, m = count_linear(c.pose_feat_dim, c.pose_out_dim)
    params += p
    macs += m
    return params, macs


def with_toggles(config: PipelineConfig, toggles: StageToggles) -> PipelineConfig:
    return replace(config, toggles=toggles)
