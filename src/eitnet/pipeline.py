"""End-to-end pipeline: detection crop, 3D features, token encoding, heads.

Stage toggles let any of the three stages be replaced by its pass-through
adapter (full-frame box without detection, flattened mean-frame features
without the 3D extractor, mean-pooled raw tokens without the encoder), which
keeps downstream shapes stable for the ablation table.  Only the two output
heads are trainable: the action classifier over the mean-pooled token and
the pose regressor over the stage-two features (joint trajectories are
predicted in meters and reported in millimeters).

The architecture is fixed: a ``PipelineConfig``'s only fields are the three
stage toggles, its sizes are class constants, and the clip format it is built
for (``FRAMES`` frames of ``FRAME_HW`` pixels, ``JOINT_NAMES`` joints) lives
in the ``eitnet`` package.  A model is therefore rebuilt from its seed and
config alone.

The frozen stages run on a [B, C, T, H, W] stack of clips, and
``extract_batch`` is their one entry: ``extract`` and ``forward`` are its
one-clip case, and every other caller passes it all its clips.  It, and
``frame_boxes`` for the detector, cut them into stacks of ``STACK_CLIPS``.  The
detector and the crop join a stack's clips on the frame axis, I3D runs one
matrix product per clip, the tokens are [B, S, d], and the summary projection
and heads multiply [B, 1, feat] rows, so each clip's outputs are bitwise
those of a one-clip call.  The pose head's [B, T, J, 3] array reaches the
metrics whole; only ``forward`` makes poses of it.  I3D's dropout runs
exactly when ``extract_batch`` gets dropout seeds, as only the trainer does.

Inside a ``shared_frozen_stages()`` block, models share the frozen stages'
outputs: a stack the detector or I3D has already run on, under the same
frozen weights (and, for I3D, the same dropout seeds or none), takes
its [B, T, 5] boxes or [B, F] features from a memo keyed by the stage's
seed, which alone identifies its weights, and a digest of the stack.
``run_ablation`` opens one block around its rows, whose models share a seed
and see the same clips.  Outside a block nothing is hashed or kept.

``with_toggles(config)`` gives the model of other toggles on the same frozen
arrays: only its heads are drawn, from the seed's ``"heads"`` stream, and its
feature norm starts at identity, so it is ``PipelineModel(config, seed)``
byte for byte without drawing the frozen weights again.

Complexity accounting reads a live model: parameters are the arrays each
enabled stage lists (the detector and I3D list their own weights), and
multiply-accumulates are those the kernels count during one forward inside a
``tensorops.count_macs()`` block.  Only matrix products contribute
(convolutions, linear layers, attention score and value products); pooling,
activations, residuals, normalizations and resampling count zero.  The
forward is thus the one description of the architecture.
"""

from __future__ import annotations

import contextvars
import copy
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import ACTION_LABELS, FRAME_HW, FRAMES, JOINT_NAMES
from .detection import Detector, crop_region, full_frame_box
from .encoder import EncoderParams, TokenSequence, encoder_block, patch_embed
from .i3d import WIDTHS as I3D_WIDTHS
from .i3d import I3DStack
from .metrics import SkeletonPose, accuracy, mpjpe, pa_mpjpe
from .rng import Rng, derive_seed
from .synthetic import SampleSet
from .tensorops import ConvSpec, as_tensor, count_macs, linear, softmax

# Clips per stack of the frozen stages, and training.BATCH_SIZE, so a training
# batch is one stack.  A stack saves per-call overhead but holds its
# intermediate arrays at once.  On a 2-vCPU host a clip cost 1.03, 0.60, 0.57
# and 0.58 ms in stacks of 1, 4, 8 and 16 (192-clip extract_batch calls).
# On the ablation benchmark, stacks of 8 against 4 raised peak RSS from 52.0
# to 54.5 MB (+4.9%, with conv3d's bias added in place); with the rows' shared
# frozen weights, rows/s rose 12%.
STACK_CLIPS = 8

FEATURE_STD = 16.0  # of each head input over the feature-norm fitting set

# The open shared_frozen_stages() block's memo, or None outside one.
_SHARED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("shared", default=None)


@contextmanager
def shared_frozen_stages():
    """Share detector boxes and I3D features between models within the block.

    Each result is kept read-only under its stage's seed, the input stack's
    shape and a 128-bit digest of its bytes (and, for I3D, the dropout
    seeds or None), so a stack seen again skips the stage.
    Only the outputs are kept, never the stacks.  The memo lives until the
    block exits; a nested block starts its own.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _digest(stack: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(stack), digest_size=16).digest()


def _shared(key: tuple, stack: np.ndarray, compute) -> np.ndarray:
    """``compute(stack)``, or inside a shared block the result kept for ``key`` and this stack."""
    memo = _SHARED.get()
    if memo is None:
        return compute(stack)
    key += (stack.shape, _digest(stack))
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute(stack)
        out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run.  The architecture is fixed: its sizes are readable
    from an instance but are class constants, not fields."""

    detection: bool = True
    spatiotemporal: bool = True
    temporal: bool = True

    frames: ClassVar[int] = FRAMES
    crop_hw: ClassVar[tuple[int, int]] = (12, 12)
    patch: ClassVar[int] = 4  # divides both crop extents
    grid_hw: ClassVar[tuple[int, int]] = (crop_hw[0] // patch, crop_hw[1] // patch)
    patch_tokens: ClassVar[int] = frames * grid_hw[0] * grid_hw[1]
    d_model: ClassVar[int] = 32
    d_ff: ClassVar[int] = 64
    encoder_blocks: ClassVar[int] = 2
    num_classes: ClassVar[int] = len(ACTION_LABELS)
    joints: ClassVar[int] = len(JOINT_NAMES)
    pose_out_dim: ClassVar[int] = frames * joints * 3
    i3d_widths: ClassVar[tuple[int, ...]] = I3D_WIDTHS

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

    @property
    def pose_feat_dim(self) -> int:
        if self.spatiotemporal:
            return self.i3d_widths[-1]
        return self.crop_hw[0] * self.crop_hw[1]


@dataclass
class PipelineOutput:
    probs: np.ndarray
    pose: list[SkeletonPose]
    cls_feat: np.ndarray
    pose_feat: np.ndarray


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
        self.detector = Detector(seed=derive_seed(seed, "detector"))
        self.i3d = I3DStack(seed=derive_seed(seed, "i3d"))
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
        self._draw_heads()

    def with_toggles(self, config: PipelineConfig) -> PipelineModel:
        """``PipelineModel(config, self.seed)``, sharing this model's frozen arrays.

        The detector, I3D, patch, positional, summary and encoder-block arrays
        are this model's own objects; the heads are drawn afresh for
        ``config`` and the feature norm starts at identity, so training the
        new model's heads leaves this one's untouched.
        """
        model = copy.copy(self)
        model.config = config
        model._draw_heads()
        return model

    def _draw_heads(self) -> None:
        """The heads from the seed's ``"heads"`` stream, and an identity feature norm."""
        c = self.config
        head_rng = Rng(derive_seed(self.seed, "heads"))
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
    # Each stage takes a [B, ...] stack of clips; a one-clip call is B = 1.

    def frame_boxes(self, clips: np.ndarray) -> np.ndarray:
        """[B, T, 5] crop boxes: the detector's best boxes, or the full frame without it.

        ``clips`` is trusted: a validated [B,C,T,H,W] float64 stack.  The
        detector runs on stacks of at most ``STACK_CLIPS`` of them, each
        shared within a ``shared_frozen_stages()`` block.
        """
        if self.config.detection:
            d = self.detector
            key = ("detector", d.seed)
            stacks = [clips[s : s + STACK_CLIPS] for s in range(0, len(clips), STACK_CLIPS)]
            return np.concatenate([_shared(key, stack, d.best_box) for stack in stacks])
        b, _, t, h, w = clips.shape
        return np.tile(full_frame_box((h, w)), (b, t, 1))

    def crop_clip(self, clips: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        """Crop each frame of a trusted [B,C,T,H,W] stack to its [B, T, 5] box row.

        The stack is cropped as one clip of B*T frames, in one ``crop_region`` call.
        """
        b, c, t, h, w = clips.shape
        frames = clips.swapaxes(0, 1).reshape(c, b * t, h, w)
        cropped = crop_region(frames, np.reshape(boxes, (b * t, -1)), self.config.crop_hw)
        return cropped.reshape(c, b, t, *self.config.crop_hw).swapaxes(0, 1)

    def stage_features(self, cropped: np.ndarray, seeds=None):
        """[B, F] stage-two features; ``seeds``, when given, one dropout seed per clip.

        I3D's features are shared within a ``shared_frozen_stages()`` block.
        """
        if self.config.spatiotemporal:
            net = self.i3d
            key = ("i3d", net.seed, None if seeds is None else tuple(seeds))
            return _shared(key, cropped, lambda x: net.forward(x, seeds))
        return cropped.mean(axis=(1, 2)).reshape(len(cropped), -1)

    def tokens(self, cropped: np.ndarray, feats: np.ndarray) -> TokenSequence:
        """[B, S, d_model] tokens: the summary token (when on), then the patches."""
        c = self.config
        seq = patch_embed(cropped, c.patch, self.patch_weight, self.patch_bias, self.pos_enc)
        if c.spatiotemporal:
            # one [1, feat] row per clip: it rounds as a one-clip product does
            summary = linear(feats[:, None, :], self.summary_weight, self.summary_bias)
            tokens = np.concatenate([summary, seq.tokens], axis=1)
            seq = replace(seq, tokens=tokens, has_summary=True)
        return seq

    def encode(self, seq: TokenSequence) -> TokenSequence:
        if not self.config.temporal:
            return seq
        for params in self.blocks:
            seq = encoder_block(seq, params, "divided")
        return seq

    def extract_batch(
        self, clips, seeds=None, boxes: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frozen-stage forward of N clips: [N, d_model] classifier and [N, F] pose features.

        ``clips`` is an [N,C,T,H,W] array or a sequence of [C,T,H,W] clips.
        ``seeds``, when given, holds one dropout seed per clip and switches
        I3D's dropout on.  ``boxes`` are the clips' [N, T, 5] ``frame_boxes``,
        computed here unless the caller already has them.
        The stages run on stacks of at most ``STACK_CLIPS`` clips, and each
        clip's features are bitwise those of a one-clip call.  Both features
        are standardized by ``norm_stats``.  The stages do not scan their
        arrays for NaN or infinity; this one check on the features stands in
        for them.
        """
        clips = as_tensor(clips)
        if clips.shape[1:] != (1, FRAMES, *FRAME_HW):
            raise ValueError(
                f"clips must be [N,C,T,H,W], got rank {clips.ndim} of shape {clips.shape}; "
                f"need [N, 1, {FRAMES}, {FRAME_HW[0]}, {FRAME_HW[1]}]"
            )
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != len(clips):
                raise ValueError(f"{len(seeds)} dropout seeds for {len(clips)} clips")
        if boxes is None:
            boxes = self.frame_boxes(clips)
        elif np.shape(boxes) != (len(clips), clips.shape[2], 5):
            raise ValueError(
                f"boxes of shape {np.shape(boxes)}, need [{len(clips)}, {clips.shape[2]}, 5]"
            )
        pooled, feats = [], []
        for start in range(0, len(clips), STACK_CLIPS):
            part = slice(start, start + STACK_CLIPS)
            cropped = self.crop_clip(clips[part], boxes[part])
            stack_feats = self.stage_features(cropped, None if seeds is None else seeds[part])
            pooled.append(self.encode(self.tokens(cropped, stack_feats)).tokens.mean(axis=1))
            feats.append(stack_feats)
        ns = self.norm_stats
        cls_feat = (np.concatenate(pooled) - ns["cls_mean"]) * ns["cls_scale"]
        pose_feat = (np.concatenate(feats) - ns["pose_mean"]) * ns["pose_scale"]
        if not (np.isfinite(cls_feat).all() and np.isfinite(pose_feat).all()):
            raise ValueError("extracted features are not finite")
        return cls_feat, pose_feat

    def extract(self, clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One [C,T,H,W] clip's ``extract_batch``: (classifier feature, pose feature)."""
        cls_feat, pose_feat = self.extract_batch(np.asarray(clip)[None])
        return cls_feat[0], pose_feat[0]

    def fit_feature_norm(self, samples) -> None:
        """Freeze head-input statistics from the given samples' clean features.

        Called once before head training; afterwards every extract() applies
        the same affine standardization, scaled so each dimension has the
        standard deviation ``FEATURE_STD`` over the fitting set.
        """
        self.norm_stats = {
            "cls_mean": np.zeros_like(self.norm_stats["cls_mean"]),
            "cls_scale": np.ones_like(self.norm_stats["cls_scale"]),
            "pose_mean": np.zeros_like(self.norm_stats["pose_mean"]),
            "pose_scale": np.ones_like(self.norm_stats["pose_scale"]),
        }
        cls, pose = self.extract_batch(samples.clips)
        self.norm_stats = {
            "cls_mean": cls.mean(axis=0),
            "cls_scale": FEATURE_STD / np.maximum(cls.std(axis=0), 1e-8),
            "pose_mean": pose.mean(axis=0),
            "pose_scale": FEATURE_STD / np.maximum(pose.std(axis=0), 1e-8),
        }

    # -- trainable heads ----------------------------------------------------
    # The heads take [B, feat] rows and run each as its own [1, feat] product,
    # which rounds exactly as a one-clip call does (a [B, feat] product may not).

    def head_probs(self, cls_feats: np.ndarray) -> np.ndarray:
        """[B, classes] class probabilities."""
        return softmax(linear(cls_feats[:, None, :], self.cls_weight, self.cls_bias)[:, 0])

    def head_pose(self, pose_feats: np.ndarray) -> np.ndarray:
        """[B, T, J, 3] predicted joints, in millimeters."""
        c = self.config
        meters = linear(pose_feats[:, None, :], self.pose_weight, self.pose_bias)[:, 0]
        return 1000.0 * meters.reshape(-1, c.frames, c.joints, 3)

    def forward(self, clip: np.ndarray) -> PipelineOutput:
        cls_feat, pose_feat = self.extract(clip)
        return PipelineOutput(
            probs=self.head_probs(cls_feat[None])[0],
            pose=SkeletonPose.from_stack(self.head_pose(pose_feat[None])[0]),
            cls_feat=cls_feat,
            pose_feat=pose_feat,
        )

    def parameters(self) -> list[np.ndarray]:
        """Every weight array the enabled stages use, heads included."""
        c = self.config
        arrays = []
        if c.detection:
            arrays += self.detector.parameters().values()
        if c.spatiotemporal:
            arrays += self.i3d.parameters()
        arrays += [self.patch_weight, self.patch_bias, self.pos_enc]
        if c.spatiotemporal:
            arrays += [self.summary_weight, self.summary_bias]
        if c.temporal:
            for blk in self.blocks:
                arrays += vars(blk).values()
        return arrays + list(self.head_parameters().values())

    def head_parameters(self) -> dict[str, np.ndarray]:
        """The heads' own arrays, by name: training updates them in place."""
        return {
            "cls_weight": self.cls_weight,
            "cls_bias": self.cls_bias,
            "pose_weight": self.pose_weight,
            "pose_bias": self.pose_bias,
        }


def evaluate_pipeline(model: PipelineModel, samples) -> dict[str, float]:
    """Accuracy plus pooled MPJPE / PA-MPJPE over the given samples, one call each."""
    if not samples:
        raise ValueError("no samples to evaluate")
    samples = SampleSet.of(samples)
    cls_feats, pose_feats = model.extract_batch(samples.clips)
    predicted = model.head_probs(cls_feats).argmax(axis=1).tolist()
    poses = model.head_pose(pose_feats)
    return {
        "accuracy": accuracy(predicted, samples.labels.tolist()),
        "mpjpe": mpjpe(poses, samples.joints),
        "pa_mpjpe": pa_mpjpe(poses, samples.joints),
    }


# -- complexity accounting ---------------------------------------------------


def count_linear(d_in: int, d_out: int) -> tuple[int, int]:
    """Parameters and per-row MACs of a dense layer with a bias."""
    return d_in * d_out + d_out, d_in * d_out


def count_conv3d(
    c_in: int,
    c_out: int,
    kernel: tuple[int, int, int],
    in_extents: tuple[int, int, int],
    stride: tuple[int, int, int] = (1, 1, 1),
) -> tuple[int, int]:
    """Parameters and MACs of an unpadded 3D convolution with a bias."""
    weights = c_out * c_in * math.prod(kernel)
    out = ConvSpec(kernel, stride).output_extents(in_extents)
    return weights + c_out, weights * math.prod(out)


def count_attention_projections(d_model: int) -> int:
    """Q, K, V projection parameters (weights plus biases)."""
    return 3 * (d_model * d_model + d_model)


def count_params_flops(config: PipelineConfig) -> tuple[int, int]:
    """Exact parameter and multiply-accumulate counts for one clip forward.

    Both are read off a live model with the config's toggles: ``parameters()``,
    and the MACs its kernels count in one forward of a zero clip.  That runs
    in its own memo block, so an enclosing block's memo cannot skip a stage.
    """
    model = PipelineModel(config, seed=0)
    with shared_frozen_stages(), count_macs() as macs:
        model.forward(np.zeros((1, FRAMES, *FRAME_HW)))
    return sum(a.size for a in model.parameters()), macs.total
