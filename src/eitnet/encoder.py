"""Temporal encoder: patch embedding, self-attention, divided space-time blocks.

Tokens are laid out frame-major: index = t * (grid_h * grid_w) + row * grid_w
+ col, with an optional clip-summary token prepended at index 0.  A block
computes attention, adds the block input back, layer-normalizes, applies the
two-layer ReLU feed-forward, and layer-normalizes again.

Attention modes:

* ``joint``     - one attention pass over the whole sequence;
* ``temporal``  - attention within each spatial position across frames;
* ``spatial``   - attention within each frame across positions;
* ``divided``   - temporal pass, then spatial pass, inside the same block.

A group with a single member passes through attention unchanged.  This makes
the degenerate geometries exact: with one frame the divided block equals the
spatial block bitwise, and with a 1x1 grid it equals the temporal block.
The summary token always forms its own singleton group in divided modes;
the other groups are regrouped by a reshape and attended in one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorops import as_tensor, layer_norm, linear, relu, softmax

MODES = ("joint", "temporal", "spatial", "divided")


@dataclass
class TokenSequence:
    """[S, d_model] tokens plus the layout needed to regroup them."""

    tokens: np.ndarray
    frames: int
    grid_h: int
    grid_w: int
    patch: int
    has_summary: bool = False

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 2:
            raise ValueError(f"tokens must be [S, d], got rank {self.tokens.ndim}")
        if min(self.frames, self.grid_h, self.grid_w, self.patch) < 1:
            raise ValueError("layout extents must be >= 1")
        expected = self.frames * self.grid_h * self.grid_w + (1 if self.has_summary else 0)
        if self.tokens.shape[0] != expected:
            raise ValueError(
                f"{self.tokens.shape[0]} tokens inconsistent with layout "
                f"{self.frames}x{self.grid_h}x{self.grid_w}"
                f"{' + summary' if self.has_summary else ''}"
            )

    @property
    def width(self) -> int:
        return self.tokens.shape[1]

    def with_tokens(self, tokens: np.ndarray) -> "TokenSequence":
        return TokenSequence(
            tokens=tokens,
            frames=self.frames,
            grid_h=self.grid_h,
            grid_w=self.grid_w,
            patch=self.patch,
            has_summary=self.has_summary,
        )


@dataclass
class EncoderParams:
    """Projection, feed-forward, and normalization tables for one block."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
    w_ffn1: np.ndarray
    b_ffn1: np.ndarray
    w_ffn2: np.ndarray
    b_ffn2: np.ndarray
    norm1_gamma: np.ndarray
    norm1_beta: np.ndarray
    norm2_gamma: np.ndarray
    norm2_beta: np.ndarray
    eps: float = 1e-5

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]


def patch_embed(
    clip: np.ndarray,
    patch_size: int,
    proj_weight: np.ndarray,
    proj_bias: np.ndarray,
    pos_enc: np.ndarray,
) -> TokenSequence:
    """Flatten P x P x C patches, project to d_model, and add positional rows."""
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 4:
        raise ValueError(f"clip must be [C,T,H,W], got rank {clip.ndim}")
    c, t, h, w = clip.shape
    p = patch_size
    if p < 1 or h % p or w % p:
        raise ValueError(f"patch size {p} must divide frame extents {h}x{w}")
    gh, gw = h // p, w // p
    count = t * gh * gw
    proj_weight = np.asarray(proj_weight, dtype=np.float64)
    if proj_weight.shape[0] != c * p * p:
        raise ValueError(
            f"projection expects rows of {proj_weight.shape[0]}, patches have {c * p * p}"
        )
    pos_enc = np.asarray(pos_enc, dtype=np.float64)
    if pos_enc.shape != (count, proj_weight.shape[1]):
        raise ValueError(
            f"positional table must be [{count}, {proj_weight.shape[1]}], got {pos_enc.shape}"
        )
    # [C,T,gh,P,gw,P] -> [T,gh,gw,C,P,P]: frame-major tokens, each patch flattened C,row,col
    patches = clip.reshape(c, t, gh, p, gw, p).transpose(1, 2, 4, 0, 3, 5).reshape(count, -1)
    tokens = linear(patches, proj_weight, proj_bias) + pos_enc
    return TokenSequence(tokens=tokens, frames=t, grid_h=gh, grid_w=gw, patch=p)


def self_attention(tokens: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Scaled dot-product attention with single-head QKV projections.

    Takes one [S, d] sequence or a [G, S, d] stack of G groups attended
    independently.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim not in (2, 3):
        raise ValueError(f"tokens must be [S, d] or [G, S, d], got rank {tokens.ndim}")
    if tokens.shape[-1] != params.d_model:
        raise ValueError(
            f"token width {tokens.shape[-1]} != projection width {params.d_model}"
        )
    q = linear(tokens, params.w_q, params.b_q)
    k = linear(tokens, params.w_k, params.b_k)
    v = linear(tokens, params.w_v, params.b_v)
    scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(params.d_model)
    return softmax(scores, axis=-1) @ v


def _grouped_attention(seq: TokenSequence, params: EncoderParams, mode: str) -> np.ndarray:
    """One batched pass over all groups: [hw, T, d] (temporal) or [T, hw, d] (spatial)."""
    base = 1 if seq.has_summary else 0
    grid = seq.tokens[base:].reshape(seq.frames, seq.grid_h * seq.grid_w, seq.width)
    temporal = mode == "temporal"
    groups = grid.swapaxes(0, 1) if temporal else grid
    out = seq.tokens.copy()
    if groups.shape[1] > 1:  # singleton groups pass through unchanged
        attended = self_attention(groups, params)
        out[base:] = (attended.swapaxes(0, 1) if temporal else attended).reshape(-1, seq.width)
    return out


def encoder_block(tokens, params: EncoderParams, mode: str):
    """Attention (per mode), residual + norm, feed-forward, residual + norm.

    Accepts a TokenSequence (returned as such) or a bare [S, d] array, which
    is only valid in joint mode since divided modes need the layout.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(tokens, TokenSequence):
        seq = tokens
        x = seq.tokens
    else:
        if mode != "joint":
            raise ValueError(f"{mode!r} mode needs TokenSequence layout metadata")
        seq = None
        x = as_tensor(tokens)

    if mode == "joint":
        z = self_attention(x, params)
    elif mode == "divided":
        after_time = seq.with_tokens(_grouped_attention(seq, params, "temporal"))
        z = _grouped_attention(after_time, params, "spatial")
    else:
        z = _grouped_attention(seq, params, mode)

    h = layer_norm(z + x, params.norm1_gamma, params.norm1_beta, params.eps)
    f = linear(relu(linear(h, params.w_ffn1, params.b_ffn1)), params.w_ffn2, params.b_ffn2)
    y = layer_norm(f + h, params.norm2_gamma, params.norm2_beta, params.eps)
    return seq.with_tokens(y) if seq is not None else y


def classify_sequence(tokens, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Mean-pool the tokens, apply the linear head, and normalize with softmax."""
    x = tokens.tokens if isinstance(tokens, TokenSequence) else as_tensor(tokens)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("classify_sequence needs a nonempty [S, d] sequence")
    pooled = x.mean(axis=0)
    logits = linear(pooled[None, :], weight, bias)[0]
    return softmax(logits)


CLASSIFICATION_CSV_HEADER = "clip_id,class_id,probability"
