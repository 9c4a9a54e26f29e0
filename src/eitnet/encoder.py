"""Temporal encoder: patch embedding, self-attention, divided space-time blocks.

Tokens are laid out frame-major: index = t * (grid_h * grid_w) + row * grid_w
+ col, with an optional clip-summary token prepended at index 0.  A block
computes attention, adds the block input back, layer-normalizes, applies the
two-layer ReLU feed-forward, and layer-normalizes again.

Attention modes:

* ``temporal``  - attention within each spatial position across frames;
* ``spatial``   - attention within each frame across positions;
* ``divided``   - temporal pass, then spatial pass, inside the same block.

A group with a single member passes through attention unchanged.  This makes
the degenerate geometries exact: with one frame the divided block equals the
spatial block bitwise, and with a 1x1 grid it equals the temporal block.
The summary token always forms its own singleton group in divided modes;
the other groups are regrouped by a reshape and attended in one batched call.

A sequence is one clip's [S, d] tokens or a [B, S, d] stack of B clips'.
Every product over a stack is one matrix product per clip (per attention
group), so each clip's tokens keep the bits they get on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tensorops import (
    MACS,
    as_tensor,  # noqa: F401  (unused here; perfbench counts as_tensor calls through this name)
    layer_norm,
    linear,
    relu,
    softmax,
)

MODES = ("temporal", "spatial", "divided")


@dataclass
class TokenSequence:
    """[S, d_model] or [B, S, d_model] tokens plus the layout needed to regroup them."""

    tokens: np.ndarray
    frames: int
    grid_h: int
    grid_w: int
    patch: int
    has_summary: bool = False

    @property
    def width(self) -> int:
        return self.tokens.shape[-1]


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
    """Flatten P x P x C patches, project to d_model, and add positional rows.

    ``clip`` is one [C,T,H,W] clip or a [B,C,T,H,W] stack, whose tokens are [B, S, d].
    The caller keeps the shapes: ``patch_size`` divides H and W, ``proj_weight``
    is [C*P*P, d] and ``pos_enc`` is [T*(H/P)*(W/P), d].
    """
    *lead, c, t, h, w = clip.shape
    p = patch_size
    gh, gw = h // p, w // p
    count = t * gh * gw
    # [C,T,gh,P,gw,P] -> [T,gh,gw,C,P,P]: frame-major tokens, each patch flattened C,row,col
    n = len(lead)
    axes = [*range(n), *(n + a for a in (1, 2, 4, 0, 3, 5))]
    patches = clip.reshape(*lead, c, t, gh, p, gw, p).transpose(axes).reshape(*lead, count, -1)
    tokens = linear(patches, proj_weight, proj_bias) + pos_enc
    return TokenSequence(tokens=tokens, frames=t, grid_h=gh, grid_w=gw, patch=p)


def self_attention(tokens: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Scaled dot-product attention with single-head QKV projections.

    Takes one [S, d] sequence or a [..., G, S, d] stack of groups attended
    independently (at most two leading axes).  In a ``count_macs()`` block the
    score and value products count 2*G*S*S*d MACs; Q, K and V count in ``linear``.
    """
    q = linear(tokens, params.w_q, params.b_q)
    k = linear(tokens, params.w_k, params.b_k)
    v = linear(tokens, params.w_v, params.b_v)
    scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(params.d_model)
    if (count := MACS.get()) is not None:
        count.total += 2 * tokens.size * tokens.shape[-2]
    return softmax(scores, axis=-1) @ v


def _grouped_attention(seq: TokenSequence, params: EncoderParams, mode: str) -> np.ndarray:
    """One batched pass over all groups: [(B,) hw, T, d] (temporal) or [(B,) T, hw, d] (spatial)."""
    base = 1 if seq.has_summary else 0
    lead = seq.tokens.shape[:-2]
    grid = seq.tokens[..., base:, :].reshape(
        lead + (seq.frames, seq.grid_h * seq.grid_w, seq.width)
    )
    temporal = mode == "temporal"
    groups = grid.swapaxes(-3, -2) if temporal else grid
    out = seq.tokens.copy()
    if groups.shape[-2] > 1:  # singleton groups pass through unchanged
        attended = self_attention(groups, params)
        attended = attended.swapaxes(-3, -2) if temporal else attended
        out[..., base:, :] = attended.reshape(lead + (-1, seq.width))
    return out


def encoder_block(seq: TokenSequence, params: EncoderParams, mode: str) -> TokenSequence:
    """Attention (per mode), residual + norm, feed-forward, residual + norm."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "divided":
        after_time = replace(seq, tokens=_grouped_attention(seq, params, "temporal"))
        z = _grouped_attention(after_time, params, "spatial")
    else:
        z = _grouped_attention(seq, params, mode)

    x = seq.tokens
    h = layer_norm(z + x, params.norm1_gamma, params.norm1_beta)
    f = linear(relu(linear(h, params.w_ffn1, params.b_ffn1)), params.w_ffn2, params.b_ffn2)
    y = layer_norm(f + h, params.norm2_gamma, params.norm2_beta)
    return replace(seq, tokens=y)


CLASSIFICATION_CSV_HEADER = "clip_id,class_id,probability"
