"""Inflated-3D feature extractor: stacked conv/pool/norm/dropout blocks.

Each block applies, in order: 3D convolution, ReLU, 3D max pooling,
inference-mode batch normalization, dropout.  A forward pass chains the
blocks and finishes with per-channel global average pooling.  Plain blocks
with channel widths chosen at desk scale stand in for the Inception-style
branch topology, whose per-branch widths are not part of this build.

Every stage runs on a [B, C, T, H, W] stack of B clips and gives each clip
the bits it gets on its own: the convolution is one matrix product per clip,
and dropout draws each clip's mask from that clip's seed.  Dropout, at the
fixed probability ``DROPOUT``, runs exactly when the caller passes one seed
per clip, as the trainer does; without seeds the blocks are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive_seed
from .tensorops import (
    ConvSpec,
    as_tensor,  # noqa: F401  (unused here; perfbench counts as_tensor calls through this name)
    batch_norm,
    conv3d,
    dropout,
    global_avg_pool,
    pool3d_max,
    relu,
)


@dataclass
class I3DBlockParams:
    conv_weight: np.ndarray
    conv_bias: np.ndarray
    pool_spec: ConvSpec
    bn_gamma: np.ndarray
    bn_beta: np.ndarray


def i3d_block(x: np.ndarray, params: I3DBlockParams, seeds=None) -> np.ndarray:
    """conv3d -> relu -> pool3d_max -> batch_norm -> dropout on [B,C,T,H,W], exactly in order.

    The convolution is ``CONV`` and the normalization uses the identity
    statistics ``BN_MEAN`` and ``BN_VAR`` with ``batch_norm``'s default eps.
    ``seeds`` holds one dropout seed per clip; without them dropout is skipped.
    """
    out = relu(conv3d(x, params.conv_weight, CONV, bias=params.conv_bias))
    out = pool3d_max(out, params.pool_spec)
    out = batch_norm(out, BN_MEAN, BN_VAR, params.bn_gamma, params.bn_beta, axis=1)
    if seeds is None:
        return out
    return np.stack([dropout(clip, DROPOUT, seed) for clip, seed in zip(out, seeds)])


def i3d_forward(clips: np.ndarray, blocks: list[I3DBlockParams], seeds=None) -> np.ndarray:
    """Run the block stack on [B,C,T,H,W] and globally average to [B, C_final].

    ``seeds``, when given, holds one dropout seed per clip; block i of a clip
    draws its dropout mask from ``derive_seed(seed, "i3d-block", i)``.
    Preconditions the caller keeps: ``clips`` is a float64 [B,C,T,H,W] array,
    ``blocks`` is not empty, and each block's weights take the channels the
    one before it gives.  A block whose window leaves an empty output raises
    ``ValueError`` from ``ConvSpec.output_extents``.
    """
    out = clips
    for i, params in enumerate(blocks):
        block_seeds = None if seeds is None else [derive_seed(s, "i3d-block", i) for s in seeds]
        out = i3d_block(out, params, block_seeds)
    return global_avg_pool(out)


DROPOUT = 0.05  # each block's dropout probability, applied when seeds are given
WIDTHS = (8, 16, 32)  # each block's output channels
POOLS = ((2, 2, 2), (2, 2, 2), (2, 3, 3))  # each block's max-pool kernel and stride
CONV = ConvSpec(kernel=(3, 3, 3), padding=(1, 1, 1))  # every block's convolution
# Identity normalization statistics, broadcast over every block's channels:
# no running statistics are learned here.
BN_MEAN = np.zeros(1)
BN_VAR = np.ones(1)
BN_MEAN.setflags(write=False)
BN_VAR.setflags(write=False)


@dataclass
class I3DStack:
    """Desk-scale three-block stack (``WIDTHS`` channels, ``POOLS``) with seeded weights.

    The seed alone identifies the weights.  The convolution spec ``CONV`` and
    the identity statistics ``BN_MEAN`` and ``BN_VAR`` are module constants
    shared by every block; dropout runs only under the trainer, which passes
    per-epoch seeds.
    """

    seed: int = 0
    blocks: list[I3DBlockParams] = field(init=False, repr=False)

    def __post_init__(self):
        rng = Rng(self.seed)
        self.blocks = []
        c_prev = 1  # single-channel clips
        for width, pool in zip(WIDTHS, POOLS):
            fan_in = c_prev * math.prod(CONV.kernel)
            w = rng.normals(width * fan_in).reshape(width, c_prev, *CONV.kernel)
            w *= math.sqrt(2.0 / fan_in)
            self.blocks.append(
                I3DBlockParams(
                    conv_weight=w,
                    conv_bias=np.zeros(width),
                    pool_spec=ConvSpec(kernel=pool, stride=pool),
                    bn_gamma=np.ones(width),
                    bn_beta=np.zeros(width),
                )
            )
            c_prev = width

    def forward(self, clips: np.ndarray, seeds=None) -> np.ndarray:
        """[B, C_final] features of a [B,C,T,H,W] stack; ``seeds`` one per clip, for dropout."""
        return i3d_forward(clips, self.blocks, seeds)
