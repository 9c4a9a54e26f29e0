"""Inflated-3D feature extractor: stacked conv/pool/norm/dropout blocks.

Each block applies, in order: 3D convolution, ReLU, 3D max pooling,
inference-mode batch normalization, dropout.  A forward pass chains the
blocks and finishes with per-channel global average pooling; the classifier
head is a linear map plus softmax.  Plain blocks with channel widths chosen
at desk scale stand in for the Inception-style branch topology, whose
per-branch widths are not part of this build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive_seed
from .tensorops import (
    ConvSpec,
    as_tensor,
    batch_norm,
    conv3d,
    dropout,
    global_avg_pool,
    linear,
    pool3d_max,
    relu,
    softmax,
)


@dataclass
class I3DBlockParams:
    conv_weight: np.ndarray
    conv_bias: np.ndarray
    conv_spec: ConvSpec
    pool_spec: ConvSpec
    bn_mean: np.ndarray
    bn_var: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_eps: float = 1e-5
    dropout_p: float = 0.0


@dataclass
class I3DHeadParams:
    weight: np.ndarray  # [C_final, num_classes]
    bias: np.ndarray  # [num_classes]


def i3d_block(x: np.ndarray, params: I3DBlockParams, seed: int = 0) -> np.ndarray:
    """conv3d -> relu -> pool3d_max -> batch_norm -> dropout, exactly in order."""
    out = relu(conv3d(x, params.conv_weight, params.conv_spec, bias=params.conv_bias))
    out = pool3d_max(out, params.pool_spec)
    out = batch_norm(
        out, params.bn_mean, params.bn_var, params.bn_gamma, params.bn_beta, params.bn_eps
    )
    return dropout(out, params.dropout_p, seed)


def i3d_forward(clip: np.ndarray, blocks: list[I3DBlockParams], seed: int = 0) -> np.ndarray:
    """Run the block stack on [C,T,H,W] and globally average to [C_final]."""
    if not blocks:
        raise ValueError("i3d_forward needs at least one block")
    out = np.asarray(clip, dtype=np.float64)
    for i, params in enumerate(blocks):
        try:
            out = i3d_block(out, params, seed=derive_seed(seed, "i3d-block", i))
        except ValueError as exc:
            raise ValueError(f"block {i}: {exc}") from exc
    return global_avg_pool(out)


def i3d_classify(features: np.ndarray, head: I3DHeadParams) -> np.ndarray:
    features = as_tensor(features)
    logits = linear(features[None, :], head.weight, head.bias)[0]
    return softmax(logits)


DEFAULT_POOLS = ((2, 2, 2), (2, 2, 2), (2, 3, 3))


@dataclass
class I3DStack:
    """Desk-scale three-block stack (channels 8 -> 16 -> 32) with seeded weights.

    Normalization statistics are fixed at identity (mean 0, var 1) since no
    running statistics are learned here; dropout stays 0 except under the
    trainer, which passes per-epoch probabilities and seeds.
    """

    in_channels: int = 1
    widths: tuple[int, ...] = (8, 16, 32)
    pools: tuple[tuple[int, int, int], ...] = DEFAULT_POOLS
    seed: int = 0
    blocks: list[I3DBlockParams] = field(init=False, repr=False)

    def __post_init__(self):
        rng = Rng(self.seed)
        self.blocks = []
        c_prev = self.in_channels
        for width, pool in zip(self.widths, self.pools):
            fan_in = c_prev * 27
            w = rng.normals(width * fan_in).reshape(width, c_prev, 3, 3, 3) * math.sqrt(
                2.0 / fan_in
            )
            self.blocks.append(
                I3DBlockParams(
                    conv_weight=w,
                    conv_bias=np.zeros(width),
                    conv_spec=ConvSpec(kernel=(3, 3, 3), padding=(1, 1, 1)),
                    pool_spec=ConvSpec(kernel=pool, stride=pool),
                    bn_mean=np.zeros(width),
                    bn_var=np.ones(width),
                    bn_gamma=np.ones(width),
                    bn_beta=np.zeros(width),
                )
            )
            c_prev = width

    @property
    def out_channels(self) -> int:
        return self.widths[-1]

    def forward(self, clip: np.ndarray, dropout_p: float = 0.0, seed: int = 0) -> np.ndarray:
        if dropout_p == 0.0:
            return i3d_forward(clip, self.blocks, seed=seed)
        active = [
            I3DBlockParams(**{**b.__dict__, "dropout_p": dropout_p}) for b in self.blocks
        ]
        return i3d_forward(clip, active, seed=seed)
