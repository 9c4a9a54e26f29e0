"""Dense-tensor kernels for the recognition pipeline.

All math runs in float64.  A tensor is a C-contiguous ``numpy.ndarray`` of
dtype float64 with one to five axes (batch, channel, time, height, width at
most); ``as_tensor`` validates shape and finiteness.  Every kernel is a pure
function: inputs are never mutated and outputs are freshly allocated, so
values can be shared freely across threads.

Validation happens at the program's edges, not in every kernel:
``as_tensor`` runs where clips enter the pipeline
(``PipelineModel.extract_batch``), on file loads (``load_tensor``) and on
each synthetic sample, and ``PipelineModel.extract_batch`` rejects features
that are not finite.  The kernels take their arrays with
``np.asarray(x, dtype=np.float64)``, which copies nothing for a float64 array
and scans nothing; they check only ranks and shapes.

``conv3d`` and ``pool3d_max`` take one ``[C, T, H, W]`` input or a
``[B, C, T, H, W]`` stack of B, and are lowered to one gather and one
reduction (im2col).  ``_window_index`` maps every (kernel offset, output
position) pair to a cell of the input flattened to ``[C, T*H*W + 1]``, whose
extra last cell holds the padding value (0 for the convolution, -inf for the
pool).  One ``np.take`` gathers the ``[(B,) C, K, M]`` window cells; the pool
takes their max, the convolution multiplies ``[C_out, C_in*K]`` weights by
them as ``[C_in*K, M]`` matrices, one matrix product per stacked input.  That
is the matrix product, in the same operand order and layouts, that
``np.einsum(optimize=True)`` ran for the pipeline's convolutions, so their
outputs keep their bits, and a stacked input gives the bits of its inputs run
one at a time.  The index depends only on the input extents and the
``ConvSpec``; it is built once per pair in a bounded ``functools.lru_cache``
and returned read-only, so a cached value is never mutated and the kernels
stay pure.

Inside a ``count_macs()`` block, ``conv3d`` (weights x output positions x
stacked inputs) and ``linear`` (rows x d_in x d_out) add their matrix
products' multiply-accumulates to the block's total, the EfficientDet
convention; outside one, a kernel pays one ``ContextVar`` lookup.

Serialization uses a little-endian binary layout: magic ``EITT``, u8 rank,
rank x u32 extents, then the row-major float64 payload.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .rng import Rng

TENSOR_MAGIC = b"EITT"
MAX_RANK = 5

Triple = tuple[int, int, int]


@dataclass
class MacCount:
    """The multiply-accumulates counted so far in a ``count_macs()`` block."""

    total: int = 0


# The open count_macs() block's total, or None outside one.
MACS: contextvars.ContextVar[MacCount | None] = contextvars.ContextVar("macs", default=None)


@contextmanager
def count_macs():
    """Yield a ``MacCount`` that the counted kernels called within the block add to.

    A nested block starts its own total; the enclosing block's does not see it.
    """
    token = MACS.set(count := MacCount())
    try:
        yield count
    finally:
        MACS.reset(token)


def as_tensor(data) -> np.ndarray:
    """Validate and return a float64 C-order tensor (1..5 axes, finite values)."""
    arr = np.asarray(data, dtype=np.float64)
    arr = np.ascontiguousarray(arr) if arr.ndim else arr
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise ValueError(f"tensor rank must be 1..{MAX_RANK}, got {arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"tensor extents must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor values must be finite")
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Kernel extents, strides and per-axis zero-pad counts for 3D ops."""

    kernel: Triple
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)

    def __post_init__(self):
        for name in ("kernel", "stride", "padding"):
            value = getattr(self, name)
            try:
                triple = tuple(operator.index(v) for v in value)
            except TypeError:
                raise ValueError(f"{name} must be 3 integers, got {value!r}") from None
            if len(triple) != 3:
                raise ValueError(f"{name} must be 3 integers, got {value!r}")
            object.__setattr__(self, name, triple)
        if any(k < 1 for k in self.kernel):
            raise ValueError(f"kernel extents must be >= 1, got {self.kernel}")
        if any(s < 1 for s in self.stride):
            raise ValueError(f"strides must be >= 1, got {self.stride}")
        if any(p < 0 for p in self.padding):
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    def output_extents(self, in_extents: Triple) -> Triple:
        out = []
        for n, k, s, p in zip(in_extents, self.kernel, self.stride, self.padding):
            m = (n + 2 * p - k) // s + 1
            if n + 2 * p < k or m < 1:
                raise ValueError(
                    f"window {self.kernel} stride {self.stride} pad {self.padding} "
                    f"yields empty output for input extents {in_extents}"
                )
            out.append(m)
        return tuple(out)


@functools.lru_cache(maxsize=64)
def _window_index(extents: Triple, spec: ConvSpec) -> np.ndarray:
    """Read-only [kt*kh*kw, T'*H'*W'] index of each window cell in a flat [T*H*W + 1] row.

    Rows run over the kernel offsets, columns over the output positions, both
    row-major.  A cell that falls in the padding indexes the extra last slot,
    where the caller puts its fill value.
    """
    out = spec.output_extents(extents)  # not cached: an empty output raises on every call
    cells = math.prod(extents)
    ids = np.full([n + 2 * p for n, p in zip(extents, spec.padding)], cells)  # padded grid
    inner = tuple(slice(p, p + n) for n, p in zip(extents, spec.padding))
    ids[inner] = np.arange(cells).reshape(extents)
    t, h, w = (
        np.arange(k)[:, None] + s * np.arange(m) for k, s, m in zip(spec.kernel, spec.stride, out)
    )  # [k, m] padded coordinates per axis
    index = ids[t[:, None, None, :, None, None], h[:, None, None, :, None], w[:, None, None, :]]
    index = index.reshape(math.prod(spec.kernel), -1)
    index.setflags(write=False)
    return index


def _gather_windows(x: np.ndarray, index: np.ndarray, fill: float) -> np.ndarray:
    """[..., C, K, M] window cells of [..., C,T,H,W] x, with ``fill`` in the padding cells."""
    lead = x.shape[:-3]
    rows = np.empty(lead + (math.prod(x.shape[-3:]) + 1,))
    rows[..., :-1] = x.reshape(lead + (-1,))
    rows[..., -1] = fill
    return np.take(rows, index, axis=-1)


def conv3d(
    x: np.ndarray, weights: np.ndarray, spec: ConvSpec, bias: np.ndarray | None = None
) -> np.ndarray:
    """3D cross-correlation of [(B,) C_in,T,H,W] with [C_out,C_in,kt,kh,kw], plus bias if given."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if x.ndim not in (4, 5):
        raise ValueError(f"conv3d input must be [C,T,H,W] or [B,C,T,H,W], got rank {x.ndim}")
    if weights.ndim != 5:
        raise ValueError(f"conv3d weights must be [C_out,C_in,kt,kh,kw], got rank {weights.ndim}")
    if weights.shape[1] != x.shape[-4]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[-4]}, weights expect {weights.shape[1]}"
        )
    if tuple(weights.shape[2:]) != tuple(spec.kernel):
        raise ValueError(f"weights kernel {weights.shape[2:]} != spec kernel {spec.kernel}")
    out_extents = spec.output_extents(x.shape[-3:])
    c_out = weights.shape[0]
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (c_out,):
            raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")

    index = _window_index(x.shape[-3:], spec)
    lead = x.shape[:-4]
    cols = _gather_windows(x, index, 0.0).reshape(lead + (-1, index.shape[1]))  # [C_in*K, M]
    out = (weights.reshape(c_out, -1) @ cols).reshape(lead + (c_out,) + out_extents)
    if (count := MACS.get()) is not None:
        count.total += c_out * cols.size
    if bias is not None:
        out = out + bias[:, None, None, None]
    return out


def pool3d_max(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Max over each window of the last three axes; padded cells never win.

    Padding cells are excluded from the max (not treated as zeros), which
    keeps outputs members of the input value multiset. Requires pad < kernel
    per axis so every window covers at least one real cell.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (4, 5):
        raise ValueError(f"pool3d_max input must be [C,T,H,W] or [B,C,T,H,W], got rank {x.ndim}")
    out_extents = spec.output_extents(x.shape[-3:])
    if any(p >= k for p, k in zip(spec.padding, spec.kernel)):
        raise ValueError(f"padding {spec.padding} must be < kernel {spec.kernel}")
    cells = _gather_windows(x, _window_index(x.shape[-3:], spec), -np.inf)
    return cells.max(axis=-2).reshape(x.shape[:-3] + out_extents)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    axis: int = 0,
) -> np.ndarray:
    """Inference-mode normalization of the channels on ``axis`` with supplied statistics."""
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[axis]
    mean, var, gamma, beta = (np.asarray(a, dtype=np.float64) for a in (mean, var, gamma, beta))
    for name, a in (("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)):
        if a.shape != (c,):
            raise ValueError(f"{name} must have shape ({c},), got {a.shape}")
    if np.any(var < 0):
        raise ValueError("variance must be nonnegative")
    expand = (slice(None),) + (None,) * (x.ndim - 1 - axis % x.ndim)
    return gamma[expand] * (x - mean[expand]) / np.sqrt(var[expand] + eps) + beta[expand]


def dropout(x: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Zero each element with probability p (seeded), scaling survivors by 1/(1-p)."""
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability must be in [0, 1], got {p}")
    if p == 0.0:
        return x.copy()
    if p == 1.0:
        return np.zeros_like(x)
    draws = Rng(seed).uniforms(x.size).reshape(x.shape)
    keep = draws >= p
    return np.where(keep, x / (1.0 - p), 0.0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over all temporal-spatial cells of [(B,) C,T,H,W]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (4, 5):
        raise ValueError(
            f"global_avg_pool input must be [C,T,H,W] or [B,C,T,H,W], got rank {x.ndim}"
        )
    return x.mean(axis=(-3, -2, -1))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"axis {axis} out of range for rank {x.ndim}")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"gamma/beta must have shape ({d},)")
    # One centering serves the variance and the output: the same sums and
    # divisions as x.mean and x.var, so bitwise equal to them.
    c = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(c * c, axis=-1, keepdims=True) / d
    return gamma * c / np.sqrt(var + eps) + beta


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Matrix product over the last axis plus broadcast bias."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError(f"weight must be [d_in, d_out], got rank {weight.ndim}")
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: input has {x.shape[-1]}, weight expects {weight.shape[0]}"
        )
    out = x @ weight
    if (count := MACS.get()) is not None:
        count.total += x.size * weight.shape[1]
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (weight.shape[1],):
            raise ValueError(f"bias must have shape ({weight.shape[1]},), got {bias.shape}")
        out = out + bias
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(np.asarray(x, dtype=np.float64) / 2.0))


def save_tensor(path, x: np.ndarray) -> None:
    x = as_tensor(x)
    header = TENSOR_MAGIC + struct.pack("<B", x.ndim)
    header += struct.pack(f"<{x.ndim}I", *x.shape)
    payload = x.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError("not a tensor file (bad magic)")
    if len(blob) < 5 or len(blob) < 5 + 4 * blob[4]:
        raise ValueError(f"tensor file of {len(blob)} bytes ends inside its header")
    rank = blob[4]
    if rank < 1 or rank > MAX_RANK:
        raise ValueError(f"unsupported tensor rank {rank}")
    header_len = 5 + 4 * rank
    shape = struct.unpack(f"<{rank}I", blob[5:header_len])
    count = math.prod(shape)  # unbounded, so a huge header fails the length check below
    expected = header_len + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor file length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=header_len, count=count)
    return as_tensor(data.reshape(shape))
