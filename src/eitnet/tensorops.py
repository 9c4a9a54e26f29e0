"""Dense-tensor kernels for the recognition pipeline.

All math runs in float64.  A tensor is a C-contiguous ``numpy.ndarray`` of
dtype float64 with one to five axes (batch, channel, time, height, width at
most); ``as_tensor`` validates shape and finiteness.  Every kernel is a pure
function: inputs are never mutated and outputs are freshly allocated, so
values can be shared freely across threads.

Validation happens at the program's edges, not in every kernel:
``as_tensor`` runs where a clip enters the pipeline
(``PipelineModel.crop_clip``), on file loads (``load_tensor``) and on each
synthetic sample, and ``PipelineModel.extract`` rejects features that are not
finite.  The kernels take their arrays with ``np.asarray(x, dtype=np.float64)``,
which copies nothing for a float64 array and scans nothing; they check only
ranks and shapes.

Serialization uses a little-endian binary layout: magic ``EITT``, u8 rank,
rank x u32 extents, then the row-major float64 payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import Rng

TENSOR_MAGIC = b"EITT"
MAX_RANK = 5

Triple = tuple[int, int, int]


def as_tensor(data, shape=None) -> np.ndarray:
    """Validate and return a float64 C-order tensor (1..5 axes, finite values)."""
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
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
    bias_enabled: bool = True

    def __post_init__(self):
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


def _pad(x: np.ndarray, padding: Triple, fill: float) -> np.ndarray:
    """Copy of [C,T,H,W] x with ``padding`` cells of ``fill`` around its last three axes."""
    pt, ph, pw = padding
    c, t, h, w = x.shape
    out = np.full((c, t + 2 * pt, h + 2 * ph, w + 2 * pw), fill)
    out[:, pt : pt + t, ph : ph + h, pw : pw + w] = x
    return out


def _windows(padded: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Sliding [.., T', H', W', kt, kh, kw] view over the last three axes."""
    view = np.lib.stride_tricks.sliding_window_view(padded, spec.kernel, axis=(-3, -2, -1))
    st, sh, sw = spec.stride
    return view[..., ::st, ::sh, ::sw, :, :, :]


def conv3d(
    x: np.ndarray, weights: np.ndarray, spec: ConvSpec, bias: np.ndarray | None = None
) -> np.ndarray:
    """3D cross-correlation of [C_in,T,H,W] with [C_out,C_in,kt,kh,kw] plus bias."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"conv3d input must be [C,T,H,W], got rank {x.ndim}")
    if weights.ndim != 5:
        raise ValueError(f"conv3d weights must be [C_out,C_in,kt,kh,kw], got rank {weights.ndim}")
    if weights.shape[1] != x.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[0]}, weights expect {weights.shape[1]}"
        )
    if tuple(weights.shape[2:]) != tuple(spec.kernel):
        raise ValueError(f"weights kernel {weights.shape[2:]} != spec kernel {spec.kernel}")
    spec.output_extents(x.shape[1:])
    c_out = weights.shape[0]
    if spec.bias_enabled:
        if bias is None:
            raise ValueError("spec enables bias but none was given")
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (c_out,):
            raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")

    win = _windows(_pad(x, spec.padding, 0.0), spec)
    out = np.einsum("cthwijk,ocijk->othw", win, weights, optimize=True)
    if spec.bias_enabled:
        out = out + bias[:, None, None, None]
    return np.ascontiguousarray(out)


def pool3d_max(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Max over each window of the last three axes; padded cells never win.

    Padding cells are excluded from the max (not treated as zeros), which
    keeps outputs members of the input value multiset. Requires pad < kernel
    per axis so every window covers at least one real cell.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"pool3d_max input must be [C,T,H,W], got rank {x.ndim}")
    spec.output_extents(x.shape[1:])
    if any(p >= k for p, k in zip(spec.padding, spec.kernel)):
        raise ValueError(f"padding {spec.padding} must be < kernel {spec.kernel}")
    padded = _pad(x, spec.padding, -np.inf) if any(spec.padding) else x
    win = _windows(padded, spec)
    return np.ascontiguousarray(win.max(axis=(-3, -2, -1)))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode normalization over axis 0 channels with supplied statistics."""
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[0]
    mean, var, gamma, beta = (np.asarray(a, dtype=np.float64) for a in (mean, var, gamma, beta))
    for name, a in (("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)):
        if a.shape != (c,):
            raise ValueError(f"{name} must have shape ({c},), got {a.shape}")
    if np.any(var < 0):
        raise ValueError("variance must be nonnegative")
    expand = (slice(None),) + (None,) * (x.ndim - 1)
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
    """Per-channel mean over all temporal-spatial cells of [C,T,H,W]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool input must be [C,T,H,W], got rank {x.ndim}")
    return x.mean(axis=(1, 2, 3))


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
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


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
    rank = blob[4]
    if rank < 1 or rank > MAX_RANK:
        raise ValueError(f"unsupported tensor rank {rank}")
    header_len = 5 + 4 * rank
    shape = struct.unpack(f"<{rank}I", blob[5:header_len])
    count = int(np.prod(shape))
    expected = header_len + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor file length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=header_len, count=count)
    return as_tensor(data.reshape(shape))
