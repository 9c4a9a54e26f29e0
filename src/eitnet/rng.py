"""Deterministic 64-bit PRNG used for every stochastic choice in the package.

The generator is SplitMix64.  State advances by the golden-ratio increment
``0x9E3779B97F4A7C15`` and each output applies the finalizer

    z  = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64.  The k-th output after seeding with ``s``
is ``mix(s + (k+1)*INCREMENT)``, so bulk draws can be vectorised without
changing the stream: ``_raw_rows`` builds one counter array for every stream
it draws from and runs the finalizer over it in place, and each stream may
keep a different number of that pass's outputs.  Derived conventions,
fixed so that any implementation of this generator reproduces identical
dropout masks, weight tables, datasets, splits and simulations from the
same root seed:

* ``uniform``: top 53 bits of one output, divided by 2**53 (range [0, 1)).
* ``normal``: Box-Muller on pairs of outputs; the first uniform is mapped
  to (0, 1] as ``(bits + 1) / 2**53`` before the log.
* ``shuffle``: Fisher-Yates, drawing ``next_u64() % (i + 1)`` for position i
  from the end.
* child seeds: ``derive_seed(root, *labels)`` is FNV-1a(64) over the root
  seed and the labels' text, passed once through the finalizer.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """The finalizer run in place on ``z``, an array the caller owns; returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def unit_floats(bits: np.ndarray) -> np.ndarray:
    """The ``uniform`` convention applied to raw outputs: floats in [0, 1)."""
    return (bits >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def box_muller(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``normal`` convention on raw output pairs: (r cos, r sin); inputs left unchanged."""
    r = (first >> np.uint64(11)).astype(np.float64)
    r += 1.0
    r /= float(1 << 53)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = unit_floats(second)
    theta *= 2.0 * np.pi
    cos, sin = np.cos(theta), np.sin(theta, out=theta)
    cos *= r
    sin *= r
    return cos, sin


def _fnv1a(seed: int, parts: tuple) -> int:
    h = _FNV_OFFSET
    for byte in seed.to_bytes(8, "little"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    for part in parts:
        for byte in str(part).encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """Seedable SplitMix64 stream with the draw conventions documented above."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & _MASK64
        return _mix(self._state)

    def raw(self, n: int) -> np.ndarray:
        """n consecutive outputs, vectorised; advances the state by n."""
        return _raw_rows([self], n)[0]

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniforms(self, n: int) -> np.ndarray:
        return uniforms_rows([self], n)[0]

    def normals(self, n: int) -> np.ndarray:
        return normals_rows([self], n)[0]

    def below(self, n: int) -> int:
        """Integer in [0, n) as next_u64() % n; the modulo draw is part of the documented stream."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _raw_rows(rngs: list[Rng], n: int, taken: list[int] | None = None) -> np.ndarray:
    """[len(rngs), n]: row i is the next n outputs of ``rngs[i]``.

    Each stream advances by n, or by ``taken[i]`` (from 0 to n) when given:
    row i's outputs past ``taken[i]`` are then the ones its next draw returns
    again, so streams that need different counts share one pass.
    """
    if n < 0:
        raise ValueError("draw count must be nonnegative")
    if taken is None:
        taken = [n] * len(rngs)
    states = np.array([rng._state for rng in rngs], dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters = states[:, None] + np.uint64(_INCREMENT) * np.arange(1, n + 1, dtype=np.uint64)
        out = _mix_array(counters)  # in place: the counters are this call's own
    for rng, t in zip(rngs, taken, strict=True):
        rng._state = (rng._state + t * _INCREMENT) & _MASK64
    return out


def uniforms_rows(rngs: list[Rng], n: int) -> np.ndarray:
    """[len(rngs), n]: row i equals ``rngs[i].uniforms(n)``, all drawn in one array pass."""
    return unit_floats(_raw_rows(rngs, n))


def normals_rows(rngs: list[Rng], n: int) -> np.ndarray:
    """[len(rngs), n]: row i equals ``rngs[i].normals(n)``, all drawn in one array pass.

    Output k of a stream is ``mix(state + (k+1)*INCREMENT)``, so one counter
    array covers every stream, and Box-Muller is elementwise on the pairs.
    """
    pairs = (n + 1) // 2
    bits = _raw_rows(rngs, 2 * pairs)
    out = np.empty((len(rngs), 2 * pairs))
    out[:, 0::2], out[:, 1::2] = box_muller(bits[:, 0::2], bits[:, 1::2])
    return out[:, :n]


def derive_seed(root: int, *labels) -> int:
    """Stable child seed for a labelled stream under a fixed root seed."""
    return _mix(_fnv1a(root & _MASK64, labels))
