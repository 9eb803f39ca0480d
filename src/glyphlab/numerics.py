"""Deterministic float64 tensor helpers and a portable PRNG.

Everything downstream leans on two guarantees made here: all numeric
state is 64-bit, and every random draw is reproducible from an integer
seed, bit for bit, on any platform. The generator is splitmix64: a
single 64-bit counter state advanced by a fixed odd constant and passed
through an avalanche mix, which makes bulk generation vectorizable
(state after k steps is `seed + k * GAMMA mod 2^64`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

# Tensors are plain float64 ndarrays throughout the package.
Tensor = np.ndarray

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Hash (seed, *parts) into a new 64-bit seed.

    Order sensitive, so (seed, epoch, i) and (seed, i, epoch) give
    unrelated streams. Used to hand out independent child generators
    for splits, initialization, shuffling and per-image augmentation.
    """
    s = seed & _MASK64
    for p in parts:
        s = _mix64(((s + _GAMMA) & _MASK64) ^ (int(p) & _MASK64))
    return s


class Rng:
    """splitmix64 stream. Single-owner: share seeds, not instances."""

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0):
        self._state = int(seed) & _MASK64

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Draw from U[lo, hi). Degenerate lo == hi returns lo exactly."""
        if lo > hi:
            raise ArgumentError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        u = (self.next_u64() >> 11) * _U53
        v = lo + (hi - lo) * u
        if v >= hi and lo < hi:  # guard the open upper bound against rounding
            v = math.nextafter(hi, lo)
        return v

    def _bulk_u64(self, n: int) -> np.ndarray:
        """n raw draws, identical to n successive next_u64 calls."""
        ks = np.arange(1, n + 1, dtype=np.uint64)
        s = np.uint64(self._state) + ks * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (s ^ (s >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> Tensor:
        if lo > hi:
            raise ArgumentError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * _U53
        v = lo + (hi - lo) * u
        if lo < hi:
            np.minimum(v, math.nextafter(hi, lo), out=v)
        return v.reshape(shape)

    def normal_array(self, shape, mean: float = 0.0, std: float = 1.0) -> Tensor:
        """Box-Muller on paired uniform draws; consumes 2 u64 per value."""
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._bulk_u64(2 * n) >> np.uint64(11)).astype(np.float64) * _U53
        u1 = np.maximum(u[:n], _U53)  # keep log() finite
        u2 = u[n:]
        g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        return (mean + std * g).reshape(shape)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ArgumentError(f"randrange needs n >= 1, got {n}")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def glorot_init(rng: Rng, fan_in: int, fan_out: int, shape) -> Tensor:
    """Uniform Glorot draw: i.i.d. U(-L, L) with L = sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ArgumentError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_array(tuple(shape), -limit, limit)
