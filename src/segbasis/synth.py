"""Deterministic synthetic function sets and Gaussian noise injection.

The generator is a stand-in for spectra-like data: a mean curve made of
Gaussian bumps of widely varying width, per-function amplitude jitter, and an
exact affine rescale of the pooled values onto a target range.

Randomness is pinned down to the bit: splitmix64 streams produce 53-bit
uniforms, and normals come from the Box-Muller transform on consecutive
uniform pairs.  Each function draws from its own stream, seeded from one
master stream, so generation is reproducible and order-independent across
functions.

splitmix64 is counter-based: output t of a stream is a fixed mix of the state
``seed + t * gamma`` (mod 2^64), so all outputs of all streams are computed at
once as one uint64 array.  The bulk path leaves to numpy only operations that
IEEE 754 rounds exactly (integer mixing, the shift and scale to a uniform,
products, negation and sqrt) and keeps their association, so it gives the
bits of the generator stepped one output at a time in Python.  Only log1p
is mapped from :mod:`math`, because numpy's version rounds differently: with
numpy 2.4 on x86-64, ``np.log1p`` differs from ``math.log1p`` on 147,387 of
the first 2,000,000 uniforms of seed 0.  ``np.cos`` and ``np.sin`` gave
``math.cos`` and ``math.sin``'s bits on all of 2,000,000 uniform angles in
[0, 2 pi) there, so they run on whole arrays; the bulk-versus-scalar stream
tests check that assumption on more than 100k angles per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FunctionalDataset, new_dataset

_MASK64 = (1 << 64) - 1


# splitmix64 constants as np.uint64, so that mixing never promotes to float
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seeds: np.ndarray, count: int) -> np.ndarray:
    """Outputs 1..count of the splitmix64 stream of each seed, as a
    (seeds, count) uint64 array: output t mixes the state seed + t * gamma."""
    z = seeds[:, None] + _GAMMA * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _normals(seed: int, n: int, count: int) -> np.ndarray:
    """The first ``count`` normals of each of n function streams, (n, count).

    Function i's stream is seeded with output i+1 of the master stream of
    ``seed``; its normals are Box-Muller pairs of consecutive uniforms u1, u2,
    sqrt(-2 log1p(-u1)) times cos and sin of 2 pi u2, interleaved z0, z1.
    """
    seeds = _splitmix64(np.array([seed & _MASK64], dtype=np.uint64), n)[0]
    pairs = (count + 1) // 2
    u = (_splitmix64(seeds, 2 * pairs) >> np.uint64(11)) * 2.0**-53
    u1, u2 = u[:, 0::2].ravel(), u[:, 1::2].ravel()
    # only log1p is mapped from math, which np.log1p does not match bit for
    # bit (see the module docstring); a memoryview yields Python floats one
    # at a time, without a list
    log = np.fromiter(map(math.log1p, memoryview(-u1)), np.float64, u1.size)
    r = np.sqrt(-2.0 * log)
    theta = (2.0 * math.pi) * u2
    z = np.empty((n, 2 * pairs))
    z[:, 0::2] = (r * np.cos(theta)).reshape(n, pairs)
    z[:, 1::2] = (r * np.sin(theta)).reshape(n, pairs)
    return z[:, :count]


Bump = tuple[float, float, float]  # (center in [0,1], width > 0, amplitude)

# Widths span 0.0025 to 0.08: broad rolling features, compact peaks, and one
# near-point spike (centered on a grid point of the default 256-point grid).
DEFAULT_BUMPS: tuple[Bump, ...] = (
    (0.10, 0.015, 1.0),
    (0.30, 0.018, -0.8),
    (112 / 255, 0.0025, 0.4),
    (0.50, 0.08, 0.6),
    (0.68, 0.012, 0.9),
    (0.85, 0.015, -0.6),
)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic generator.

    The default shape mimics a spectrum whose smoothness varies along the
    range: broad rolling features next to narrow peaks, 124 curves on 256
    points, rescaled onto [-0.265, 0.581].
    """

    n: int = 124
    m: int = 256
    bumps: tuple[Bump, ...] = DEFAULT_BUMPS
    jitter: float = 0.2
    lo: float = -0.265
    hi: float = 0.581

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        fields = [("jitter", self.jitter), ("lo", self.lo), ("hi", self.hi)]
        for bump in self.bumps:
            fields += zip(("bump center", "bump width", "bump amplitude"), bump)
        for name, value in fields:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if any(w <= 0 for _, w, _ in self.bumps):
            raise ValueError("bump widths must be positive")
        if not self.lo < self.hi:
            raise ValueError("value range is empty: lo must be below hi")


def generate(spec: SynthSpec, seed: int) -> FunctionalDataset:
    """Deterministic dataset for (spec, seed).

    Functions are the bump mixture with per-function, per-bump amplitude
    jitter (scale ``spec.jitter``), on an equispaced grid over [0, 1], then
    rescaled affinely so the pooled minimum and maximum hit ``spec.lo`` and
    ``spec.hi`` exactly.  Raises "flat range" when the raw values are all
    equal and no such rescale exists.
    """
    spec.validate()
    grid = np.linspace(0.0, 1.0, spec.m)
    if spec.bumps:
        shapes = np.stack(
            [np.exp(-0.5 * ((grid - c) / w) ** 2) for c, w, _ in spec.bumps]
        )
        base_amps = np.array([a for _, _, a in spec.bumps])
    else:
        shapes = np.zeros((0, spec.m))
        base_amps = np.zeros(0)
    amps = base_amps * (1.0 + spec.jitter * _normals(seed, spec.n, base_amps.size))
    raw = np.empty((spec.n, spec.m), dtype=np.float64)
    for i in range(spec.n):
        raw[i] = amps[i] @ shapes  # one product per row: a GEMM may sum otherwise
    mn = raw.min()
    mx = raw.max()
    if mx == mn:
        raise ValueError("flat range: generated values are constant, cannot rescale")
    scaled = spec.lo + (raw - mn) / (mx - mn) * (spec.hi - spec.lo)
    np.clip(scaled, spec.lo, spec.hi, out=scaled)
    scaled[raw == mn] = spec.lo
    scaled[raw == mx] = spec.hi
    return new_dataset(grid, scaled)


def add_noise(dataset: FunctionalDataset, sigma: float, seed: int) -> FunctionalDataset:
    """Add i.i.d. N(0, sigma^2) noise to every entry.

    Each function gets its own derived noise stream, applied left to right.
    sigma = 0 returns the dataset unchanged; a sigma so large that a noisy
    value overflows raises ValueError.
    """
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be nonnegative and finite")
    if sigma == 0:
        return dataset
    noise = _normals(seed, dataset.n, dataset.m)
    try:
        with np.errstate(over="raise"):
            values = dataset.values + sigma * noise
    except FloatingPointError:
        raise ValueError(f"sigma {sigma!r} too large: a noisy value overflows") from None
    return new_dataset(dataset.grid, values)
