"""Synthetic data generator: pinned PRNG streams, rescaling, noise."""

import numpy as np
import pytest
from oracles import SplitMix64

from segbasis import (
    DEFAULT_BUMPS,
    SynthSpec,
    add_noise,
    generate,
    new_dataset,
)
from segbasis.synth import _normals, _splitmix64

# Reference outputs of splitmix64 for seeds 0 and 1234567.  These pin the
# constants and the mixing order; everything downstream inherits them.
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED1234567_OUTPUTS = (0x599ED017FB08FC85, 0x2C73F08458540FA5)
MASK64 = (1 << 64) - 1


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_uint64() for _ in range(3)) == SEED0_OUTPUTS
    rng = SplitMix64(1234567)
    assert tuple(rng.next_uint64() for _ in range(2)) == SEED1234567_OUTPUTS


def test_splitmix64_uniform_values():
    rng = SplitMix64(0)
    assert rng.uniform() == 0.8833108082136426
    assert rng.uniform() == 0.43152799704850997
    assert rng.uniform() == 0.026433771592597743


def test_uniform_range():
    rng = SplitMix64(99)
    draws = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def _function_seeds(seed, n):
    return _splitmix64(np.array([seed & MASK64], dtype=np.uint64), n)[0].tolist()


def test_normal_stream_interleaves_pairs():
    pairs = SplitMix64(_function_seeds(5, 1)[0])
    expected = list(pairs.normal_pair()) + list(pairs.normal_pair())
    assert _normals(5, 1, 4)[0].tolist() == expected


def test_normal_moments():
    z = _normals(42, 1, 10_000)[0]
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_function_seeds_deterministic_and_distinct():
    seeds = _function_seeds(7, 8)
    assert seeds == _function_seeds(7, 8)
    assert len(set(seeds)) == 8
    assert seeds[:4] != _function_seeds(8, 4)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 0}, "n must be at least 1"),
        ({"m": 1}, "m must be at least 2"),
        ({"bumps": ((0.5, 0.0, 1.0),)}, "bump widths must be positive"),
        ({"lo": 1.0, "hi": 1.0}, "value range is empty"),
        ({"lo": 2.0, "hi": -2.0}, "value range is empty"),
        ({"jitter": float("nan")}, "jitter must be finite"),
        ({"lo": float("-inf")}, "lo must be finite"),
        ({"hi": float("inf")}, "hi must be finite"),
        ({"lo": float("nan")}, "lo must be finite"),
        ({"bumps": ((float("nan"), 0.1, 1.0),)}, "bump center must be finite"),
        ({"bumps": ((0.5, float("inf"), 1.0),)}, "bump width must be finite"),
        ({"bumps": ((0.5, 0.1, float("nan")),)},
         "bump amplitude must be finite"),
    ],
)
def test_spec_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SynthSpec(**kwargs).validate()


def test_generate_default_shape_and_range():
    ds = generate(SynthSpec(), seed=0)
    assert (ds.n, ds.m) == (124, 256)
    np.testing.assert_array_equal(ds.grid, np.linspace(0.0, 1.0, 256))
    # affine rescale hits the endpoints exactly, not just within tolerance
    assert ds.values.min() == -0.265
    assert ds.values.max() == 0.581


def test_generate_deterministic():
    spec = SynthSpec(n=5, m=32)
    a = generate(spec, seed=3)
    b = generate(spec, seed=3)
    np.testing.assert_array_equal(a.values, b.values)
    c = generate(spec, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_generate_flat_range_rejected():
    with pytest.raises(ValueError, match="flat range"):
        generate(SynthSpec(n=2, m=8, bumps=()), seed=0)


def test_default_bumps_include_near_point_spike():
    widths = [w for _, w, _ in DEFAULT_BUMPS]
    assert min(widths) < 2.0 / 255  # narrower than half a default grid step
    assert max(widths) >= 0.05


def test_add_noise_zero_sigma_is_identity():
    ds = generate(SynthSpec(n=3, m=16), seed=1)
    assert add_noise(ds, 0.0, seed=9) is ds


def test_add_noise_negative_sigma_rejected():
    ds = generate(SynthSpec(n=2, m=8), seed=1)
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        add_noise(ds, -0.1, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_add_noise_nonfinite_sigma_rejected(sigma):
    ds = generate(SynthSpec(n=2, m=8), seed=1)
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        add_noise(ds, sigma, seed=0)


def test_add_noise_deterministic_and_grid_preserving():
    ds = generate(SynthSpec(n=4, m=24), seed=2)
    a = add_noise(ds, 0.05, seed=11)
    b = add_noise(ds, 0.05, seed=11)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.grid, ds.grid)
    assert not np.array_equal(a.values, ds.values)
    assert not np.array_equal(a.values, add_noise(ds, 0.05, seed=12).values)


def test_add_noise_empirical_scale():
    ds = generate(SynthSpec(), seed=0)
    sigma = 0.04
    noise = add_noise(ds, sigma, seed=1).values - ds.values
    tol = 4.0 / np.sqrt(ds.n * ds.m)
    assert abs(noise.std() / sigma - 1.0) < tol
    assert abs(noise.mean()) < 4.0 * sigma / np.sqrt(ds.n * ds.m)


# ------------------------------------------- bulk streams vs the scalar form


class _ScalarNormals:
    """Reference: normals one at a time from :class:`SplitMix64`, the second
    Box-Muller draw of each pair cached for the next call."""

    def __init__(self, seed):
        self._rng = SplitMix64(seed)
        self._spare = None

    def take(self, count):
        out = []
        for _ in range(count):
            if self._spare is None:
                z, self._spare = self._rng.normal_pair()
            else:
                z, self._spare = self._spare, None
            out.append(z)
        return np.array(out)


def _scalar_seeds(seed, n):
    master = SplitMix64(seed)
    return [master.next_uint64() for _ in range(n)]


def _scalar_raw(spec, seed):
    """generate's values before the rescale, one function at a time."""
    grid = np.linspace(0.0, 1.0, spec.m)
    shapes = np.stack(
        [np.exp(-0.5 * ((grid - c) / w) ** 2) for c, w, _ in spec.bumps]
    )
    base_amps = np.array([a for _, _, a in spec.bumps])
    raw = np.empty((spec.n, spec.m))
    for i, sub_seed in enumerate(_scalar_seeds(seed, spec.n)):
        normals = _ScalarNormals(sub_seed).take(base_amps.size)
        raw[i] = (base_amps * (1.0 + spec.jitter * normals)) @ shapes
    return raw


BULK_SEEDS = [0, -1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_bulk_streams_equal_scalar_streams(seed):
    assert _function_seeds(seed, 124) == _scalar_seeds(seed, 124)
    # n=124, m=2048 takes cos and sin of 126,976 angles per seed on numpy's
    # array path, against math's one at a time
    sizes = [(n, m) for n in (1, 5, 124) for m in (2, 3, 7, 256)] + [(124, 2048)]
    for n, m in sizes:
        expected = np.stack([_ScalarNormals(s).take(m)
                             for s in _scalar_seeds(seed, n)])
        assert np.array_equal(_normals(seed, n, m), expected)
        values = np.arange(n * m, dtype=float).reshape(n, m) / (n * m)
        ds = new_dataset(np.linspace(0.0, 1.0, m), values)
        noisy = add_noise(ds, 0.3, seed)
        assert np.array_equal(noisy.values, values + 0.3 * expected)
        assert add_noise(ds, 0.0, seed) is ds


@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_bulk_generate_equals_scalar_generate(seed):
    for n in (1, 5, 124):
        for m in (2, 3, 7, 256):
            spec = SynthSpec(n=n, m=m)
            raw = _scalar_raw(spec, seed)
            mn, mx = raw.min(), raw.max()
            expected = spec.lo + (raw - mn) / (mx - mn) * (spec.hi - spec.lo)
            np.clip(expected, spec.lo, spec.hi, out=expected)
            expected[raw == mn] = spec.lo
            expected[raw == mx] = spec.hi
            assert np.array_equal(generate(spec, seed).values, expected)


def test_empty_bump_list_draws_nothing():
    assert _normals(3, 4, 0).shape == (4, 0)
    with pytest.raises(ValueError, match="flat range"):
        generate(SynthSpec(n=4, m=8, bumps=()), seed=3)
