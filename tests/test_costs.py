"""Cost tables: the prefix-sum SSE build, its oracles, and the transforms."""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from oracles import loo_table, partition_cost, prefix_oracle_cost, segment_cost

from segbasis import (
    CostKind,
    CostTable,
    SynthSpec,
    build_linear_table,
    build_sse_table,
    generate,
    new_dataset,
    segmentation_from_ends,
    solve_all,
)
from segbasis import costs, solver
from segbasis.costs import partition_totals


def _dataset(rows, grid=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if grid is None:
        grid = np.arange(rows.shape[1], dtype=float)
    return new_dataset(grid, rows)


def _direct_sse(values, j, l):
    """Plain deviation-from-mean summation, the definition itself."""
    block = values[:, j - 1:l]
    mu = block.mean(axis=1, keepdims=True)
    return float(((block - mu) ** 2).sum())


SAW = _dataset([[0.0, 1.0, 0.0, 1.0]])


def test_sse_known_values():
    t = build_sse_table(SAW)
    assert segment_cost(t, 1, 1) == 0.0
    assert segment_cost(t, 1, 2) == 0.5
    assert segment_cost(t, 1, 4) == 1.0
    assert abs(segment_cost(t, 1, 3) - 2.0 / 3.0) < 1e-12
    assert abs(segment_cost(t, 2, 4) - 2.0 / 3.0) < 1e-12


def test_sse_diagonal_exactly_zero():
    rng = np.random.default_rng(11)
    t = build_sse_table(_dataset(rng.uniform(-5, 5, size=(3, 20))))
    assert np.all(np.diag(t.values) == 0.0)


def test_sse_lower_triangle_is_inf():
    t = build_sse_table(SAW)
    assert np.all(np.isinf(t.values[np.tril_indices(4, -1)]))


def test_segment_cost_range_checks():
    t = build_sse_table(SAW)
    for j, l in [(0, 2), (3, 2), (1, 5)]:
        with pytest.raises(ValueError, match="out of range"):
            segment_cost(t, j, l)


def test_sse_multiple_functions_sum():
    a = _dataset([[0.0, 1.0, 0.0], [2.0, 2.0, 5.0]])
    t = build_sse_table(a)
    for j in range(1, 4):
        for l in range(j, 4):
            assert np.isclose(
                segment_cost(t, j, l), _direct_sse(a.values, j, l),
                rtol=1e-12, atol=1e-12,
            )


def test_sse_matches_direct_and_prefix_on_random_data():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 25))
        ds = _dataset(rng.uniform(-1, 1, size=(n, m)))
        t = build_sse_table(ds)
        for j in range(1, m + 1):
            for l in range(j, m + 1):
                got = segment_cost(t, j, l)
                assert np.isclose(got, _direct_sse(ds.values, j, l),
                                  rtol=1e-9, atol=1e-10)
                assert np.isclose(got, prefix_oracle_cost(ds, j, l),
                                  rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_sse_matches_direct_under_large_offsets(offset):
    # a shared value offset leaves every deviation unchanged, so the table
    # must meet the two-pass definition at the acceptance tolerances
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 40))
        ds = _dataset(rng.uniform(-1, 1, size=(n, m)) + offset)
        t = build_sse_table(ds)
        for j in range(1, m + 1):
            for l in range(j, m + 1):
                want = _direct_sse(ds.values, j, l)
                assert abs(segment_cost(t, j, l) - want) <= 1e-8 * abs(want) + 1e-12


def test_loo_factor_applied_exactly():
    rng = np.random.default_rng(3)
    ds = _dataset(rng.uniform(-2, 2, size=(4, 12)))
    sse = build_sse_table(ds)
    loo = loo_table(sse)
    m = ds.m
    for j in range(1, m + 1):
        for l in range(j + 1, m + 1):
            length = l - j + 1
            factor = (length / (length - 1)) ** 2
            # the table is built by this very product, so equality is exact
            assert segment_cost(loo, j, l) == factor * segment_cost(sse, j, l)
    assert np.all(np.isinf(np.diag(loo.values)))


def test_loo_known_value():
    loo = loo_table(build_sse_table(SAW))
    assert segment_cost(loo, 1, 2) == 2.0  # 4 * 0.5


def test_loo_requires_sse_input():
    loo = loo_table(build_sse_table(SAW))
    with pytest.raises(ValueError, match="expected an SSE table"):
        loo_table(loo)


def _random_ends(rng, m):
    """Ends of a random partition of 1..m, with some forced singletons."""
    cuts = set(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)),
                          replace=False).tolist())
    for c in rng.integers(1, m, size=min(3, m - 1)).tolist():
        cuts.update((c, c + 1))  # a singleton at c + 1
    return sorted(c for c in cuts if c < m) + [m]


def _right_to_left(table, seg):
    """A segmentation's total as a scalar loop, last segment first."""
    total = 0.0
    for s, e in reversed(seg.intervals()):
        total = float(table.values[s - 1, e - 1]) + total
    return total


def _segs_of_each_count(rng, m, k_top=64):
    """One random segmentation of 1..m with k segments, for k = 1..k_top."""
    return [segmentation_from_ends(
        sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False).tolist())
        + [m], m) for k in range(1, min(k_top, m) + 1)]


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("n", [1, 4, 124])
def test_loo_totals_equal_loo_table_pricing(n, offset):
    rng = np.random.default_rng(n)
    for m in (2, 3, 5, 17, 256, 2048):
        sse = build_sse_table(_dataset(rng.normal(size=(n, m)) + offset))
        loo = loo_table(sse)
        segs = [segmentation_from_ends([m], m),
                segmentation_from_ends(list(range(1, m + 1)), m)]
        segs += [segmentation_from_ends(_random_ends(rng, m), m)
                 for _ in range(20)]
        segs += _segs_of_each_count(rng, m)
        # singletons next to longer segments (m=2 has only all-singletons)
        assert m < 3 or any(1 in seg.lengths and seg.k < m for seg in segs)
        expected = [_right_to_left(loo, seg) for seg in segs]
        assert np.inf in expected and np.isfinite(expected).any()
        assert [partition_cost(loo, seg) for seg in segs] == expected
        for seg, total in zip(segs, expected):
            assert partition_totals(sse, [seg])[1] == [total]
        assert partition_totals(sse, segs)[1] == expected
        assert partition_totals(sse, [])[1] == []


@pytest.mark.parametrize("n", [1, 4, 124])
def test_table_free_sse_totals_equal_table_pricing(n):
    rng = np.random.default_rng(100 + n)
    for m in (2, 3, 5, 17, 256) + ((1024, 2048) if n == 4 else ()):
        # steps of 4 points: their segments' entries are clamped rounding noise
        steps = np.repeat(rng.normal(size=(n, m // 4 + 1)), 4, axis=1)[:, :m]
        noise = rng.normal(size=(n, m))
        for rows in (noise, noise + 1e6, steps, steps + 1e6):
            ds = _dataset(rows)
            sse = build_sse_table(ds)
            segs = [segmentation_from_ends([m], m),
                    segmentation_from_ends(list(range(1, m + 1)), m),
                    segmentation_from_ends(list(range(4, m, 4)) + [m], m)]
            segs += [segmentation_from_ends(_random_ends(rng, m), m)
                     for _ in range(20)]
            segs += _segs_of_each_count(rng, m)
            expected = [_right_to_left(sse, seg) for seg in segs]
            assert [partition_cost(sse, seg) for seg in segs] == expected
            assert partition_totals(ds, segs)[0] == expected
            assert partition_totals(sse, segs)[0] == expected
    assert partition_totals(ds, [])[0] == []


def test_bulk_totals_keep_the_right_to_left_association():
    # costs spread over 16 decades, so another summation order would round
    # differently; +inf entries stay +inf
    rng = np.random.default_rng(3)
    counts = list(range(1, 65)) * 3
    values = 10.0 ** rng.uniform(-8, 8, size=sum(counts))
    values[rng.choice(values.size, 20, replace=False)] = np.inf
    expected, start = [], 0
    for k in counts:
        total = 0.0
        for c in reversed(values[start:start + k].tolist()):
            total = c + total
        expected.append(total)
        start += k
    assert np.inf in expected
    assert costs._right_sums(values, counts) == expected
    forward = [sum(values[s - k:s].tolist())
               for s, k in zip(np.cumsum(counts), counts)]
    assert forward != expected
    assert costs._right_sums(np.empty(0), []) == []


@pytest.mark.parametrize("build", [build_sse_table, build_linear_table])
def test_tables_do_not_depend_on_block_budget(monkeypatch, build):
    rng = np.random.default_rng(31)
    small = _dataset(rng.normal(size=(7, 61)) + 3.0,
                     grid=np.cumsum(rng.uniform(0.1, 1.0, size=61)))
    default = _dataset(rng.normal(size=(124, 256)))
    # b = 1, 4 (a short last step) and 61 start rows a step; then b = 1 and
    # 4 at the default size
    for ds, budgets in ((small, (8 * 7 * 61, 4 * 8 * 7 * 61, 1 << 20)),
                        (default, (256 << 10, 1 << 20))):
        tables = []
        for budget in budgets:
            monkeypatch.setattr(costs, "_BLOCK_BYTES", budget)
            tables.append(build(ds).values.view(np.uint64))
        assert all(np.array_equal(tables[0], t) for t in tables[1:])


def test_sse_kernel_takes_only_c_ordered_sums():
    # einsum adds the functions in sequence only over a C-ordered operand;
    # another order would change the last bit of some entries silently
    rng = np.random.default_rng(8)
    d = rng.normal(size=(4, 3, 5))
    lens = np.arange(1.0, 16.0).reshape(3, 5)
    q = rng.normal(size=(3, 5)) + 10.0
    expected = q - (d * d).sum(axis=0) / lens
    costs._sse_kernel(d, lens, np.empty((3, 5)), q)
    assert np.allclose(q, expected, rtol=1e-14)
    for other in (np.asfortranarray(d), d.transpose(0, 2, 1).copy().transpose(0, 2, 1),
                  np.repeat(d, 2, axis=2)[:, :, ::2]):
        assert np.array_equal(other, d) and not other.flags.c_contiguous
        with pytest.raises(ValueError, match="C-ordered"):
            costs._sse_kernel(other, lens, np.empty((3, 5)), np.zeros((3, 5)))


def test_loo_totals_require_an_sse_table():
    loo = loo_table(build_sse_table(SAW))
    with pytest.raises(ValueError, match="expected an SSE table"):
        partition_totals(loo, [segmentation_from_ends([3], 3)])
    with pytest.raises(ValueError, match="covers 2 points"):
        partition_totals(build_sse_table(SAW), [segmentation_from_ends([2], 2)])


def test_overflowing_interval_sums_are_an_input_error():
    # each square (2.25e304) and their sum (9e306) are finite, but S1 of
    # points 1..300 squares past the largest double: it used to cancel to a
    # 0.0 entry with no error
    big = _dataset(np.repeat([[1.5e152, -1.5e152]], 200, axis=1))
    seg = segmentation_from_ends([200, 400], 400)
    for price in (build_sse_table, build_linear_table,
                  lambda ds: partition_totals(ds, [seg]),
                  lambda ds: solver.fill_dp(ds, 2)):
        with pytest.raises(ValueError, match="too large for double-precision sums"):
            price(big)
    # the centred values are what is summed: an offset of 1e150 is no error
    assert build_sse_table(_dataset(np.full((2, 400), 1e150))).values[0, -1] == 0.0


def test_overflowing_loo_entries_are_an_input_error():
    # every SSE sum of these 2 x 8 values is finite, but a leave-one-out
    # entry is up to 4 times its SSE entry: the k = 4 sweep read its
    # two-point segments as +inf and k = 4 as "infeasible", while the same
    # values scaled by 2^-600 solve with ends (2, 4, 6, 8)
    big = generate(SynthSpec(n=2, m=8, lo=-3.83e153, hi=3.83e153), 0)
    seg = segmentation_from_ends([2, 4, 6, 8], 8)
    for price in (build_sse_table, build_linear_table,
                  lambda ds: partition_totals(ds, [seg]),
                  lambda ds: solver.fill_dp(ds, 4, CostKind.LOO)):
        with pytest.raises(ValueError, match="too large for double-precision sums"):
            price(big)
    small = _dataset(np.ldexp(big.values, -600))
    assert solve_all(small, 4, CostKind.LOO)[-1].segmentation == seg


def test_linear_grid_sums_are_bounded():
    line = 0.0226 * np.arange(100.0)
    # a centred grid of +-7.4e153: Stt overflows, and Q(1..100) used to be
    # NaN
    with pytest.raises(ValueError, match="too large for double-precision sums"):
        build_linear_table(_dataset(line, grid=1.5e152 * np.arange(100.0)))
    # at +-7.5e151 and +-5e149 every sum is finite, also left of the
    # diagonal, and an exactly linear curve costs ~0
    for grid in (1.5e152 * np.linspace(0.0, 1.0, 100),
                 1e150 * np.linspace(0.0, 1.0, 100),
                 1e150 * np.linspace(1.0, 2.0, 100)):
        q = build_linear_table(_dataset(line, grid=grid)).values
        assert 0.0 <= q[0, -1] < 1e-12 < build_sse_table(_dataset(line)).values[0, -1]


def test_loo_rows_scale_each_block_by_its_own_lengths():
    m = 700
    sse = build_sse_table(_dataset(np.random.default_rng(5).normal(size=(3, m))))
    # the fill's slabs (the bottom one is square), then blocks of b = 1 and
    # of b = w, the whole table among them
    blocks = solver._slabs(m) + [(0, 1), (350, 351), (m - 1, m), (m - 40, m), (0, m)]
    assert len(blocks) > 6
    for s, e in blocks:
        block = sse.values[s:e, s:]
        b, w = block.shape
        r, c = np.indices((b, w))
        expected = costs._loo_scale(c - r + 1.0, block)
        got = costs._loo_rows(block, np.empty((b, w)))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.all(got[np.tril_indices(b, 0, w)] == np.inf)
        assert np.isfinite(got[np.triu_indices(b, 1, w)]).all()


def _loo_formula(sse: np.ndarray) -> np.ndarray:
    """Leave-one-out entries one at a time from Python floats: f * f * Q
    with f = len / (len - 1), and +inf on and below the diagonal."""
    m = sse.shape[0]
    out = np.full((m, m), np.inf)
    for j in range(m):
        for l in range(j + 1, m):
            f = (l - j + 1.0) / (l - j)
            out[j, l] = f * f * float(sse[j, l])
    return out


def test_loo_slabs_match_the_factor_formula():
    m = 300  # two fill slabs, the bottom one square
    rng = np.random.default_rng(31)
    ds = generate(SynthSpec(n=3, m=m), 4)
    sources = [(ds, build_sse_table(ds).values)]
    for diagonal in (0.0, -0.0, 0.25):
        values = rng.uniform(0.0, 2.0, size=(m, m))
        values[rng.random((m, m)) < 0.05] = 0.0  # zero costs above the diagonal
        np.fill_diagonal(values, diagonal)
        values[np.tril_indices(m, -1)] = -1.0  # read as +inf by the table
        table = CostTable(m=m, kind=CostKind.SSE, values=values)
        sources.append((table, table.values))
    blocks = solver._slabs(m) + [(0, 1), (150, 151), (m - 1, m), (0, m)]
    assert len(solver._slabs(m)) > 1
    for source, sse in sources:
        expected = _loo_formula(sse)
        slab = costs._row_slabs(source, CostKind.LOO)
        for s, e in blocks:
            got = slab(s, e, np.empty((e - s, m - s)))
            assert np.array_equal(got.view(np.uint64),
                                  expected[s:e, s:].view(np.uint64)), (s, e)


def test_partition_totals_right_association():
    rng = np.random.default_rng(17)
    ds = _dataset(rng.normal(size=(2, 10)))
    t = build_sse_table(ds)
    seg = segmentation_from_ends([2, 5, 6, 10], 10)
    total = 0.0
    for s, e in reversed(seg.intervals()):
        total = float(t.values[s - 1, e - 1]) + total
    assert partition_totals(t, [seg])[0] == [total]
    assert partition_totals(ds, [seg])[0] == [total]


def test_partition_totals_m_mismatch():
    seg = segmentation_from_ends([3], 3)
    for source, name in ((build_sse_table(SAW), "table"), (SAW, "dataset")):
        with pytest.raises(ValueError, match=f"covers 3 points, {name} 4$"):
            partition_totals(source, [seg])


def test_linear_known_values():
    t = build_linear_table(_dataset([[0.0, 1.0, 0.0]]))
    assert segment_cost(t, 1, 2) == 0.0
    assert segment_cost(t, 2, 3) == 0.0
    assert abs(segment_cost(t, 1, 3) - 2.0 / 3.0) < 1e-12


def test_linear_exact_on_lines():
    grid = np.linspace(0.0, 5.0, 14)
    ds = new_dataset(grid, np.stack([3.0 * grid - 1.0, -0.5 * grid + 2.0]))
    t = build_linear_table(ds)
    iu = np.triu_indices(14)
    assert np.all(np.abs(t.values[iu]) < 1e-12)


def test_linear_short_segments_pinned_to_zero():
    rng = np.random.default_rng(23)
    ds = _dataset(rng.normal(size=(3, 9)))
    t = build_linear_table(ds)
    assert np.all(np.diag(t.values) == 0.0)
    assert np.all(np.diag(t.values, 1) == 0.0)


def test_linear_matches_lstsq_residuals():
    rng = np.random.default_rng(29)
    grid = np.sort(rng.uniform(0, 10, size=11))
    ds = new_dataset(grid, rng.normal(size=(3, 11)))
    t = build_linear_table(ds)
    for j in range(1, 12):
        for l in range(j + 2, 12):
            rss = 0.0
            x = grid[j - 1:l]
            A = np.stack([x, np.ones_like(x)], axis=1)
            for i in range(ds.n):
                y = ds.values[i, j - 1:l]
                coef, *_ = np.linalg.lstsq(A, y, rcond=None)
                rss += float(((y - A @ coef) ** 2).sum())
            assert np.isclose(segment_cost(t, j, l), rss, rtol=1e-8, atol=1e-10)


def _exact_sse(y):
    """``Q(j, l)``: the exact SSE of the doubles ``y`` (one row a function)
    over the 1-based points j..l, as a Fraction.  Every double is an
    integer over a power of two, so over the largest denominator all
    prefix sums are integers."""
    values = [[Fraction(x) for x in row] for row in y.tolist()]
    den = max(x.denominator for row in values for x in row)
    ints = [[int(x * den) for x in row] for row in values]
    p1 = [list(accumulate(row, initial=0)) for row in ints]
    p2 = list(accumulate((sum(row[t] ** 2 for row in ints)
                          for t in range(y.shape[1])), initial=0))

    def q(j, l):
        length = l - j + 1
        s1 = sum((p[l] - p[j - 1]) ** 2 for p in p1)
        return Fraction(length * (p2[l] - p2[j - 1]) - s1, length * den * den)

    return q


def _adversarial(name, n, m):
    rng = np.random.default_rng([n, m])
    noise = rng.normal(size=(n, m))
    if name == "offset":  # 1e6 and 1e8 offsets
        return noise + np.where(np.arange(n)[:, None] % 2, 1e8, 1e6)
    if name == "large":
        return 1e140 * noise
    if name == "constant":
        return np.repeat(np.resize([3.7, 1e8 + 0.1, -2.5e-3, 7.0], (n, 1)), m, axis=1)
    if name == "tiny":  # squares below the smallest normal, or 0
        return np.where(np.arange(n)[:, None] % 2, 1e-300, 1e-160) * noise
    # steps and bumps on a long grid, with noise
    t = np.linspace(0.0, 1.0, m)
    return (np.sign(np.sin(7 * t)) + np.exp(-((t - 0.3) / 0.01) ** 2)
            + 0.04 * noise + 1e6)


@pytest.mark.parametrize("name, n, m", [
    ("offset", 1, 48), ("offset", 4, 300), ("offset", 124, 64),
    ("large", 4, 200), ("constant", 4, 300), ("constant", 124, 40),
    ("tiny", 1, 60), ("tiny", 4, 300), ("curves", 4, 2048),
    ("curves", 124, 256),
])
def test_sse_entries_are_within_the_written_bound(name, n, m):
    # |Q^ - Q| <= delta against the exact SSE of the centred values, and
    # Q^(j..l) >= Q^(e..l) - 2 delta for every j < e <= l of the table: the
    # two facts the dataset fill's column cut rests on
    ds = _dataset(_adversarial(name, n, m))
    delta = costs._sse_error_bound(ds)
    table = build_sse_table(ds).values
    prefix = costs._sse_prefix(ds)
    q = _exact_sse(prefix[0])
    rng = np.random.default_rng(m)
    if m * m * n <= 300_000:  # every interval
        pairs = [(j, l) for j in range(1, m + 1) for l in range(j, m + 1)]
    else:  # the ends, the short ones and a random sample
        pairs = [(1, m), (1, 1), (m, m), (1, 2), (m - 1, m)]
        pairs += [(j, j + 1) for j in range(1, m, max(1, m // 50))]
        pairs += [tuple(sorted(p)) for p in rng.integers(1, m + 1, (1500, 2)).tolist()]
    bound = Fraction(delta)
    for j, l in pairs:
        assert abs(Fraction(table[j - 1, l - 1]) - q(j, l)) <= bound, (j, l)
    # the fill's cut prices whole rows another way, unclamped
    for j in sorted({1, 2, m // 2, m}):
        row = costs._sse_row(prefix, j)
        for l in range(j, m + 1, max(1, m // 300)):
            assert abs(Fraction(row[l - j]) - q(j, l)) <= bound, (j, l)
    # the least entry above each row, column by column, against the row
    above = np.minimum.accumulate(table, axis=0)[:-1]
    below = table[1:]
    upper = np.triu(np.ones((m - 1, m), dtype=bool), 1)
    assert (above[upper] >= below[upper] - 2 * delta).all()
    if name == "curves" and n == 4:  # small enough to cut by
        assert 0 < delta < 1e-9 * prefix[2][-1]


def test_entries_priced_alone_have_the_tables_bits():
    # every interval of an n=124, m=64 dataset priced on its own: alone,
    # einsum would sum a cell's functions in another order than a block's,
    # and the last bit of about half of them would differ from the table's
    m = 64
    ds = _dataset(np.random.default_rng(124).normal(size=(124, m)) + 3.0)
    table = build_sse_table(ds).values
    alone = np.full((m, m), np.inf)
    for j in range(1, m + 1):
        for l in range(j, m + 1):
            alone[j - 1, l - 1] = costs._entries(ds, np.array([j]), np.array([l]))[0]
    assert np.array_equal(alone.view(np.uint64), table.view(np.uint64))


@pytest.mark.parametrize("name, n, m", [
    ("offset", 1, 48), ("offset", 4, 300), ("offset", 124, 64),
    ("large", 4, 200), ("constant", 4, 300), ("constant", 124, 40),
    ("tiny", 1, 60), ("tiny", 4, 300), ("curves", 4, 2048),
    ("curves", 124, 256),
])
def test_screen_rows_are_lower_bounds_within_the_written_bound(name, n, m):
    # Lo <= max(Q - delta, 0) <= Q^ against the exact SSE of the centred values,
    # so no candidate the screen drops can win or tie; Q - Lo <= 2 eps with
    # eps = 2 delta + (w - 1)(d_l + d_(j-1))/len, so the screen is not
    # vacuous; and the leave-one-out screen stays at or below the
    # leave-one-out entries
    ds = _dataset(_adversarial(name, n, m))
    delta = costs._sse_error_bound(ds)
    prefix = costs._data_prefix(ds)
    lo = costs._screen_rows(ds, prefix)(0, m, np.empty((m, m)))
    table = build_sse_table(ds)
    assert (lo <= table.values).all()
    loo = costs._loo_rows(lo, np.empty((m, m)))
    assert (loo <= loo_table(table).values).all()
    q = _exact_sse(prefix[0])
    p1 = prefix[1]
    d = [Fraction(x) for x in np.einsum("ia,ia->a", p1, p1).tolist()]
    widen = Fraction(6 * n + 26, 2 ** 53)  # w - 1
    rng = np.random.default_rng(m)
    if m * m * n <= 300_000:  # every interval
        pairs = [(j, l) for j in range(1, m + 1) for l in range(j, m + 1)]
    else:  # the ends, the short ones and a random sample
        pairs = [(1, m), (1, 1), (m, m), (1, 2), (m - 1, m)]
        pairs += [(j, j + 1) for j in range(1, m, max(1, m // 50))]
        pairs += [tuple(sorted(p)) for p in rng.integers(1, m + 1, (1500, 2)).tolist()]
    delta = Fraction(delta)
    for j, l in pairs:
        exact, low = q(j, l), Fraction(lo[j - 1, l - 1])
        assert low <= max(exact - delta, 0), (j, l)
        eps = 2 * delta + widen * (d[l] + d[j - 1]) / (l - j + 1)
        assert exact - low <= 2 * eps, (j, l)


def test_linear_entries_priced_alone_and_in_batches_have_the_tables_bits():
    # every interval of an n=124, m=64 dataset on an uneven grid, priced on
    # its own and in batches of every size class, against the linear table
    m = 64
    rng = np.random.default_rng(64)
    ds = _dataset(rng.normal(size=(124, m)) + 3.0,
                  grid=np.cumsum(rng.uniform(0.1, 2.0, m)))
    table = build_linear_table(ds).values
    j, l = np.triu_indices(m)
    want = table[j, l].view(np.uint64)
    alone = [costs._linear_entries(ds, np.array([a + 1]), np.array([b + 1]))[0]
             for a, b in zip(j, l)]
    assert np.array_equal(np.array(alone).view(np.uint64), want)
    for size in (2, 7, 120, j.size):
        got = np.concatenate([costs._linear_entries(ds, j[a:a + size] + 1,
                                                    l[a:a + size] + 1)
                              for a in range(0, j.size, size)])
        assert np.array_equal(got.view(np.uint64), want), size


def _linear_case(name, n, m):
    """Grid and values on which the linear screen is checked: near-duplicate
    grid points (tiny computed Ctt, and Ctt <= 0 where it cancels), large
    offsets of grid and values, constant curves, exact lines, values whose
    products underflow, and noisy bumps."""
    rng = np.random.default_rng([n, m, len(name)])
    grid = np.cumsum(rng.uniform(0.2, 1.0, m))
    noise = rng.normal(size=(n, m))
    if name == "neardup":  # clusters of points 1e-9 and 1e-13 apart
        grid = np.sort(np.concatenate([
            np.linspace(0.0, 1.0, m - 12),
            0.37 + 1e-9 * np.arange(6), 0.81 + 1e-13 * np.arange(6)]))
        return grid, noise
    if name == "offset":
        return grid + 1e6, noise + np.where(np.arange(n)[:, None] % 2, 1e8, 1e6)
    if name == "constant":
        return grid, np.repeat(np.resize([3.7, 1e8 + 0.1, -2.5e-3, 7.0], (n, 1)),
                               m, axis=1)
    if name == "lines":
        return grid, rng.normal(size=(n, 1)) * grid + rng.normal(size=(n, 1))
    if name == "tiny":
        return grid, np.where(np.arange(n)[:, None] % 2, 1e-300, 1e-160) * noise
    if name == "large":
        return grid, 1e140 * noise
    t = np.linspace(0.0, 1.0, m)
    return t, (np.exp(-((t - 0.3) / 0.02) ** 2) * rng.uniform(0.8, 1.2, (n, 1))
               + 0.02 * noise)


def _exact_slope(prefix, slope_prefix):
    """``S(j, l, c)``: the exact sum_i (a_i - c b_i)^2 of the stored prefix
    sums of y (b) and y*t (a) over the 1-based points j..l and a double c,
    as a Fraction, summed over integers on common power-of-two scales."""
    def ints(p):
        values = [[Fraction(x) for x in row] for row in p.tolist()]
        den = max(x.denominator for row in values for x in row)
        return [[int(x * den) for x in row] for row in values], den

    (y, dy), (ty, dt) = ints(prefix[1]), ints(slope_prefix[3].T)

    def s(j, l, c):
        c = Fraction(c)
        num, den = c.numerator * dt, c.denominator * dy
        total = sum(((a[l] - a[j - 1]) * den - num * (b[l] - b[j - 1])) ** 2
                    for a, b in zip(ty, y))
        return Fraction(total, (den * dt) ** 2)

    return s


@pytest.mark.parametrize("name, n, m", [
    ("neardup", 3, 60), ("neardup", 124, 40), ("offset", 4, 50),
    ("offset", 124, 40), ("constant", 4, 40), ("lines", 3, 60),
    ("lines", 124, 30), ("tiny", 4, 40), ("large", 4, 40),
    ("curves", 4, 300), ("curves", 124, 64),
])
def test_linear_screen_rows_are_lower_bounds_within_the_written_bound(name, n, m):
    # Lo <= max(Q_sse - delta - S/Ctt^, 0) against exact arithmetic, with S
    # the exact slope sum of the build's c and Ctt^ its Ctt: the build's own
    # sum of squares is within the written first-order bound of S; Lo is not
    # vacuous; and in floats Lo <= Q^ everywhere, with Lo = 0 at lengths 1
    # and 2
    grid, values = _linear_case(name, n, m)
    ds = _dataset(values, grid=grid)
    prefix, slope_prefix = costs._data_prefix(ds), costs._linear_prefix(ds)
    lo = costs._screen_rows(ds, prefix, linear=True)(0, m, np.empty((m, m)))
    table = build_linear_table(ds).values
    upper = np.triu(np.ones((m, m), dtype=bool))
    assert (lo[upper] <= table[upper]).all()
    assert (lo[~upper] == np.inf).all()
    assert (np.diag(lo) == 0.0).all() and (np.diag(lo, 1) == 0.0).all()
    q, s = _exact_sse(prefix[0]), _exact_slope(prefix, slope_prefix)
    delta = Fraction(costs._sse_error_bound(ds))
    _, p1, _ = prefix
    t, pt, ptt, pty = slope_prefix
    d = np.einsum("ia,ia->a", p1, p1)
    ry, rt = np.sqrt(d), np.sqrt(np.einsum("ai,ai->a", pty, pty))
    u = Fraction(1, 2 ** 53)
    widen = Fraction(6 * n + 26, 2 ** 53)
    kappa = 2 * (9 * n + 42) * u
    eta = Fraction(5 * n + 8) * (1 + Fraction(float(np.abs(t).max()))) ** 2 / 2 ** 1074
    rng = np.random.default_rng(m)
    if m * m * n <= 120_000:
        pairs = [(j, l) for j in range(1, m + 1) for l in range(j + 2, m + 1)]
    else:
        pairs = [(1, m), (1, 3), (m - 2, m)]
        pairs += [(j, j + 2) for j in range(1, m - 1, max(1, m // 40))]
        pairs += [(j, l) for j, l in (sorted(p) for p in
                                      rng.integers(1, m + 1, (500, 2)).tolist())
                  if l >= j + 2]
    branches = set()
    for j, l in pairs:
        length = l - j + 1
        st = pt[l] - pt[j - 1]  # the build's bits, elementwise as it makes them
        ctt = (ptt[l] - ptt[j - 1]) - st * st / length
        c = st / length
        exact = q(j, l)
        slope = s(j, l, c)
        z = Fraction(float(rt[l] + rt[j - 1] + abs(c) * (ry[l] + ry[j - 1])))
        # the build's sum of squares of its Cty^, in one order of many
        cty = (pty[l] - pty[j - 1]) - (p1[:, l] - p1[:, j - 1]) * c
        assert Fraction(float(cty @ cty)) <= slope + (n + 6) * u * z * z + eta, (j, l)
        if ctt > 0.0:
            branches.add("ctt > 0")
            exact -= slope / Fraction(ctt)
            width = (kappa * z * z + eta) / Fraction(ctt)
        else:
            branches.add("ctt <= 0")
            width = 0
        low = Fraction(lo[j - 1, l - 1])
        assert low <= max(exact - delta, 0), (j, l)
        eps = 2 * delta + widen * Fraction(float(d[l] + d[j - 1])) / length + width
        assert exact - low <= 2 * eps, (j, l)
    if name == "neardup":  # both branches of the build's Ctt are covered
        assert branches == {"ctt > 0", "ctt <= 0"}


@pytest.mark.parametrize("scale", [1.5e152, 1e150])
def test_linear_screen_falls_back_to_the_rows_where_its_sums_could_overflow(scale):
    # a grid of +-7.5e151 keeps every linear entry finite, but the screen's
    # bound on it would overflow: the screen is then the built rows
    ds = _dataset(0.0226 * np.arange(100.0), grid=scale * np.linspace(0.0, 1.0, 100))
    rows = costs._screen_rows(ds, costs._data_prefix(ds), linear=True)
    lo = rows(0, 100, np.empty((100, 100)))
    table = build_linear_table(ds).values
    assert (lo <= table).all()
    assert np.array_equal(lo, table) == (scale > 1e151)
