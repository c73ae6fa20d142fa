"""Cost tables: the prefix-sum SSE build, its oracles, and the transforms."""

import numpy as np
import pytest
from oracles import loo_table, partition_cost, prefix_oracle_cost, segment_cost

from segbasis import (
    CostKind,
    build_linear_table,
    build_sse_table,
    new_dataset,
    segmentation_from_ends,
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
            assert partition_totals(sse, [seg], CostKind.LOO) == [total]
        assert partition_totals(sse, segs, CostKind.LOO) == expected
        assert partition_totals(sse, [], CostKind.LOO) == []


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
            assert partition_totals(ds, segs, CostKind.SSE) == expected
            assert partition_totals(sse, segs, CostKind.SSE) == expected
    assert partition_totals(ds, [], CostKind.SSE) == []


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
        partition_totals(loo, [segmentation_from_ends([3], 3)], CostKind.LOO)
    with pytest.raises(ValueError, match="covers 2 points"):
        partition_totals(build_sse_table(SAW), [segmentation_from_ends([2], 2)],
                         CostKind.LOO)


def test_overflowing_interval_sums_are_an_input_error():
    # each square (2.25e304) and their sum (9e306) are finite, but S1 of
    # points 1..300 squares past the largest double: it used to cancel to a
    # 0.0 entry with no error
    big = _dataset(np.repeat([[1.5e152, -1.5e152]], 200, axis=1))
    seg = segmentation_from_ends([200, 400], 400)
    for price in (build_sse_table, build_linear_table,
                  lambda ds: partition_totals(ds, [seg], CostKind.SSE),
                  lambda ds: solver.fill_dp(ds, 2)):
        with pytest.raises(ValueError, match="too large for double-precision sums"):
            price(big)
    # the centred values are what is summed: an offset of 1e150 is no error
    assert build_sse_table(_dataset(np.full((2, 400), 1e150))).values[0, -1] == 0.0


def test_linear_grid_sums_are_bounded():
    line = 0.0226 * np.arange(100.0)
    # a centred grid of +-7.4e153: Stt overflows, and Q(1..100) used to be
    # NaN; at +-7.5e151, St S1 may overflow left of the diagonal
    for grid in (1.5e152 * np.arange(100.0), 1.5e152 * np.linspace(0.0, 1.0, 100)):
        with pytest.raises(ValueError, match="too large for double-precision sums"):
            build_linear_table(_dataset(line, grid=grid))
    # at +-5e149 every sum is finite, and an exactly linear curve costs ~0
    for grid in (1e150 * np.linspace(0.0, 1.0, 100),
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


def test_partition_totals_right_association():
    rng = np.random.default_rng(17)
    ds = _dataset(rng.normal(size=(2, 10)))
    t = build_sse_table(ds)
    seg = segmentation_from_ends([2, 5, 6, 10], 10)
    total = 0.0
    for s, e in reversed(seg.intervals()):
        total = float(t.values[s - 1, e - 1]) + total
    assert partition_totals(t, [seg], CostKind.SSE) == [total]
    assert partition_totals(ds, [seg], CostKind.SSE) == [total]


def test_partition_totals_m_mismatch():
    seg = segmentation_from_ends([3], 3)
    for source, name in ((build_sse_table(SAW), "table"), (SAW, "dataset")):
        with pytest.raises(ValueError, match=f"covers 3 points, {name} 4$"):
            partition_totals(source, [seg], CostKind.SSE)


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
