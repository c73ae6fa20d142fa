"""The dynamic program against exhaustive enumeration and its frozen examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_force, loo_table, partition_cost

from segbasis import (
    CostKind,
    CostTable,
    InfeasiblePartitionError,
    build_linear_table,
    build_sse_table,
    fill_dp,
    new_dataset,
    solve,
    solve_all,
)
from segbasis import costs, solver
from segbasis.solver import DPTable, _slabs, backtrack


def _dataset(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return new_dataset(np.arange(rows.shape[1], dtype=float), rows)


SAW = _dataset([[0.0, 1.0, 0.0, 1.0]])


def test_solve_all_costs_on_saw():
    results = solve_all(build_sse_table(SAW), 4)
    costs = [r.cost for r in results]
    assert costs[0] == 1.0
    assert abs(costs[1] - 2.0 / 3.0) < 1e-12
    assert abs(costs[2] - 0.5) < 1e-12
    assert costs[3] == 0.0
    assert results[3].segmentation.ends == (1, 2, 3, 4)


def test_saw_k2_tie_resolution():
    # the 2-partitions (1, 4) and (3, 4) of the saw both cost exactly 2/3 in
    # the built table; the dynamic program and enumeration both keep the
    # leftmost optimum
    table = build_sse_table(SAW)
    seg, cost, _ = solve(table, 2)
    bseg, bcost = brute_force(table, 2)
    assert seg.ends == bseg.ends == (1, 4)
    assert cost == bcost


def test_saw_k3():
    # all three 3-partitions cost exactly 0.5; the leftmost one is kept
    table = build_sse_table(SAW)
    seg, cost, _ = solve(table, 3)
    assert seg.ends == brute_force(table, 3)[0].ends == (1, 2, 4)
    assert abs(cost - 0.5) < 1e-12


def test_constant_data_leftmost_ties():
    table = build_sse_table(_dataset([[2.0, 2.0, 2.0, 2.0, 2.0]]))
    seg, cost, _ = solve(table, 2)
    assert seg.ends == (1, 5)  # every split costs 0; scan keeps the first
    assert cost == 0.0


def test_solve_total_equals_partition_cost_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n, m = int(rng.integers(1, 5)), int(rng.integers(3, 15))
        table = build_sse_table(_dataset(rng.uniform(-1, 1, size=(n, m))))
        for k in range(1, m + 1):
            seg, cost, _ = solve(table, k)
            assert cost == partition_cost(table, seg)


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 17))
        ds = _dataset(rng.uniform(-1, 1, size=(n, m)))
        sse = build_sse_table(ds)
        for table in (sse, loo_table(sse), build_linear_table(ds)):
            for k in range(1, min(6, m) + 1):
                bseg, bcost = brute_force(table, k)
                if not np.isfinite(bcost):
                    with pytest.raises(InfeasiblePartitionError):
                        solve(table, k)
                    continue
                seg, cost, _ = solve(table, k)
                assert seg.ends == bseg.ends
                assert abs(cost - bcost) <= 1e-9


def test_sse_costs_non_increasing_and_zero_at_m():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 13))
        table = build_sse_table(_dataset(rng.uniform(-1, 1, size=(n, m))))
        costs = [r.cost for r in solve_all(table, m)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == 0.0


def test_loo_infeasible_when_k_exceeds_half():
    table = loo_table(build_sse_table(_dataset([[0.0, 0.0, 1.0, 1.0]])))
    with pytest.raises(InfeasiblePartitionError, match="3 segments"):
        solve(table, 3)
    results = solve_all(table, 4)
    assert results[2].segmentation is None and not results[2].feasible
    assert results[3].segmentation is None
    assert results[1].feasible


def test_loo_feasible_solutions_have_no_singletons():
    rng = np.random.default_rng(57)
    for _ in range(20):
        n, m = int(rng.integers(1, 4)), int(rng.integers(4, 13))
        table = loo_table(build_sse_table(_dataset(rng.uniform(-1, 1, (n, m)))))
        for res in solve_all(table, m // 2 + 1):
            if res.segmentation is not None:
                assert min(res.segmentation.lengths) >= 2


def test_fill_dp_rejects_bad_k():
    table = build_sse_table(SAW)
    with pytest.raises(ValueError, match="out of range"):
        fill_dp(table, 0)
    with pytest.raises(ValueError, match="out of range"):
        fill_dp(table, 5)


def test_backtrack_any_k_from_one_fill():
    table = build_sse_table(_dataset([[0, 3, 1, 4, 1, 5, 9, 2, 6]]))
    dp = fill_dp(table, 5)
    for k in range(1, 6):
        seg = backtrack(dp, k)
        assert seg.k == k
        assert float(dp.costs[k - 1, 0]) == partition_cost(table, seg)
    with pytest.raises(ValueError, match="exceeds solved"):
        backtrack(dp, 6)


def test_determinism_repeated_runs():
    table = build_sse_table(_dataset(np.random.default_rng(1).normal(size=(3, 12))))
    first = [r.segmentation.ends for r in solve_all(table, 6)]
    second = [r.segmentation.ends for r in solve_all(table, 6)]
    assert first == second


def test_brute_force_guard():
    table = build_sse_table(_dataset(np.zeros((1, 40))))
    with pytest.raises(ValueError, match="enumeration guard"):
        brute_force(table, 20)


def test_solve_results_immutable_tables():
    table = build_sse_table(SAW)
    dp = fill_dp(table, 3)
    with pytest.raises(ValueError):
        dp.costs[0, 0] = 1.0
    with pytest.raises(ValueError):
        dp.splits[0, 0] = 1


def _full_scan_fill(C, m, k_max):
    """The dynamic program as a full scan of every column in 128-row blocks,
    one segment count at a time: the reference the slab order must equal."""
    F = np.full((k_max, m), np.inf, dtype=np.float64)
    L = np.zeros((k_max, m), dtype=np.int64)
    F[0, :] = C[:, m - 1]
    L[0, :] = m
    chunk = 128
    buf = np.empty((min(chunk, m), m), dtype=np.float64) if k_max > 1 else None
    for p in range(2, k_max + 1):
        tail = np.full(m, np.inf, dtype=np.float64)
        tail[: m - 1] = F[p - 2, 1:]
        valid = m - p + 1  # rows j <= m-p+1 (1-based) admit a p-partition
        for s in range(0, valid, chunk):
            e = min(s + chunk, valid)
            block = buf[: e - s]
            np.add(C[s:e], tail[None, :], out=block)
            block[:, valid:] = np.inf  # keep p-1 nonempty segments on the right
            arg = np.argmin(block, axis=1)  # first minimum: leftmost split
            F[p - 1, s:e] = block[np.arange(e - s), arg]
            L[p - 1, s:e] = arg + 1
        # all-inf rows: argmin is meaningless, pin split to the leftmost slot
        dead = ~np.isfinite(F[p - 1, :valid])
        if dead.any():
            L[p - 1, :valid][dead] = np.arange(1, valid + 1)[dead]
    return F, L


def _slab_case(name, m, rng):
    if name == "uniform":
        return rng.uniform(-1, 1, size=(3, m))
    if name == "rounded":  # many exact ties
        return np.round(rng.uniform(-1, 1, size=(3, m)), 1)
    if name == "zeros":
        return np.zeros((3, m))
    tiled = np.tile([0.0, 10.0, 10.0, 0.0], m // 4 + 1)[:m]
    return np.stack([tiled, tiled[::-1], tiled + rng.integers(0, 2, m)])


@pytest.mark.parametrize("m, name", [
    (300, "uniform"), (300, "rounded"), (300, "zeros"), (300, "tiled"),
    (700, "tiled"),
])
def test_fill_dp_equals_full_scan_across_slabs(m, name, monkeypatch):
    # rows for p <= k do not depend on k_max, so one reference fill at k = m
    # covers every k; a 128 KiB slab budget splits m = 300 into several slabs
    monkeypatch.setattr(solver, "_SLAB_BYTES", 128 * 1024)
    assert len(_slabs(m)) >= 3
    rng = np.random.default_rng(m)
    ds = _dataset(_slab_case(name, m, rng))
    sse = build_sse_table(ds)
    for table in (sse, loo_table(sse), build_linear_table(ds)):
        ref_costs, ref_splits = _full_scan_fill(table.values, m, m)
        if name == "tiled" and table is sse:
            # leftmost optimal splits are not monotone in j here
            assert (np.diff(ref_splits[2, :m - 2]) < 0).any()
        for k in (1, 2, int(rng.integers(3, m)), m):
            dp = fill_dp(table, k)
            assert np.array_equal(dp.costs, ref_costs[:k]), (table.kind, k)
            assert np.array_equal(dp.splits, ref_splits[:k]), (table.kind, k)


@pytest.mark.parametrize("name", ["uniform", "rounded", "zeros", "tiled"])
def test_fills_do_not_depend_on_slab_budget(name, monkeypatch):
    # 32 B gives 1- and 2-row slabs, 8 m^2 B one slab over the whole table;
    # the dataset's fills build its SSE rows slab by slab
    m = 300
    rng = np.random.default_rng(m)
    ds = _dataset(_slab_case(name, m, rng))
    sse = build_sse_table(ds)
    linear = build_linear_table(ds)
    refs = [_full_scan_fill(t.values, m, m) for t in (sse, loo_table(sse), linear)]
    k = int(rng.integers(3, m))
    for budget, heights in ((32, {1, 2}), (solver._SLAB_BYTES, None),
                            (8 * m * m, {m})):
        monkeypatch.setattr(solver, "_SLAB_BYTES", budget)
        assert heights in (None, {e - s for s, e in _slabs(m)})
        sources = ((sse, False), (sse, True), (linear, False), (ds, False),
                   (ds, True))
        for (table, loo), (ref_costs, ref_splits) in zip(sources, refs + refs[:2]):
            for dp in (fill_dp(table, k, loo=loo), fill_dp(table, m, loo=loo)):
                assert np.array_equal(dp.costs, ref_costs[:dp.k_max]), budget
                assert np.array_equal(dp.splits, ref_splits[:dp.k_max]), budget


@pytest.mark.parametrize("name", ["uniform", "rounded", "zeros"])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 300, 700])
def test_loo_fill_equals_fill_of_loo_table(m, name):
    # every k on short grids; on long ones the ends, the last feasible count
    # and the first infeasible one (every k > m/2 is); the dataset's fills
    # equal the fills of its SSE table
    rng = np.random.default_rng(m)
    ds = _dataset(_slab_case(name, m, rng))
    sse = build_sse_table(ds)
    loo = loo_table(sse)
    ks = range(1, m + 1) if m < 10 else (1, 2, int(rng.integers(3, m // 2)),
                                         m // 2, m // 2 + 1, m)
    for k in ks:
        ref = fill_dp(loo, k)
        for dp, want in ((fill_dp(sse, k, loo=True), ref),
                         (fill_dp(ds, k, loo=True), ref),
                         (fill_dp(ds, k), fill_dp(sse, k))):
            assert np.array_equal(dp.costs, want.costs), k
            assert np.array_equal(dp.splits, want.splits), k
        assert np.isfinite(ref.costs[k - 1, 0]) == (2 * k <= m), k


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("n", [1, 4, 124])
def test_dataset_fills_do_not_depend_on_block_budget(n, offset, monkeypatch):
    # budgets of one and of three full-width rows of n functions build each
    # slab of the dataset's SSE rows in several blocks; the default budget
    # is the last
    m = 300
    ds = _dataset(np.random.default_rng(n).normal(size=(n, m)) + offset)
    sse = build_sse_table(ds)
    k = m // 2 + 1  # the leave-one-out fill's last count is infeasible
    refs = [fill_dp(sse, k, loo=loo) for loo in (False, True)]
    blocks = []

    def counted(*args):
        blocks.append(args[2])  # the block's first row
        return sse_block(*args)

    sse_block, default = costs._sse_block, costs._BLOCK_BYTES
    monkeypatch.setattr(costs, "_sse_block", counted)
    for budget in (8 * n * m, 3 * 8 * n * m, default):
        monkeypatch.setattr(costs, "_BLOCK_BYTES", budget)
        for loo, ref in zip((False, True), refs):
            blocks.clear()
            dp = fill_dp(ds, k, loo=loo)
            assert np.array_equal(dp.costs, ref.costs), (budget, loo)
            assert np.array_equal(dp.splits, ref.splits), (budget, loo)
            if budget < default or n == 124:
                assert len(blocks) >= 2 * len(_slabs(m)), budget


def test_loo_costs_ignore_the_lower_triangle():
    # entries below the diagonal are unused: finite ones there must not leak
    # into leave-one-out costs (the factor is +inf there, inf * 0 is NaN)
    rng = np.random.default_rng(4)
    built = build_sse_table(_dataset(rng.normal(size=(2, 9))))
    values = built.values.copy()
    values[np.tril_indices(9, -1)] = rng.choice([0.0, -0.0, -1.0, 2.0], 36)
    sse = CostTable(m=9, kind=CostKind.SSE, values=values)
    loo = loo_table(sse)
    assert (loo.values[np.tril_indices(9)] == np.inf).all()
    assert np.array_equal(np.triu(loo.values, 1), np.triu(loo_table(built).values, 1))
    for k in range(1, 10):
        dp, ref = fill_dp(sse, k, loo=True), fill_dp(built, k, loo=True)
        assert np.array_equal(dp.costs, ref.costs), k
        assert np.array_equal(dp.splits, ref.splits), k


def test_loo_fill_needs_an_sse_table():
    sse = build_sse_table(SAW)
    for table in (loo_table(sse), build_linear_table(SAW)):
        with pytest.raises(ValueError, match="expected an SSE table"):
            fill_dp(table, 2, loo=True)


def test_fill_dp_rejects_nan_table():
    values = np.triu(np.ones((5, 5)))
    values[np.tril_indices(5, -1)] = np.inf
    values[1, 3] = np.nan
    table = CostTable(m=5, kind=CostKind.SSE, values=values)
    with pytest.raises(ValueError, match="NaN"):
        fill_dp(table, 3)
    with pytest.raises(ValueError, match="NaN"):
        solve(table, 3)
    # a NaN on the last column: Q(3..5) enters F(1, 3) alone
    values[1, 3], values[2, 4] = 1.0, np.nan
    table = CostTable(m=5, kind=CostKind.SSE, values=values)
    for k in (1, 3):
        with pytest.raises(ValueError, match="NaN"):
            fill_dp(table, k)


@pytest.mark.parametrize("m", [1, 2, 3, 300])
def test_fill_dp_keeps_its_sentinel_column_inside(m):
    # the fill's F has one +inf column past the grid: the table shows the m
    # real ones, and a cell is +inf with no split exactly where fewer than p
    # points are left (LOO cells can be +inf elsewhere, with a split)
    ds = _dataset(_slab_case("uniform", m, np.random.default_rng(m)))
    sse = build_sse_table(ds)
    j = np.arange(1, m + 1)
    for table, loo in ((sse, False), (sse, True), (build_linear_table(ds), False)):
        dp = fill_dp(table, m, loo=loo)
        assert dp.costs.shape == dp.splits.shape == (m, m)
        assert not dp.costs.flags.writeable and not dp.splits.flags.writeable
        for p in range(1, m + 1):
            empty = (dp.costs[p - 1] == np.inf) & (dp.splits[p - 1] == 0)
            assert np.array_equal(empty, j > m - p + 1), (table.kind, loo, p)


@st.composite
def _tied_tables(draw):
    """SSE-kind tables of up to 8 points whose upper-triangle entries are
    drawn from a few exact values and +inf, so many partitions tie."""
    m = draw(st.integers(1, 8))
    cells = m * (m + 1) // 2
    upper = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf]),
                          min_size=cells, max_size=cells))
    values = np.full((m, m), np.inf)
    values[np.triu_indices(m)] = upper
    return CostTable(m=m, kind=CostKind.SSE, values=values)


@settings(max_examples=150, deadline=None)
@given(_tied_tables())
def test_fill_dp_equals_brute_force_on_tied_tables(table):
    # 1-row slabs, the default budget and one slab over the whole table;
    # the LOO fill against enumeration of the LOO table
    m = table.m
    optima = [[brute_force(t, k) for k in range(1, m + 1)]
              for t in (table, loo_table(table))]
    for budget in (8, solver._SLAB_BYTES, 8 * m * m):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_SLAB_BYTES", budget)
            fills = (fill_dp(table, m), fill_dp(table, m, loo=True))
        for dp, best in zip(fills, optima):
            for k, (bseg, bcost) in enumerate(best, start=1):
                assert dp.costs[k - 1, 0] == bcost, (budget, k)
                if np.isfinite(bcost):
                    assert backtrack(dp, k).ends == bseg.ends, (budget, k)


def _reference_walk(splits, k):
    """Backtrack k reading one numpy scalar per step, with no checks."""
    ends, j = [], 1
    for p in range(k, 0, -1):
        ends.append(int(splits[p - 1, j - 1]))
        j = ends[-1] + 1
    return tuple(ends)


@pytest.mark.parametrize("name", ["uniform", "rounded", "zeros"])
@pytest.mark.parametrize("m", [1, 2, 7, 300])
def test_backtracks_equal_reference_walks(m, name):
    # "rounded" and "zeros" tie many splits; LOO leaves every k > m/2
    # infeasible
    ds = _dataset(_slab_case(name, m, np.random.default_rng(m)))
    sse = build_sse_table(ds)
    for table in (sse, loo_table(sse), build_linear_table(ds)):
        dp = fill_dp(table, m)
        results = solve_all(table, m)
        for k in range(1, m + 1):
            ref = _reference_walk(dp.splits, k)
            assert backtrack(dp, k).ends == ref, (table.kind, k)
            res = results[k - 1]
            if np.isfinite(dp.costs[k - 1, 0]):
                assert res.segmentation.ends == ref, (table.kind, k)
                assert res.cost == dp.costs[k - 1, 0]
            else:
                assert table.kind is CostKind.LOO and 2 * k > m
                assert res.segmentation is None and res.cost == np.inf
        if table.kind is CostKind.LOO:
            assert sum(r.segmentation is None for r in results) == m - m // 2


def test_sweep_never_backtracks_infeasible_counts(monkeypatch):
    # blank the first split of every infeasible k: only a backtrack of that
    # k reads it, and it would fail there
    table = loo_table(build_sse_table(_dataset(
        np.random.default_rng(5).normal(size=(2, 9)))))
    expected = solve_all(table, 9)
    dp = fill_dp(table, 9)
    splits = dp.splits.copy()
    splits[~np.isfinite(dp.costs[:, 0]), 0] = 0
    blanked = DPTable(k_max=9, m=9, costs=dp.costs, splits=splits)
    monkeypatch.setattr(solver, "fill_dp", lambda table, k_max, loo: blanked)
    assert solve_all(table, 9) == expected
    with pytest.raises(ValueError, match="no 9-partition recorded at index 1"):
        backtrack(blanked, 9)
