"""The dynamic program against exhaustive enumeration and its frozen examples."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_force, full_scan_fill_dp, loo_table, partition_cost

from segbasis import (
    CostKind,
    CostTable,
    InfeasiblePartitionError,
    SynthSpec,
    add_noise,
    build_linear_table,
    build_sse_table,
    fill_dp,
    generate,
    new_dataset,
    partition_totals,
    read_csv,
    solve,
    solve_all,
)
from segbasis import costs, solver
from segbasis.solver import _slabs, backtrack


def _cost(loo):
    return CostKind.LOO if loo else CostKind.SSE


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
                        solve(table, k, table.kind)
                    continue
                seg, cost, _ = solve(table, k, table.kind)
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
        solve(table, 3, CostKind.LOO)
    results = solve_all(table, 4, CostKind.LOO)
    assert results[2].segmentation is None and not results[2].feasible
    assert results[3].segmentation is None
    assert results[1].feasible


def test_loo_feasible_solutions_have_no_singletons():
    rng = np.random.default_rng(57)
    for _ in range(20):
        n, m = int(rng.integers(1, 4)), int(rng.integers(4, 13))
        table = loo_table(build_sse_table(_dataset(rng.uniform(-1, 1, (n, m)))))
        for res in solve_all(table, m // 2 + 1, CostKind.LOO):
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
            dp = fill_dp(table, k, table.kind)
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
        sources = ((sse, CostKind.SSE), (sse, CostKind.LOO), (linear, CostKind.LINEAR),
                   (ds, CostKind.SSE), (ds, CostKind.LOO), (ds, CostKind.LINEAR))
        for (table, cost), (ref_costs, ref_splits) in zip(sources, refs + refs):
            for dp in (fill_dp(table, k, cost), fill_dp(table, m, cost)):
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
        ref = fill_dp(loo, k, CostKind.LOO)
        for dp, want in ((fill_dp(sse, k, CostKind.LOO), ref),
                         (fill_dp(ds, k, CostKind.LOO), ref),
                         (fill_dp(ds, k), fill_dp(sse, k))):
            assert np.array_equal(dp.costs, want.costs), k
            assert np.array_equal(dp.splits, want.splits), k
        assert np.isfinite(ref.costs[k - 1, 0]) == (2 * k <= m), k


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("n", [1, 4, 124])
def test_dataset_fills_do_not_depend_on_block_budget(n, offset, monkeypatch):
    # budgets of one and of three full-width rows of n functions build each
    # slab of the dataset's SSE rows in several blocks; the default budget
    # is the last.  A fill of n >= _SCREEN_N functions screens its rows
    # instead of building them, so the crossover is set above n here
    monkeypatch.setattr(solver, "_SCREEN_N", n + 1)
    m = 300
    ds = _dataset(np.random.default_rng(n).normal(size=(n, m)) + offset)
    sse = build_sse_table(ds)
    k = m // 2 + 1  # the leave-one-out fill's last count is infeasible
    refs = [fill_dp(sse, k, _cost(loo)) for loo in (False, True)]
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
            dp = fill_dp(ds, k, _cost(loo))
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
        dp, ref = fill_dp(sse, k, CostKind.LOO), fill_dp(built, k, CostKind.LOO)
        assert np.array_equal(dp.costs, ref.costs), k
        assert np.array_equal(dp.splits, ref.splits), k


def test_costs_ignore_the_lower_triangle():
    # the loo=False twin: a table's entries below the diagonal read as +inf,
    # so finite ones there never become a split (-100 there once gave a
    # total of -80.29 and split 4 instead of 15.02 and split 7)
    rng = np.random.default_rng(4)
    built = build_sse_table(_dataset(rng.normal(size=(2, 9))))
    for junk in (-100.0, rng.choice([0.0, -0.0, -1.0, 2.0], 36)):
        values = built.values.copy()
        values[np.tril_indices(9, -1)] = junk
        table = CostTable(m=9, kind=CostKind.SSE, values=values)
        assert np.array_equal(table.values, built.values)
        for k in range(1, 10):
            dp, ref = fill_dp(table, k), fill_dp(built, k)
            assert np.array_equal(dp.costs, ref.costs), k
            assert np.array_equal(dp.splits, ref.splits), k


def test_loo_fill_needs_an_sse_table():
    # a table serves the cost it holds, and an SSE table leave-one-out too
    sse, linear = build_sse_table(SAW), build_linear_table(SAW)
    for table, cost in ((linear, CostKind.LOO), (linear, CostKind.SSE),
                        (loo_table(sse), CostKind.SSE)):
        with pytest.raises(ValueError, match="expected an SSE table"):
            fill_dp(table, 2, cost)
    for table in (sse, loo_table(sse)):
        with pytest.raises(ValueError, match="expected a linear table"):
            fill_dp(table, 2, CostKind.LINEAR)


def test_fill_dp_rejects_nan_table():
    values = np.triu(np.ones((5, 5)))
    values[np.tril_indices(5, -1)] = np.inf
    values[1, 3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        table = CostTable(m=5, kind=CostKind.SSE, values=values)
        fill_dp(table, 3)
    # a NaN on the last column: Q(3..5) enters F(1, 3) alone
    values[1, 3], values[2, 4] = 1.0, np.nan
    with pytest.raises(ValueError, match="NaN"):
        table = CostTable(m=5, kind=CostKind.SSE, values=values)
        fill_dp(table, 1)


def test_nan_far_right_in_a_multi_slab_table_raises():
    # a scan that stops early never reads this cell: the table rejects it
    m = 3000
    assert len(_slabs(m)) > 1
    values = np.ones((m, m))
    values[0, m - 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        CostTable(m=m, kind=CostKind.SSE, values=values)


@pytest.mark.parametrize("cell, value, message", [
    ((0, 0), -1e-300, "negative"), ((1, 3), -np.inf, "negative"),
    ((3, 1), np.nan, "NaN"),
])
def test_cost_table_rejects_what_the_pruning_cannot_read(cell, value, message):
    values = np.triu(np.ones((5, 5)))
    values[cell] = value
    with pytest.raises(ValueError, match=message):
        CostTable(m=5, kind=CostKind.SSE, values=values)


def test_cost_table_holds_the_square_it_checked():
    # a later write to the caller's array (here a negative cost, which the
    # scans' early stops cannot read) leaves the table as checked
    values = np.triu(np.ones((5, 5)))
    table = CostTable(m=5, kind=CostKind.SSE, values=values)
    values[0, 4] = -1.0
    assert table.values[0, 4] == 1.0 and not table.values.flags.writeable
    built = build_sse_table(SAW)
    assert CostTable(m=4, kind=CostKind.SSE, values=built.values).values is built.values
    with pytest.raises(ValueError, match="shape"):
        CostTable(m=4, kind=CostKind.SSE, values=np.ones((4, 5)))


@pytest.mark.parametrize("m", [1, 2, 3, 300])
def test_fill_dp_keeps_its_sentinel_column_inside(m):
    # the fill's F has one +inf column past the grid: the table shows the m
    # real ones, and a cell is +inf with no split exactly where fewer than p
    # points are left (LOO cells can be +inf elsewhere, with a split)
    ds = _dataset(_slab_case("uniform", m, np.random.default_rng(m)))
    sse = build_sse_table(ds)
    j = np.arange(1, m + 1)
    for table, cost in ((sse, CostKind.SSE), (sse, CostKind.LOO),
                        (build_linear_table(ds), CostKind.LINEAR),
                        (ds, CostKind.LINEAR)):
        dp = fill_dp(table, m, cost)
        assert dp.costs.shape == dp.splits.shape == (m, m)
        assert not dp.costs.flags.writeable and not dp.splits.flags.writeable
        for p in range(1, m + 1):
            empty = (dp.costs[p - 1] == np.inf) & (dp.splits[p - 1] == 0)
            assert np.array_equal(empty, j > m - p + 1), (cost, p)


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
            fills = (fill_dp(table, m), fill_dp(table, m, CostKind.LOO))
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
        dp = fill_dp(table, m, table.kind)
        results = solve_all(table, m, table.kind)
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
    expected = solve_all(table, 9, CostKind.LOO)
    dp = fill_dp(table, 9, CostKind.LOO)
    splits = dp.splits.copy()
    splits[~np.isfinite(dp.costs[:, 0]), 0] = 0
    blanked = replace(dp, splits=splits)
    monkeypatch.setattr(solver, "fill_dp", lambda table, k_max, cost: blanked)
    assert solve_all(table, 9, CostKind.LOO) == expected
    with pytest.raises(ValueError, match="no 9-partition recorded at index 1"):
        backtrack(blanked, 9)


def _full_scan_count(m, k_max):
    """Candidate sums of the full scan: r rows of width w a pass."""
    return sum((min(e, m - p + 1) - s) * (m - s) for s, e in _slabs(m)
               for p in range(2, min(k_max, m - s) + 1))


@pytest.mark.parametrize("m", [1, 2, 7, 256])
def test_one_slab_fills_count_the_full_scan(m):
    ds = _dataset(_slab_case("uniform", m, np.random.default_rng(m)))
    assert len(_slabs(m)) == 1
    for source, loo in ((build_sse_table(ds), False), (ds, True)):
        for k in {1, min(m, 3), m}:
            dp = fill_dp(source, k, _cost(loo))
            assert dp.candidates == _full_scan_count(m, k)
            assert dp.candidates == full_scan_fill_dp(source, k, _cost(loo)).candidates


@pytest.mark.parametrize("seed", [0, 1])
def test_fine_grid_fill_evaluates_at_most_half_the_full_scan(seed):
    # the select-fine shape: few curves on a long grid, many segments
    ds = add_noise(generate(SynthSpec(n=4, m=2048), seed), 0.04, seed + 1)
    full = _full_scan_count(2048, 64)
    for loo in (False, True):
        assert fill_dp(ds, 64, _cost(loo)).candidates <= full // 2, loo


def _untrimmed(m):
    """Entries of an m-point fill's slabs when each is built whole."""
    return sum((e - s) * (m - s) for s, e in _slabs(m))


def _cut_case(name, m):
    """Curves on which a dataset fill cuts its slabs short: the synthetic
    default bumps, step curves (rounded to whole numbers: many exact ties),
    long tiled steps and noisy spectra like perfbench's select-fine."""
    rng = np.random.default_rng(m)
    if name == "bumps":
        return add_noise(generate(SynthSpec(n=4, m=m), 1), 0.04, 2).values
    if name == "steps":
        ends = [m // 7, m // 3, 4 * m // 9, 2 * m // 3, 4 * m // 5, m]
        levels = [[0.0, 5.0, 1.0, 2.0, 0.0, 3.0], [1.0, 1.0, 0.0, 5.0, 2.0, 2.0]]
        return np.round(_steps(levels, ends, 0.3 * rng.uniform(-1, 1, (2, m))))
    if name == "tiled":
        tile = np.repeat([0.0, 10.0, 10.0, 0.0], 50)
        return np.resize(tile, m) + 0.5 * rng.normal(size=(3, m))
    t = np.linspace(0.0, 1.0, m)
    bumps = (np.exp(-((t - 0.4) / 0.02) ** 2)
             - 0.5 * np.exp(-((t - 0.7) / 0.1) ** 2))
    return bumps * rng.uniform(0.8, 1.2, (4, 1)) + 0.04 * rng.normal(size=(4, m))


@pytest.mark.parametrize("name", ["bumps", "steps", "tiled", "spectra"])
@pytest.mark.parametrize("slab_bytes, block_bytes", [
    (16 * 1024, 8 * 1024), (16 * 1024, None), (None, None)])
def test_dataset_fills_cut_their_slabs_and_equal_table_fills(
        name, slab_bytes, block_bytes, monkeypatch):
    # 16 KiB slabs split m = 600 into 101 slabs and the default into 4; an
    # 8 KiB block budget builds a slab a few rows at a time.  The slabs above
    # the bottom one are built short, and the fill keeps the bits of the
    # table's fill and of the full scan of the table.  Periodic tiles are
    # fitted so badly by two segments that the four default slabs of their
    # fill keep every column
    if slab_bytes is not None:
        monkeypatch.setattr(solver, "_SLAB_BYTES", slab_bytes)
    if block_bytes is not None:
        monkeypatch.setattr(costs, "_BLOCK_BYTES", block_bytes)
    m = 600
    ds = _dataset(_cut_case(name, m))
    table = build_sse_table(ds)
    for loo in (False, True):
        for k in (2, 16, 64):
            dp = fill_dp(ds, k, _cost(loo))
            whole = fill_dp(table, k, _cost(loo))
            for ref in (whole, full_scan_fill_dp(table, k, _cost(loo))):
                assert np.array_equal(dp.costs, ref.costs), (loo, k)
                assert np.array_equal(dp.splits, ref.splits), (loo, k)
            assert whole.slab_cells == _untrimmed(m)
            if slab_bytes is not None or name != "tiled":
                assert dp.slab_cells < _untrimmed(m), (loo, k)


@pytest.mark.parametrize("seed", range(8))
def test_slab_cuts_hold_for_short_leave_one_out_segments(seed, monkeypatch):
    # noise whose scale changes every 4 points, in slabs of a few rows:
    # row e's splits end close to it, where a shorter row's leave-one-out
    # factor is well above the slab's first row's, and the cut must bound
    # each row's factor to keep the table fill's bits
    rng = np.random.default_rng(seed)
    m = 120
    scale = np.repeat(rng.choice([0.01, 1.0, 5.0], size=m // 4), 4)
    ds = _dataset(rng.normal(size=(2, m)) * scale)
    table = build_sse_table(ds)
    cut = False
    for budget in (128, 512):
        monkeypatch.setattr(solver, "_SLAB_BYTES", budget)
        for k in (3, 8):
            for loo in (False, True):
                dp = fill_dp(ds, k, _cost(loo))
                ref = fill_dp(table, k, _cost(loo))
                assert np.array_equal(dp.costs, ref.costs), (budget, k, loo)
                assert np.array_equal(dp.splits, ref.splits), (budget, k, loo)
                cut |= dp.slab_cells < _untrimmed(m)
    assert cut


def test_fine_grid_fills_build_a_fifth_fewer_slab_cells():
    # the select-fine shape, n=4, m=2048, k=64, over seeds 0-3: built only
    # out to the columns their passes can use, the slabs hold at least 20%
    # fewer entries than whole ones (75-79% of them kept a seed)
    datasets = [add_noise(generate(SynthSpec(n=4, m=2048), seed), 0.04, seed + 1)
                for seed in range(4)]
    for loo in (False, True):
        cells = [fill_dp(ds, 64, _cost(loo)).slab_cells for ds in datasets]
        assert max(cells) < _untrimmed(2048), loo
        assert sum(cells) <= 0.8 * len(cells) * _untrimmed(2048), (loo, cells)


def test_bench_fill_at_m512_scans_every_pass_whole():
    # the n=32, m=512 `bench` fill at k=16, the m=512 side of acceptance 8's
    # DP m-ratio: each slab's first bound keeps every column, so the slab
    # stops bounding there.  Bounding on would stay exact but evaluate
    # 2,020,462 sums, and the ratio's floor has tripped on unchanged code
    table = build_sse_table(generate(SynthSpec(n=32, m=512), 0))
    assert fill_dp(table, 16).candidates == _full_scan_count(512, 16) == 2_686_140


@pytest.mark.parametrize("source, k_max, work", [
    # acceptance 8's `bench` tables at k=16: one 256 x 256 slab, and three
    # slabs at m=512; both scan every pass whole
    ("bench m=256", 16, (952_320, 65_536, 15)),
    ("bench m=512", 16, (2_686_140, 181_124, 45)),
    # the select shape from the data: 34 slabs of 63 passes, cut and bounded
    ("select sse", 64, (44_255_001, 1_730_776, 2142)),
    ("select loo", 64, (44_802_351, 1_732_840, 2142)),
])
def test_fills_do_the_work_pinned_for_them(source, k_max, work):
    # candidates, slab cells and passes on fixed inputs: a change that makes
    # a fill faster by doing less or more work shows here, not only in time
    if source.startswith("bench"):
        data = build_sse_table(generate(SynthSpec(n=32, m=int(source[-3:])), 0))
    else:
        data = add_noise(generate(SynthSpec(n=4, m=2048), 0), 0.04, 1)
    dp = fill_dp(data, k_max, _cost(source.endswith("loo")))
    assert (dp.candidates, dp.slab_cells, dp.passes) == work
    assert dp.passes == sum(min(k_max, dp.m - s) - 1 for s, _ in _slabs(dp.m))


def test_split_rows_written_as_slab_offsets_keep_the_full_scans_bits(
        tmp_path, monkeypatch):
    # a slab's passes write each split as its offset from the slab's first
    # column and the slab adds the offset back at its end.  A 64 B budget
    # splits m = 8 into the slabs (6, 8), (4, 6), (3, 4), (2, 3), (1, 2)
    # and (0, 1), so at k_max = m the rows that admit a p-partition fall
    # inside the bottom slabs while they bound: rows 5 and 6 at p = 3, row 5
    # alone at p = 4.  The curves are two runs, of 6 and 2 equal values
    path = tmp_path / "runs.csv"
    path.write_text("0,1,2,3,4,5,6,7\n0,0,0,0,0,0,1,1\n2,2,2,2,2,2,-1,-1\n")
    ds = read_csv(str(path), has_grid_row=True)
    sse = build_sse_table(ds)
    holed = sse.values.copy()
    holed[[0, 1], [7, 7]] = np.inf  # Q(1..8) and Q(2..8)
    holed = CostTable(m=8, kind=CostKind.SSE, values=holed)
    monkeypatch.setattr(solver, "_SLAB_BYTES", 64)
    assert _slabs(8) == [(6, 8), (4, 6), (3, 4), (2, 3), (1, 2), (0, 1)]
    # every fill builds its slabs whole (38 cells: 2x2 + 2x4 + 5 + 6 + 7 +
    # 8, as k_max = m leaves no finished row below a slab for every p) and
    # runs 1 + 3 + 4 + 5 + 6 + 7 = 26 passes.  The full scan evaluates 170
    # sums: 2 + (8 + 8 + 4) + 4x5 + 5x6 + 6x7 + 7x8.  With SSE costs every
    # row's best from p = 3 on is 0 (at most two runs remain), so a pass
    # needs the columns up to the last one where a slab row's run ends:
    # the square of (4, 6), 3, 4, 5 and 6 columns of the one-row slabs,
    # 2 + (8 + 2x2 + 2) + (5 + 3x3) + (6 + 4x4) + (7 + 5x5) + (8 + 6x6) = 128.
    # With leave-one-out costs row j's best at p = 3 reads F(2, 7), the two
    # last points in two singletons, +inf: every slab stops bounding and
    # scans whole
    for source in (sse, ds, holed):
        for loo, candidates in ((False, 128), (True, 170)):
            dp = fill_dp(source, 8, _cost(loo))
            ref = full_scan_fill_dp(source, 8, _cost(loo))
            assert np.array_equal(dp.costs, ref.costs), loo
            assert np.array_equal(dp.splits, ref.splits), loo
            for p in range(2, 9):  # rows j > m-p+1 admit no p-partition
                assert not dp.splits[p - 1, 9 - p:].any(), (loo, p)
            assert (dp.candidates, dp.slab_cells, dp.passes) == (candidates, 38, 26)
            assert (ref.candidates, ref.slab_cells, ref.passes) == (170, 38, 26)


def _steps(levels, ends, noise):
    """Curves constant between the 1-based ``ends`` (one row of ``levels``
    a curve) plus ``noise``: their long intervals cost far more than their
    optima, so the scans stop early."""
    lengths = np.diff([0, *ends])
    return np.repeat(np.asarray(levels, dtype=float), lengths, axis=1) + noise


def _sources(values, holes=()):
    """The fill's sources for one value array and the cost each is filled
    under: SSE and linear tables, the dataset, their leave-one-out fills,
    and an SSE table with +inf at the upper-triangle cells (flat indices)
    in ``holes``."""
    ds = _dataset(values)
    sse = build_sse_table(ds)
    m = ds.m
    holed = sse.values.copy()
    cells = np.unravel_index(np.asarray(holes, dtype=np.intp), (m, m))
    holed[cells] = np.inf
    holed = CostTable(m=m, kind=CostKind.SSE, values=holed)
    sse_, loo = CostKind.SSE, CostKind.LOO
    return [(sse, sse_), (sse, loo), (ds, sse_), (ds, loo),
            (build_linear_table(ds), CostKind.LINEAR), (holed, sse_), (holed, loo)]


@st.composite
def _pruning_cases(draw):
    m = draw(st.integers(2, 64))
    n = draw(st.integers(1, 3))
    ends = sorted(draw(st.sets(st.integers(1, m - 1), max_size=6))) + [m]
    levels = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                           min_size=n * len(ends), max_size=n * len(ends)))
    scale = draw(st.sampled_from([0.0, 0.01, 0.3]))  # 0.0: many exact ties
    noise = draw(st.lists(st.floats(-1, 1), min_size=n * m, max_size=n * m))
    values = _steps(np.reshape(levels, (n, -1)), ends,
                    scale * np.reshape(noise, (n, m)))
    values += draw(st.sampled_from([0.0, 1e6]))
    holes = draw(st.lists(st.integers(0, m * m - 1), max_size=8))
    budget = draw(st.sampled_from([64, 256, 1024, 4096, solver._SLAB_BYTES]))
    return values, holes, budget, draw(st.integers(1, m))


@settings(max_examples=150, deadline=None)
@given(_pruning_cases())
def test_pruned_fill_equals_full_scan(case):
    # budgets of 8 to 512 cells give m <= 64 several slabs with columns
    # right of their squares, where the scans may stop early; step curves
    # with and without noise, exact ties, +inf and a 1e6 offset
    values, holes, budget, k = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SLAB_BYTES", budget)
        for source, cost in _sources(values, holes):
            dp = fill_dp(source, k, cost)
            ref = full_scan_fill_dp(source, k, cost)
            assert np.array_equal(dp.costs, ref.costs), (cost, budget)
            assert np.array_equal(dp.splits, ref.splits), (cost, budget)
            assert dp.candidates <= ref.candidates


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("scale", [0.0, 0.01, 0.3])
def test_pruned_fill_cuts_and_equals_full_scan(scale, offset, monkeypatch):
    # a 4 KiB budget splits m = 64 into slabs of 8 to 22 rows; on step
    # curves every source's scans stop early, with the full scan's bits
    monkeypatch.setattr(solver, "_SLAB_BYTES", 4096)
    m = 64
    rng = np.random.default_rng(m)
    values = _steps([[0.0, 5.0, 1.0, 2.0, 0.0], [1.0, 1.0, 0.0, 5.0, 2.0]],
                    [9, 20, 33, 50, m], scale * rng.uniform(-1, 1, (2, m)))
    for source, cost in _sources(values + offset, holes=(70, 300, 2000)):
        for k in (3, 8, 16, m):
            dp = fill_dp(source, k, cost)
            ref = full_scan_fill_dp(source, k, cost)
            assert np.array_equal(dp.costs, ref.costs), (cost, k)
            assert np.array_equal(dp.splits, ref.splits), (cost, k)
            if k == 8:
                assert dp.candidates < ref.candidates, (source, cost)


def test_held_columns_shrink_and_grow_again(monkeypatch):
    # a 1 KiB budget splits m = 128 into slabs of 1 to 11 rows.  In the
    # leave-one-out fills the held columns shrink by more than 1/8, later
    # passes scan them wider than they need, and the bounds then rise again:
    # the slab of rows 95..97 holds 34 -> 26 -> 22 -> 19 columns, scans 26
    # where 23 and 22 suffice, then regrows to 20, 23, 24 and 32; at k = m
    # the slab of rows 11..12 holds 24 columns for 55 passes and must regrow
    # to 82 of its 118, where a column past the 24th wins
    monkeypatch.setattr(solver, "_SLAB_BYTES", 1024)
    m = 128
    noise = 0.01 * np.random.default_rng(2).uniform(-1, 1, (1, m))
    values = _steps([[0.0, 2.0, 1.0, 0.0, 0.0, 5.0]], [31, 33, 34, 51, 92, m],
                    noise)
    for source, cost in _sources(values, holes=(10167, 13881, 16271)):
        for k in (16, m):
            dp = fill_dp(source, k, cost)
            ref = full_scan_fill_dp(source, k, cost)
            assert np.array_equal(dp.costs, ref.costs), (cost, k)
            assert np.array_equal(dp.splits, ref.splits), (cost, k)
            assert dp.candidates <= ref.candidates


def _objectives_and_priced_totals(source, k_max, cost):
    """F(k, 1) of every feasible k of one fill under ``cost``, SSE or
    leave-one-out, and the totals of that cost ``partition_totals`` prices
    for the bases the fill backtracks, both as raw bits."""
    dp = fill_dp(source, k_max, cost)
    objective = dp.costs[:, 0]
    feasible = np.isfinite(objective)
    segs = [backtrack(dp, k) for k in range(1, k_max + 1) if feasible[k - 1]]
    priced = np.array(partition_totals(source, segs)[cost is CostKind.LOO],
                      dtype=float)
    return objective[feasible].view(np.uint64), priced.view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(_pruning_cases())
def test_fill_objective_is_the_priced_total_of_its_basis(case):
    # reports price the minimized total too, so it must keep the fill's
    # bits: tied and noisy step curves, a 1e6 offset, +inf holes and the
    # leave-one-out singletons, at multi-slab budgets
    values, holes, budget, k_max = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SLAB_BYTES", budget)
        for source, cost in _sources(values, holes):
            if cost is CostKind.LINEAR:
                continue  # linear totals are not priced from SSE entries
            objective, priced = _objectives_and_priced_totals(source, k_max, cost)
            assert np.array_equal(objective, priced), (cost, budget)


@pytest.mark.parametrize("loo", [False, True])
@pytest.mark.parametrize("n, m", [(124, 256), (4, 700)])
def test_sweep_objectives_are_the_priced_totals_of_their_bases(n, m, loo):
    # a default-size sweep in one slab, and a fine grid in several
    ds = add_noise(generate(SynthSpec(n=n, m=m), 3), 0.04, 4)
    for source in (ds, build_sse_table(ds)):
        objective, priced = _objectives_and_priced_totals(source, 64, _cost(loo))
        assert objective.size == 64
        assert np.array_equal(objective, priced)


@settings(max_examples=150, deadline=None)
@given(_pruning_cases())
def test_screened_fill_equals_full_scan(case):
    # the screen at every n: step curves with and without noise, exact ties,
    # constant runs, a 1e6 offset and leave-one-out counts past m/2, in one
    # slab and in several, keep the full scan's bits
    values, _, budget, k = case
    ds = _dataset(values)
    table = build_sse_table(ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SCREEN_N", 1)
        mp.setattr(solver, "_SLAB_BYTES", budget)
        for loo in (False, True):
            dp = fill_dp(ds, k, _cost(loo))
            ref = full_scan_fill_dp(table, k, _cost(loo))
            assert np.array_equal(dp.costs, ref.costs), (loo, budget)
            assert np.array_equal(dp.splits, ref.splits), (loo, budget)
            assert dp.candidates <= ref.candidates


@st.composite
def _linear_cases(draw):
    """A pruning case on an uneven grid: gaps of 1e-9 to 3, some offset by
    1e6, so that some intervals have a tiny or a cancelled Ctt."""
    values, _, budget, k = draw(_pruning_cases())
    gaps = draw(st.lists(st.sampled_from([1.0, 0.5, 3.0, 1e-9]),
                         min_size=values.shape[1], max_size=values.shape[1]))
    return np.cumsum(gaps) + draw(st.sampled_from([0.0, 1e6])), values, budget, k


@settings(max_examples=150, deadline=None)
@given(_linear_cases())
def test_screened_linear_fill_equals_full_scan(case):
    # linear rows screened at every n, and built, from the data, in one slab
    # and in several, keep the full scan of the linear table's bits
    grid, values, budget, k = case
    ds = new_dataset(grid, values)
    ref = full_scan_fill_dp(build_linear_table(ds), k, CostKind.LINEAR)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SLAB_BYTES", budget)
        for screen_n in (1, ds.n + 1):
            mp.setattr(solver, "_SCREEN_N", screen_n)
            dp = fill_dp(ds, k, CostKind.LINEAR)
            assert np.array_equal(dp.costs, ref.costs), (screen_n, budget)
            assert np.array_equal(dp.splits, ref.splits), (screen_n, budget)
            assert dp.candidates <= ref.candidates


@pytest.mark.parametrize("name", ["bumps", "steps", "tiled", "spectra"])
def test_screened_fills_cut_their_slabs_and_equal_the_full_scan(name, monkeypatch):
    # a screened fill cuts its slabs as a built one does: 16 KiB slabs
    # split m = 600 into 101, each screened only out to the columns its
    # passes can use
    monkeypatch.setattr(solver, "_SCREEN_N", 1)
    monkeypatch.setattr(solver, "_SLAB_BYTES", 16 * 1024)
    m = 600
    ds = _dataset(_cut_case(name, m))
    table = build_sse_table(ds)
    for loo in (False, True):
        for k in (2, 16, 64):
            dp = fill_dp(ds, k, _cost(loo))
            ref = full_scan_fill_dp(table, k, _cost(loo))
            assert np.array_equal(dp.costs, ref.costs), (loo, k)
            assert np.array_equal(dp.splits, ref.splits), (loo, k)
            assert dp.slab_cells < _untrimmed(m), (loo, k)


@pytest.mark.parametrize("sigma", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("n, m", [(124, 256), (124, 700), (4, 256)])
def test_fills_screen_from_the_crossover_on(n, m, sigma):
    # the default size screens its rows, linear ones too, and prices only
    # the cells its passes pick; n=4 builds them, and prices no cell in one
    # slab
    ds = generate(SynthSpec(n=n, m=m), 5)
    if sigma:
        ds = add_noise(ds, sigma, 6)
    sse, linear = build_sse_table(ds), build_linear_table(ds)
    for cost in CostKind:
        table = linear if cost is CostKind.LINEAR else sse
        for k in (8, 32, 64):
            dp = fill_dp(ds, k, cost)
            ref = full_scan_fill_dp(table, k, cost)
            assert np.array_equal(dp.costs, ref.costs), (cost, k)
            assert np.array_equal(dp.splits, ref.splits), (cost, k)
            if n >= solver._SCREEN_N:
                assert m < dp.priced < dp.slab_cells // 8, (cost, k)
            elif len(_slabs(m)) == 1:
                assert dp.priced == 0


@pytest.mark.parametrize("n, m, screen_n", [(4, 250, 1), (124, 64, None)])
def test_tied_screens_price_each_cell_at_most_once(n, m, screen_n, monkeypatch):
    # constant curves: every entry is 0 and every candidate ties.  A row's
    # leftmost argmin is then its length-1 cell, exact from the start, so
    # SSE and linear fills price only F(1, .); a leave-one-out row's is at
    # length 2.  A slab prices a cell at most once, so a fill prices at
    # most its slab cells, F(1, .) included
    if screen_n is not None:
        monkeypatch.setattr(solver, "_SCREEN_N", screen_n)
    levels = np.resize([3.7, 1e8 + 0.1, -2.5e-3, 7.0], (n, 1))
    ds = _dataset(np.repeat(levels, m, axis=1))
    sse, linear = build_sse_table(ds), build_linear_table(ds)
    for budget in (solver._SLAB_BYTES, 16 * 1024):
        monkeypatch.setattr(solver, "_SLAB_BYTES", budget)
        for cost in CostKind:
            dp = fill_dp(ds, 32, cost)
            ref = full_scan_fill_dp(linear if cost is CostKind.LINEAR else sse,
                                    32, cost)
            assert np.array_equal(dp.costs, ref.costs), (budget, cost)
            assert np.array_equal(dp.splits, ref.splits), (budget, cost)
            assert dp.priced <= dp.slab_cells, (budget, cost)
            if cost is not CostKind.LOO:
                assert dp.priced == m, (budget, cost)
