"""The dynamic program against exhaustive enumeration and its frozen examples."""

import numpy as np
import pytest

from segbasis import (
    InfeasiblePartitionError,
    brute_force,
    build_linear_table,
    build_sse_table,
    fill_dp,
    loo_table,
    new_dataset,
    partition_cost,
    solve,
    solve_all,
)


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
    from segbasis.solver import backtrack

    for k in range(1, 6):
        seg = backtrack(dp, k, table.m)
        assert seg.k == k
        assert float(dp.costs[k - 1, 0]) == partition_cost(table, seg)
    with pytest.raises(ValueError, match="exceeds solved"):
        backtrack(dp, 6, table.m)
    with pytest.raises(ValueError, match="does not match"):
        backtrack(dp, 2, 7)


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
