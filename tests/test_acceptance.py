"""End-to-end acceptance checks for the finished tool.

Each check covers one external requirement: solver exactness, cost-table
correctness against independent oracles, baseline dominance, selection
behavior, scaling, and reproducibility.  Every check reports a PASS/FAIL
line through the terminal summary hook in conftest, so a run ends with one
line per requirement even when an assertion aborts a check early.
"""

import csv
import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np
import pytest
from conftest import record_acceptance
from oracles import brute_force, loo_table, partition_cost, prefix_oracle_cost

from segbasis import (
    InfeasiblePartitionError,
    build_linear_table,
    build_sse_table,
    greedy_agglomerative,
    main,
    new_dataset,
    solve,
    solve_all,
    uniform_partition,
)


def check(label):
    """Record ``label`` as PASS when the test body finishes, FAIL otherwise."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(label, False)
                raise
            record_acceptance(label, True)
            return out

        return run

    return wrap


@functools.lru_cache(maxsize=1)
def small_suite():
    """500 seeded instances: up to 5 functions on up to 16 points, values
    uniform in [-1, 1]."""
    rng = np.random.default_rng(20240901)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 17))
        values = rng.uniform(-1.0, 1.0, size=(n, m))
        out.append(new_dataset(np.arange(m, dtype=float), values))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def small_suite_tables():
    """All three cost tables for every small-suite instance."""
    out = []
    for ds in small_suite():
        sse = build_sse_table(ds)
        out.append((ds, sse, loo_table(sse), build_linear_table(ds)))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def medium_suite():
    """100 datasets: up to 10 functions on up to 64 points."""
    rng = np.random.default_rng(1317)
    out = []
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(2, 65))
        values = rng.uniform(-1.0, 1.0, size=(n, m))
        out.append(new_dataset(np.arange(m, dtype=float), values))
    return tuple(out)


@check("acceptance 1 (exact solver matches exhaustive search)")
def test_solver_matches_exhaustive_search():
    start = time.perf_counter()
    suite = small_suite_tables()
    assert len(suite) >= 500
    compared = 0
    for ds, sse, loo, lin in suite:
        for table in (sse, loo, lin):
            # the LOO optimum also from the SSE table, scaled in the fill as
            # every command runs it
            runs = [(loo, False), (sse, True)] if table is loo else [(table, False)]
            for k in range(1, min(6, ds.m) + 1):
                expected, expected_cost = brute_force(table, k)
                for source, scaled in runs:
                    if expected is None:
                        with pytest.raises(InfeasiblePartitionError):
                            solve(source, k, loo=scaled)
                        continue
                    seg, cost, _ = solve(source, k, loo=scaled)
                    assert seg == expected
                    assert abs(cost - expected_cost) <= 1e-9
                    compared += 1
    assert compared >= 500
    assert time.perf_counter() - start < 60.0


def _direct_cost(values, s, e):
    """Single-segment SSE straight from the definition: deviations from the
    segment mean, squared and summed over points and functions."""
    seg = values[:, s : e + 1]
    mu = seg.mean(axis=1, keepdims=True)
    return float(((seg - mu) ** 2).sum())


def _prefix_cost_matrix(values):
    """All-pairs single-segment SSE from prefix sums of y and y^2 only.

    Shares no code with the incremental builder; entry (s, e) is the cost of
    0-based points s..e inclusive.
    """
    n, m = values.shape
    z = np.zeros((n, 1))
    p1 = np.concatenate([z, np.cumsum(values, axis=1)], axis=1)
    p2 = np.concatenate([z, np.cumsum(values * values, axis=1)], axis=1)
    lens = (np.arange(m + 1)[None, :] - np.arange(m + 1)[:, None]).astype(float)
    sums = p1[:, None, :] - p1[:, :, None]
    sqs = p2[:, None, :] - p2[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        per_fn = sqs - sums * sums / lens[None, :, :]
    per_fn = np.where(lens[None, :, :] > 0, per_fn, 0.0)
    return per_fn.sum(axis=0)[:m, 1:]


@check("acceptance 2 (cost recursion matches direct and prefix-sum oracles)")
def test_cost_tables_match_independent_oracles():
    rng = np.random.default_rng(424242)
    for ds in medium_suite():
        C = build_sse_table(ds).values
        m = ds.m
        upper = np.triu(np.ones((m, m), dtype=bool))
        oracle = _prefix_cost_matrix(ds.values)
        np.testing.assert_allclose(C[upper], oracle[upper], rtol=1e-8, atol=1e-10)
        for s in range(m):
            for e in range(s, m):
                want = _direct_cost(ds.values, s, e)
                assert abs(C[s, e] - want) <= 1e-8 * abs(want) + 1e-12
        # the per-pair prefix oracle must agree too (sampled: it is O(n m) each)
        for _ in range(10):
            j = int(rng.integers(1, m + 1))
            l = int(rng.integers(j, m + 1))
            want = prefix_oracle_cost(ds, j, l)
            assert abs(C[j - 1, l - 1] - want) <= 1e-8 * abs(want) + 1e-12


@check("acceptance 3 (leave-one-out inflation factor law)")
def test_loo_factor_law():
    for ds in medium_suite():
        sse = build_sse_table(ds)
        S = sse.values
        L = loo_table(sse).values
        m = ds.m
        idx = np.arange(m)
        lens = (idx[None, :] - idx[:, None] + 1).astype(float)
        mask = (lens >= 2) & (S > 0) & np.isfinite(S)
        factor = (lens[mask] / (lens[mask] - 1.0)) ** 2
        # the table entry is factor * sse to the bit ...
        assert np.array_equal(L[mask], factor * S[mask])
        # ... so the ratio equals the factor up to one rounding of the division
        np.testing.assert_allclose(L[mask] / S[mask], factor, rtol=1e-14, atol=0.0)
        assert mask.any()


@check("acceptance 4 (uniform and greedy never beat the optimum)")
def test_baseline_dominance():
    for ds, sse, _, _ in small_suite_tables():
        k_top = min(6, ds.m)
        for res in solve_all(sse, k_top):
            u_cost = partition_cost(sse, uniform_partition(ds.m, res.k))
            _, g_cost = greedy_agglomerative(sse, res.k)
            assert u_cost >= res.cost - 1e-9
            assert g_cost >= res.cost - 1e-9
    strict = 0
    rng = np.random.default_rng(929)
    for _ in range(100):
        ds = new_dataset(np.arange(8.0), rng.uniform(-1.0, 1.0, size=(1, 8)))
        sse = build_sse_table(ds)
        for k in range(2, 8):
            _, g_cost = greedy_agglomerative(sse, k)
            _, best, _ = solve(sse, k)
            if g_cost > best + 1e-9:
                strict += 1
                break
    assert strict >= 1


@check("acceptance 5 (full leave-one-out bases avoid single-point segments)")
def test_full_loo_segments_have_at_least_two_points():
    finite = 0
    for ds, _, loo, _ in small_suite_tables():
        for res in solve_all(loo, ds.m):
            if res.segmentation is not None:
                assert min(res.segmentation.lengths) >= 2
                finite += 1
    assert finite > 0


@check("acceptance 6 (selected bases beat the fixed basis on clean error)")
def test_selected_bases_beat_fixed_on_clean_error(tmp_path):
    start = time.perf_counter()
    beats_fixed = 0
    beats_standard = 0
    for seed in range(20):
        out = tmp_path / f"run{seed}.json"
        code = main(
            ["experiment", "--synth", "default", "--sigma", "0.04",
             "--seed", str(seed), "--max-segments", "64",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        errors = {r["basis"]: r["clean_error"] for r in doc["records"]}
        beats_fixed += errors["full-loo"] < errors["fixed"]
        beats_standard += errors["full-loo"] < errors["standard-then-loo"]
    assert beats_fixed >= 16
    assert beats_standard >= 12
    assert time.perf_counter() - start < 300.0


@check("acceptance 7 (optimal cost non-increasing in k, zero at full split)")
def test_costs_non_increasing_and_zero_at_full_split():
    for ds, sse, _, _ in small_suite_tables():
        costs = [res.cost for res in solve_all(sse, ds.m)]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-12
        assert costs[-1] == 0.0


def _bench_medians(argv, path):
    assert main([*argv, "--output", str(path)]) == 0
    rows = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["repeat"] == "median":
                key = (int(row["m"]), int(row["n"]))
                rows[key] = (float(row["build_ms"]), float(row["dp_ms"]))
    return rows


@check("acceptance 8 (quadratic grid scaling, linear function-count scaling)")
def test_runtime_scaling(tmp_path):
    # the n=32 and n=64 samples alternate in this one process, and bench
    # takes its repeats round-robin over the m list, so the host's speed
    # drifting over seconds lands on both sides of each ratio alike
    samples = defaultdict(list)
    for _ in range(15):
        for argv in (["--m-list", "256,512", "--n", "32"],
                     ["--m-list", "256", "--n", "64"]):
            rows = _bench_medians(
                ["bench", *argv, "--k", "16", "--repeats", "1"],
                tmp_path / "bench.csv",
            )
            for key, times in rows.items():
                samples[key].append(times)
    medians = {key: [statistics.median(col) for col in zip(*times)]
               for key, times in samples.items()}
    dp_ratio = medians[(512, 32)][1] / medians[(256, 32)][1]
    build_ratio = medians[(256, 64)][0] / medians[(256, 32)][0]
    assert 2.5 <= dp_ratio <= 6.0
    assert 1.6 <= build_ratio <= 2.6


@check("acceptance 9 (byte-identical results across repeat runs)")
def test_every_command_is_reproducible(tmp_path):
    cfg = tmp_path / "inst.cfg"
    cfg.write_text("n = 4\nm = 32\n")
    commands = [
        ["fit", "--synth", str(cfg), "--seed", "5", "--segments", "6"],
        ["fit", "--synth", str(cfg), "--seed", "5", "--segments", "6",
         "--cost", "loo"],
        ["fit", "--synth", str(cfg), "--seed", "5", "--segments", "6",
         "--cost", "linear", "--emit-coefficients"],
        ["select", "--synth", str(cfg), "--seed", "5",
         "--strategy", "standard"],
        ["select", "--synth", str(cfg), "--seed", "5",
         "--strategy", "full-loo"],
        ["experiment", "--synth", str(cfg), "--sigma", "0.03",
         "--seed", "11", "--max-segments", "8"],
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"{i}a.json"
        second = tmp_path / f"{i}b.json"
        assert main([*argv, "--output", str(first)]) == 0
        assert main([*argv, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    # bench rows carry wall-clock timings; the structural columns must agree
    bench = ["bench", "--m-list", "16,32", "--n", "2", "--k", "4",
             "--repeats", "2"]
    structures = []
    for name in ("bench_a.csv", "bench_b.csv"):
        path = tmp_path / name
        assert main([*bench, "--output", str(path)]) == 0
        with open(path) as fh:
            structures.append([row[:4] for row in csv.reader(fh)])
    assert structures[0] == structures[1]
