"""Segment-count selection: both strategies, their reports, and invariants."""

import numpy as np
import pytest
from oracles import loo_table, partition_cost

from segbasis import (
    SelectionStrategy,
    build_sse_table,
    default_k_max,
    new_dataset,
    select_k,
    solve_all,
)

STANDARD = SelectionStrategy.STANDARD_THEN_LOO
FULL_LOO = SelectionStrategy.FULL_LOO


def _dataset(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return new_dataset(np.arange(rows.shape[1], dtype=float), rows)


STEP = _dataset([[0.0, 0.0, 1.0, 1.0]])
SAW = _dataset([[0.0, 1.0, 0.0, 1.0]])
CONST = _dataset([[2.5, 2.5, 2.5, 2.5]])


def test_standard_on_step():
    report = select_k(build_sse_table(STEP), STANDARD, 2)
    assert report.strategy is SelectionStrategy.STANDARD_THEN_LOO
    assert [r.k for r in report.records] == [1, 2]
    assert abs(report.records[0].loo_total - 16.0 / 9.0) < 1e-12
    assert abs(report.records[1].loo_total) < 1e-12
    assert report.selected_k == 2
    assert not report.degenerate


def test_standard_step_larger_k_max_hits_singletons():
    report = select_k(build_sse_table(STEP), STANDARD, 4)
    assert report.selected_k == 2
    assert np.isinf(report.records[2].loo_total)
    assert np.isinf(report.records[3].loo_total)


def test_standard_constant_selects_one():
    assert select_k(build_sse_table(CONST), STANDARD, 4).selected_k == 1


def test_full_loo_on_step():
    report = select_k(build_sse_table(STEP), FULL_LOO, 3)
    assert report.strategy is SelectionStrategy.FULL_LOO
    assert report.selected_k == 2
    assert abs(report.records[1].loo_total) < 1e-12
    assert report.records[2].segmentation is None
    assert np.isinf(report.records[2].loo_total)


def test_full_loo_on_saw_prefers_one_segment():
    report = select_k(build_sse_table(SAW), FULL_LOO, 2)
    assert abs(report.records[0].loo_total - 16.0 / 9.0) < 1e-12
    assert abs(report.records[1].loo_total - 4.0) < 1e-12
    assert report.records[1].segmentation.ends == (2, 4)
    assert report.selected_k == 1


def test_full_loo_constant_selects_one():
    assert select_k(build_sse_table(CONST), FULL_LOO, 2).selected_k == 1


def test_selected_property():
    report = select_k(build_sse_table(STEP), FULL_LOO, 3)
    assert report.selected is report.records[report.selected_k - 1]


def test_degenerate_single_point():
    ds = new_dataset([0.0], [[5.0]])
    report = select_k(build_sse_table(ds), FULL_LOO, 1)
    assert report.degenerate and report.selected_k == 1


def test_default_k_max():
    assert default_k_max(256) == 64
    assert default_k_max(200) == 64
    assert default_k_max(40) == 20
    assert default_k_max(3) == 1
    assert default_k_max(1) == 1


def test_k_max_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        select_k(build_sse_table(STEP), STANDARD, 5)
    with pytest.raises(ValueError, match="out of range"):
        select_k(build_sse_table(STEP), FULL_LOO, 0)


def test_records_cover_all_k_without_gaps():
    rng = np.random.default_rng(71)
    ds = _dataset(rng.normal(size=(3, 12)))
    for report in (select_k(build_sse_table(ds), STANDARD, 6),
                   select_k(build_sse_table(ds), FULL_LOO, 6)):
        assert [r.k for r in report.records] == list(range(1, 7))


def test_full_loo_never_selects_singletons():
    rng = np.random.default_rng(73)
    for _ in range(15):
        n, m = int(rng.integers(1, 4)), int(rng.integers(4, 14))
        ds = _dataset(rng.uniform(-1, 1, size=(n, m)))
        for rec in select_k(build_sse_table(ds), FULL_LOO, m // 2).records:
            if rec.segmentation is not None:
                assert min(rec.segmentation.lengths) >= 2


def test_full_loo_estimate_never_above_standard():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n, m = int(rng.integers(1, 4)), int(rng.integers(3, 14))
        ds = _dataset(rng.uniform(-1, 1, size=(n, m)))
        k_max = max(1, m // 2)
        std = select_k(build_sse_table(ds), STANDARD, k_max)
        floo = select_k(build_sse_table(ds), FULL_LOO, k_max)
        for a, b in zip(floo.records, std.records):
            # the full-l.o.o. DP minimizes this very score, so it cannot lose
            assert a.loo_total <= b.loo_total + 1e-9 or (
                np.isinf(a.loo_total) and np.isinf(b.loo_total)
            )


def test_sse_totals_dominated_by_sse_optimum():
    rng = np.random.default_rng(83)
    ds = _dataset(rng.uniform(-1, 1, size=(2, 10)))
    sse_opt = [r.cost for r in solve_all(build_sse_table(ds), 5)]
    std = select_k(build_sse_table(ds), STANDARD, 5)
    floo = select_k(build_sse_table(ds), FULL_LOO, 5)
    for rec, best in zip(std.records, sse_opt):
        assert rec.sse_total == best  # variant 1 is the SSE optimum
    for rec, best in zip(floo.records, sse_opt):
        assert rec.sse_total >= best - 1e-12


def test_reports_are_deterministic():
    rng = np.random.default_rng(89)
    ds = _dataset(rng.normal(size=(2, 10)))
    assert (select_k(build_sse_table(ds), STANDARD, 5)
            == select_k(build_sse_table(ds), STANDARD, 5))
    assert (select_k(build_sse_table(ds), FULL_LOO, 5)
            == select_k(build_sse_table(ds), FULL_LOO, 5))


def test_standard_scores_match_manual_factor_application():
    rng = np.random.default_rng(97)
    ds = _dataset(rng.uniform(-1, 1, size=(2, 9)))
    sse = build_sse_table(ds)
    loo = loo_table(sse)
    report = select_k(build_sse_table(ds), STANDARD, 4)
    for rec in report.records:
        assert rec.loo_total == partition_cost(loo, rec.segmentation)


def test_select_k_shares_prebuilt_tables():
    rng = np.random.default_rng(101)
    ds = _dataset(rng.uniform(-1, 1, size=(3, 11)))
    sse = build_sse_table(ds)
    std = select_k(sse, SelectionStrategy.STANDARD_THEN_LOO, 5)
    floo = select_k(sse, SelectionStrategy.FULL_LOO, 5)
    assert std == select_k(build_sse_table(ds), STANDARD, 5)
    assert floo == select_k(build_sse_table(ds), FULL_LOO, 5)
    assert floo.strategy is SelectionStrategy.FULL_LOO


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_select_k_of_dataset_equals_select_k_of_its_table(offset):
    # a report from the dataset's SSE rows, built slab by slab, equals the
    # report from its prebuilt SSE table, records and totals bit for bit
    rng = np.random.default_rng(103)
    steps = np.repeat(rng.normal(size=(4, 76)), 4, axis=1)[:, :300]
    for rows in (rng.normal(size=(4, 300)), steps + rng.normal(size=(4, 300)) / 8):
        ds = _dataset(rows + offset)
        sse = build_sse_table(ds)
        for strategy in (STANDARD, FULL_LOO):
            report = select_k(ds, strategy, 40)
            assert report == select_k(sse, strategy, 40)
            assert not report.degenerate
