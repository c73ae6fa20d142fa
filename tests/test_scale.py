"""Power-of-two scale: multiplying every value by 2^e multiplies every cost by
exactly 4^e, so no optimum and no selection moves.

The property holds while no sum overflows and no square goes subnormal,
which values of magnitude 1e-3..1e3 (or 0) guarantee for |e| <= 30.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segbasis import (
    CostKind,
    InfeasiblePartitionError,
    SelectionStrategy,
    build_linear_table,
    build_sse_table,
    new_dataset,
    select_k,
    solve,
)

_MAGNITUDE = st.floats(1e-3, 1e3)
# a few exact values make tied partitions, whose leftmost tie-break must
# survive the scale too
_VALUE = st.one_of(st.sampled_from([0.0, 0.25, 1.0, -3.0]), _MAGNITUDE,
                   _MAGNITUDE.map(lambda x: -x))


@st.composite
def _scaled_pair(draw):
    """A dataset, the same dataset with its values times 2^e, and 4^e."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    values = np.array(draw(st.lists(_VALUE, min_size=n * m, max_size=n * m)))
    values = values.reshape(n, m)
    e = draw(st.integers(-30, 30))
    grid = np.arange(m, dtype=float)
    return new_dataset(grid, values), new_dataset(grid, values * 2.0**e), 4.0**e


@settings(max_examples=150, deadline=None)
@given(_scaled_pair())
def test_power_of_two_scale_moves_no_optimum(pair):
    ds, scaled, factor = pair
    m = ds.m
    tables = {}
    for build in (build_sse_table, build_linear_table):
        base, big = build(ds), build(scaled)
        # every finite entry times 4^e exactly, every +inf kept
        assert np.array_equal(big.values, base.values * factor), build.__name__
        tables[build] = base, big
    (sse, sse_scaled), (lin, lin_scaled) = tables.values()
    for base, big, cost in ((sse, sse_scaled, CostKind.SSE),
                            (sse, sse_scaled, CostKind.LOO),
                            (lin, lin_scaled, CostKind.LINEAR)):
        for k in range(1, m + 1):
            try:
                seg, total, _ = solve(base, k, cost)
            except InfeasiblePartitionError:
                with pytest.raises(InfeasiblePartitionError):
                    solve(big, k, cost)
                continue
            seg_scaled, total_scaled, _ = solve(big, k, cost)
            assert seg_scaled == seg, (cost, k)
            assert total_scaled == total * factor, (base.kind, loo, k)
    for strategy in SelectionStrategy:
        report, report_scaled = select_k(ds, strategy, m), select_k(scaled, strategy, m)
        assert report_scaled.selected_k == report.selected_k, strategy
        assert ([r.segmentation for r in report_scaled.records]
                == [r.segmentation for r in report.records]), strategy
