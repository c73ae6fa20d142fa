"""Equal-length and greedy-merge baselines, and their dominance by the solver."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import segment_cost

from segbasis import (
    build_sse_table,
    greedy_agglomerative,
    loo_table,
    new_dataset,
    solve,
    uniform_partition,
)


def _dataset(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return new_dataset(np.arange(rows.shape[1], dtype=float), rows)


def test_uniform_examples():
    assert uniform_partition(10, 3).ends == (4, 7, 10)
    assert uniform_partition(10, 3).lengths == (4, 3, 3)
    assert set(uniform_partition(256, 16).lengths) == {16}
    assert uniform_partition(5, 5).lengths == (1, 1, 1, 1, 1)
    assert uniform_partition(7, 1).ends == (7,)


@pytest.mark.parametrize("m,k", [(5, 0), (5, 6), (3, -1)])
def test_uniform_rejects_bad_k(m, k):
    with pytest.raises(ValueError, match="out of range"):
        uniform_partition(m, k)


@given(st.data())
def test_uniform_lengths_property(data):
    m = data.draw(st.integers(1, 200))
    k = data.draw(st.integers(1, m))
    seg = uniform_partition(m, k)
    lengths = seg.lengths
    assert sum(lengths) == m and len(lengths) == k
    assert max(lengths) - min(lengths) <= 1
    extra = m % k
    assert all(ln == m // k + 1 for ln in lengths[:extra])
    assert all(ln == m // k for ln in lengths[extra:])


def test_greedy_step_example():
    table = build_sse_table(_dataset([[0.0, 0.0, 1.0, 1.0]]))
    seg, cost = greedy_agglomerative(table, 2)
    assert seg.ends == (2, 4)
    assert abs(cost) < 1e-12


def test_greedy_identity_and_single_segment():
    ds = _dataset([[0.0, 2.0, 1.0, 5.0, 3.0]])
    table = build_sse_table(ds)
    seg, cost = greedy_agglomerative(table, 5)
    assert seg.ends == (1, 2, 3, 4, 5) and cost == 0.0
    seg, cost = greedy_agglomerative(table, 1)
    assert seg.ends == (5,)
    assert cost == segment_cost(table, 1, 5)


def test_greedy_rejects_non_sse_tables():
    loo = loo_table(build_sse_table(_dataset([[0.0, 1.0, 2.0]])))
    with pytest.raises(ValueError, match="expects an SSE table"):
        greedy_agglomerative(loo, 1)


def test_greedy_rejects_bad_k():
    table = build_sse_table(_dataset([[0.0, 1.0, 2.0]]))
    with pytest.raises(ValueError, match="out of range"):
        greedy_agglomerative(table, 0)


def test_baselines_never_beat_the_solver():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 14))
        table = build_sse_table(_dataset(rng.uniform(-1, 1, size=(n, m))))
        for k in range(1, m + 1):
            _, optimal, _ = solve(table, k)
            from segbasis import partition_cost

            uniform_cost = partition_cost(table, uniform_partition(m, k))
            _, greedy_cost = greedy_agglomerative(table, k)
            assert uniform_cost >= optimal - 1e-12
            assert greedy_cost >= optimal - 1e-12


def test_greedy_is_sometimes_strictly_worse():
    rng = np.random.default_rng(61)
    strict = 0
    for _ in range(100):
        table = build_sse_table(_dataset(rng.uniform(-1, 1, size=(1, 8))))
        for k in range(2, 8):
            _, optimal, _ = solve(table, k)
            _, greedy_cost = greedy_agglomerative(table, k)
            if greedy_cost > optimal + 1e-9:
                strict += 1
                break
    assert strict >= 1
