"""Order-constrained optimal partitioning by dynamic programming.

``F(p, j)`` is the best cost of splitting indices ``{j..m}`` into p contiguous
segments:

    F(1, j) = Q(j..m)
    F(p, j) = min_{j <= l <= m-p+1}  Q(j..l) + F(p-1, l+1)

The minimizing split is recorded for every (p, j) so any segment count up to
the solved maximum can be reconstructed by backtracking from j = 1.  Ties are
broken toward the smallest split, which makes results deterministic and equal
to lexicographic-first among optimal partitions.

+inf is an admissible cost (leave-one-out costs assign it to singletons); a
partition is feasible iff its total is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isqrt

import numpy as np

from .core import FunctionalDataset, Segmentation, _readonly
from .costs import CostTable, _row_slabs

# Byte budget of the fill's contiguous row slab (and of its candidate
# buffer): the slab is reused for every segment count while it stays in cache.
_SLAB_BYTES = 512 * 1024


class InfeasiblePartitionError(ValueError):
    """Raised when every partition with the requested segment count has
    infinite cost."""


@dataclass(frozen=True)
class DPTable:
    """Filled dynamic-programming arrays.

    ``costs[p-1, j-1]`` is F(p, j); ``splits[p-1, j-1]`` is the 1-based end of
    the first segment in an optimal p-partition of {j..m} (0 where no
    p-partition of {j..m} exists).
    """

    k_max: int
    m: int
    costs: np.ndarray  # (k_max, m) float
    splits: np.ndarray  # (k_max, m) int


@dataclass(frozen=True)
class SolveResult:
    """One entry of an all-k sweep; ``segmentation`` is None when no
    finite-cost partition with this k exists."""

    k: int
    segmentation: Segmentation | None
    cost: float

    @property
    def feasible(self) -> bool:
        return isfinite(self.cost)


def _slabs(m: int) -> list[tuple[int, int]]:
    """Row slabs ``(s, e)`` of the m x m table, bottom first, each holding at
    most ``_SLAB_BYTES`` of the columns ``s..m-1`` it scans."""
    cells = _SLAB_BYTES // 8
    slabs = []
    e = m
    while e > 0:
        d = m - e  # rows b solve b * (d + b) <= cells: slab width is d + b
        b = max(1, (isqrt(d * d + 4 * cells) - d) // 2)
        slabs.append((max(0, e - b), e))
        e -= b
    return slabs


def fill_dp(table: CostTable | FunctionalDataset, k_max: int,
            loo: bool = False) -> DPTable:
    """Fill F and the split records for all segment counts up to ``k_max``.

    The table is swept in row slabs from the bottom up, and each slab runs
    every p = 2..k_max before the next one starts.  Row j's candidates read
    F(p-1, l+1) only for l >= j: rows below the slab, done for every p, or
    the slab itself at p-1.  So the slab's rows stay in cache for all k_max
    passes instead of the whole table streaming k_max times.  The 512 KiB
    budget was kept after a sweep of 256 KiB to 1 MiB on a host with 2 MiB
    of L2 a core (``BENCH_10.json``).

    ``table`` is a cost table or, for SSE costs, the dataset itself.  Each
    slab is written once into a contiguous buffer of its rows over the
    columns s..m-1 by :func:`costs._row_slabs`: a copy of the table's rows,
    or the dataset's SSE rows built by the table build's own row path, so
    the fill of a dataset equals the fill of ``build_sse_table(dataset)`` bit
    for bit and never holds an m x m table.  With ``loo`` the SSE rows are
    scaled by :func:`costs._loo_rows`, so the fill minimizes leave-one-out
    costs without a leave-one-out table, from an SSE table or the dataset.
    Building the rows in the fill is faster than building the table first
    at n=4, m=2048, k=64: it spares the first touch of a 32 MiB table and a
    second pass over each of its rows (``BENCH_12.json``).

    Every pass spans the slab's full width.  F carries one trailing +inf
    column, F(p, m+1) (no points left), so columns past the last feasible
    split add +inf and the leftmost argmin never picks them.  A pass copies
    F(p-1, s+1..m+1) into each row of a candidate buffer and adds the slab's
    leading rows to it as one flat add of two contiguous arrays: with numpy
    2.4 on x86-64 an add with a strided or broadcast operand costs nearly
    twice as much a cell, and a fill at n=4, m=2048, k=64 takes about a
    quarter less time than with a strided copy and a broadcast add over the
    feasible columns alone (``BENCH_10.json``).

    Raises ValueError when a NaN in the costs reaches F (for example SSE
    costs whose sums overflowed): such costs have no meaningful optimum.
    """
    m = table.m
    if not (1 <= k_max <= m):
        raise ValueError(f"k out of range: {k_max} not in 1..{m}")
    write_slab = _row_slabs(table, loo)  # +inf left of the diagonal
    F = np.full((k_max, m + 1), np.inf, dtype=np.float64)
    L = np.zeros((k_max, m), dtype=np.int64)
    L[0, :] = m
    slabs = _slabs(m)
    size = max((e - s) * (m - s) for s, e in slabs)
    slab_buf, buf = np.empty(size), np.empty(size)
    arg = np.empty(m, dtype=np.intp)
    for s, e in slabs:
        w = m - s  # rows s..e-1 over the columns s..m-1
        slab = slab_buf[:(e - s) * w].reshape(e - s, w)
        write_slab(s, e, slab)
        F[0, s:e] = slab[:, -1]
        starts = np.arange(0, (e - s) * w, w)  # flat offset of each row
        for p in range(2, min(k_max, m - s) + 1):
            # candidate[j, l] = Q(j..l) + F(p-1, l+1); rows j > m-p+1 admit
            # no p-partition
            r = min(e, m - p + 1) - s
            block = buf[:r * w].reshape(r, w)
            np.copyto(block, F[p - 2, s + 1:])
            buf[:r * w] += slab_buf[:r * w]
            a = block.argmin(axis=1, out=arg[:r])  # first minimum: leftmost
            np.add(a, s + 1, out=L[p - 1, s:s + r])
            a += starts[:r]
            F[p - 1, s:s + r] = buf[a]
    F = F[:, :m]
    if np.isnan(F).any():
        raise ValueError("costs contain NaN (input values too large "
                         "for double-precision sums?)")
    # all-inf rows: argmin is meaningless, pin split to the leftmost slot;
    # rows with no p-partition keep split 0
    np.copyto(L[1:], np.arange(1, m + 1), where=~np.isfinite(F[1:]) & (L[1:] > 0))
    return DPTable(k_max=k_max, m=m, costs=_readonly(F), splits=_readonly(L))


def backtrack(dp: DPTable, k: int) -> Segmentation:
    """Reconstruct the optimal k-segmentation from the recorded splits.

    The first segment is {1..split(k, 1)}; the walk then restarts at the next
    index with one segment fewer.  Splits are read as Python ints with
    ``ndarray.item`` and each end is checked as it is read, so no numpy
    scalar and no second validating pass is made.  A walk of every count of
    a sweep at once, one numpy gather per step, was no faster for 64 counts
    and 20 times slower for one.
    """
    if not (1 <= k <= dp.k_max):
        raise ValueError(f"k={k} exceeds solved k_max={dp.k_max}")
    m = dp.m
    split = dp.splits.item
    ends, j = [], 0  # j: 0-based start of the next segment
    for p in range(k, 0, -1):
        l = split(p - 1, j)
        if not j < l <= m - p + 1:
            what = "recorded" if l == 0 else f"in range (split {l})"
            raise ValueError(f"no {p}-partition {what} at index {j + 1}")
        ends.append(l)
        j = l
    if j != m:
        raise ValueError(f"last end {j} does not equal m={m}")
    return Segmentation(ends=tuple(ends), m=m)


def solve(table: CostTable | FunctionalDataset, k: int,
          loo: bool = False) -> tuple[Segmentation, float, DPTable]:
    """Optimal partition of the table's index range into exactly k segments,
    under the leave-one-out transform of the SSE costs with ``loo``; the
    table may be the dataset itself for SSE costs (see :func:`fill_dp`).

    Raises :class:`InfeasiblePartitionError` when every k-partition has
    infinite cost (leave-one-out costs with k > m/2).
    """
    dp = fill_dp(table, k, loo=loo)
    total = float(dp.costs[k - 1, 0])
    if not isfinite(total):
        raise InfeasiblePartitionError(
            f"no finite-cost partition into {k} segments"
        )
    return backtrack(dp, k), total, dp


def solve_all(table: CostTable | FunctionalDataset, k_max: int,
              loo: bool = False) -> list[SolveResult]:
    """Optima for every segment count 1..k_max from a single DP fill of a
    table or a dataset (see :func:`fill_dp`), under the leave-one-out
    transform of the SSE costs with ``loo``.

    Infinite-cost counts are flagged (segmentation None), not omitted, and
    never backtracked.
    """
    dp = fill_dp(table, k_max, loo=loo)
    out = []
    for k, total in enumerate(dp.costs[:, 0].tolist(), start=1):
        if isfinite(total):
            out.append(SolveResult(k, backtrack(dp, k), total))
        else:
            out.append(SolveResult(k, None, np.inf))
    return out
