"""Non-optimal reference partitions: equal-length intervals and greedy
bottom-up merging of adjacent segments."""

from __future__ import annotations

from .core import CostKind, Segmentation, segmentation_from_ends
from .costs import CostTable, partition_totals


def uniform_partition(m: int, k: int) -> Segmentation:
    """Split {1..m} into k near-equal intervals.

    Lengths differ by at most one; the first m mod k segments carry the extra
    point.
    """
    if not (1 <= k <= m):
        raise ValueError(f"k out of range: {k} not in 1..{m}")
    base, extra = divmod(m, k)
    ends = []
    pos = 0
    for j in range(k):
        pos += base + (1 if j < extra else 0)
        ends.append(pos)
    return segmentation_from_ends(ends, m)


def greedy_agglomerative(table: CostTable, k: int) -> tuple[Segmentation, float]:
    """Merge adjacent segments greedily until k remain.

    Starts from all singletons and repeatedly fuses the adjacent pair with
    the smallest cost increase Q(I u J) - Q(I) - Q(J), leftmost pair on ties.
    Suboptimal in general; serves as the comparison baseline for the exact
    solver.
    """
    if table.kind is not CostKind.SSE:
        raise ValueError(f"greedy merging expects an SSE table, got {table.kind.value}")
    m = table.m
    if not (1 <= k <= m):
        raise ValueError(f"k out of range: {k} not in 1..{m}")
    # segments as parallel start/end lists, 1-based inclusive
    starts = list(range(1, m + 1))
    ends = list(range(1, m + 1))
    C = table.values
    while len(ends) > k:
        best_delta = float("inf")
        best_i = 0
        for i in range(len(ends) - 1):
            merged = C[starts[i] - 1, ends[i + 1] - 1]
            delta = merged - C[starts[i] - 1, ends[i] - 1] - C[starts[i + 1] - 1, ends[i + 1] - 1]
            if delta < best_delta:
                best_delta = delta
                best_i = i
        ends[best_i] = ends[best_i + 1]
        del starts[best_i + 1]
        del ends[best_i + 1]
    seg = segmentation_from_ends(ends, m)
    return seg, partition_totals(table, [seg])[0][0]
