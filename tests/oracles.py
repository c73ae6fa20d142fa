"""Test oracles: slow, direct definitions that the library is checked against.

``brute_force`` enumerates every partition, ``partition_cost`` prices one
with a scalar right-to-left loop, ``prefix_oracle_cost`` prices one SSE entry
from plain uncentred prefix sums, ``segment_cost`` reads one table entry with
a range check, ``loo_table`` materialises the m x m leave-one-out table that
the library only ever reads a slab or an entry of, ``SplitMix64`` is the
scalar splitmix64 generator whose bits the bulk streams of
:mod:`segbasis.synth` reproduce, and ``per_row_read_csv`` parses a CSV a row
at a time with Python's ``float``.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from math import comb

import numpy as np

from segbasis import (
    CostKind,
    CostTable,
    FunctionalDataset,
    Segmentation,
    new_dataset,
)
from segbasis.core import _readonly
from segbasis.costs import _loo_rows

_MASK64 = (1 << 64) - 1


def segment_cost(table: CostTable, j: int, l: int) -> float:
    """Look up Q(j..l).  Pure O(1); raises for indices outside 1 <= j <= l <= m."""
    if not (1 <= j <= l <= table.m):
        raise ValueError(f"segment ({j},{l}) out of range for m={table.m}")
    return float(table.values[j - 1, l - 1])


def partition_cost(table: CostTable, seg: Segmentation) -> float:
    """Total cost of a segmentation, accumulated from the last segment to the
    first.

    The right-to-left association mirrors how the dynamic program sums costs,
    so a partition's total is bitwise comparable with solver output and with
    the library's ``partition_totals``.  It is a scalar loop: for one
    segmentation numpy's fixed cost is about 2.5 times the loop's, and
    exhaustive search prices every partition through this function.
    """
    if seg.m != table.m:
        raise ValueError(f"segmentation covers {seg.m} points, table {table.m}")
    entry = table.values.item
    total = 0.0
    for s, e in reversed(seg.intervals()):
        total = entry(s - 1, e - 1) + total
    return total


def loo_table(sse: CostTable) -> CostTable:
    """Leave-one-out table of an SSE table.

    Q_loo(j..l) = (len/(len-1))^2 Q_sse(j..l) with len = l-j+1; singletons
    and the lower triangle get +inf.  The whole table is one block of the
    library's ``_loo_rows``, which scales the leave-one-out dynamic
    program's row slabs, so every entry has the bits that fill reads.
    """
    if sse.kind is not CostKind.SSE:
        raise ValueError(f"expected an SSE table, got {sse.kind.value}")
    out = _loo_rows(sse.values, np.empty((sse.m, sse.m)))
    return CostTable(m=sse.m, kind=CostKind.LOO, values=_readonly(out))


def prefix_oracle_cost(dataset: FunctionalDataset, j: int, l: int) -> float:
    """SSE of interval j..l from plain prefix sums, one function at a time.

    Uses sum(y^2) - sum(y)^2/len per function on the raw (uncentred) values.
    This is the builds' formula but none of their code; the two-pass
    deviation-from-mean definition in the tests is the independent oracle.
    """
    if not (1 <= j <= l <= dataset.m):
        raise ValueError(f"segment ({j},{l}) out of range for m={dataset.m}")
    total = 0.0
    length = l - j + 1
    for i in range(dataset.n):
        row = dataset.values[i]
        py = np.concatenate(([0.0], np.cumsum(row)))
        pyy = np.concatenate(([0.0], np.cumsum(row * row)))
        sy = py[l] - py[j - 1]
        syy = pyy[l] - pyy[j - 1]
        total += max(syy - sy * sy / length, 0.0)
    return total


def brute_force(table: CostTable, k: int) -> tuple[Segmentation | None, float]:
    """Enumerate every contiguous k-partition and return the cheapest.

    Testing oracle with the same tie-break as :func:`solve`: partitions are
    visited in lexicographic end order and replaced only on strict
    improvement.  Guarded to at most 10^6 partitions.
    """
    m = table.m
    if not (1 <= k <= m):
        raise ValueError(f"k out of range: {k} not in 1..{m}")
    n_parts = comb(m - 1, k - 1)
    if n_parts > 10**6:
        raise ValueError(f"{n_parts} partitions exceed the enumeration guard")
    best_cost = np.inf
    best: Segmentation | None = None
    for cuts in combinations(range(1, m), k - 1):
        seg = Segmentation(ends=cuts + (m,), m=m)
        total = partition_cost(table, seg)
        if total < best_cost:
            best_cost = total
            best = seg
    return best, float(best_cost)


class SplitMix64:
    """The splitmix64 generator: 64-bit state, one mix per output."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (2.0**-53)

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller.

        Uses log1p(-u1) so the argument to log never hits zero.
        """
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log1p(-u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)


def per_row_read_csv(path: str, has_grid_row: bool = False) -> FunctionalDataset:
    """Load a rectangular numeric CSV as a dataset.

    Without a grid row the grid defaults to 0, 1, ..., m-1.  Row numbers in
    diagnostics count the non-blank rows; column numbers are 1-based.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("empty CSV: no rows")
    width = len(rows[0])
    parsed = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"ragged row {lineno}")
        try:
            # a row array at a time: a list of lists of Python floats would
            # hold 4x the bytes of the table until the stack
            parsed.append(np.array(list(map(float, row))))
        except ValueError:
            # walk the row again only to name the first bad cell
            for col, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {cell.strip()!r} at row {lineno}, "
                        f"column {col}"
                    ) from None
            raise
    if has_grid_row:
        if len(parsed) < 2:
            raise ValueError("no data rows after the grid row")
        grid, values = parsed[0], parsed[1:]
    else:
        grid, values = np.arange(width, dtype=np.float64), parsed
    return new_dataset(grid, np.stack(values))
