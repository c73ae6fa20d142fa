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
from math import inf, isfinite, isqrt, nextafter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import CostKind, FunctionalDataset, Segmentation, _readonly
from .costs import (_PINNED, CostTable, _data_prefix, _entries, _loo_scale,
                    _row_slabs, _sse_error_bound, _sse_row)

# Byte budget of the fill's contiguous row slab (and of its candidate
# buffer): the slab is reused for every segment count while it stays in cache.
_SLAB_BYTES = 512 * 1024

# The fewest functions at which a fill from a dataset screens its rows
# instead of building them, for every cost (see fill_dp); measured in
# BENCH_26.json and BENCH_28.json.
_SCREEN_N = 48


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
    candidates: int  # candidate sums Q(j..l) + F(p-1, l+1) evaluated
    slab_cells: int  # cost entries written into the fill's row slabs
    passes: int  # slab passes run: one a slab and segment count p >= 2
    priced: int  # exact entries priced outside the row build, each once


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
            cost: CostKind = CostKind.SSE) -> DPTable:
    """Fill F and the split records for all segment counts up to ``k_max``.

    The table is swept in row slabs from the bottom up, and each slab runs
    every p = 2..k_max before the next one starts.  Row j's candidates read
    F(p-1, l+1) only for l >= j: rows below the slab, done for every p, or
    the slab itself at p-1.  So the slab's rows stay in cache for all k_max
    passes instead of the whole table streaming k_max times.

    ``cost`` is what the fill minimizes, and ``table`` a cost table of it
    (an SSE table also serves leave-one-out costs) or the dataset itself.
    Each slab is written once into a contiguous buffer of its rows over the
    columns s..m-1 by :func:`costs._row_slabs`: a copy of the table's rows,
    or the dataset's SSE or linear rows built by the table build's own row
    path, so the fill of a dataset equals the fill of its table bit for bit
    and never holds an m x m table.  Leave-one-out rows are SSE rows scaled
    by :func:`costs._loo_rows`, so the fill minimizes leave-one-out costs
    without a leave-one-out table, from an SSE table or the dataset.
    Building the rows in the fill spares the first touch of an m x m table
    and a second pass over each of its rows.

    F carries one trailing +inf column, F(p, m+1) (no points left), so
    columns past the last feasible split add +inf and the leftmost argmin
    never picks them.  A pass copies F(p-1, l+1) over its columns into each
    row of a candidate buffer and adds the slab's leading part to it in
    place: a broadcast add costs more a cell, and a full-width pass adds two
    contiguous arrays, which numpy runs as one flat loop.

    A pass at p >= 3 need scan its rows only up to where no later column can
    beat their best, which is exact and keeps the full scan's bits.  The
    premise is that every cost is >= 0 (:class:`costs.CostTable` checks it,
    and built rows are clamped at 0), so F >= 0 too, and fl(a + x) >= a for
    x >= 0: no candidate is below its cost Q(j..l).  Each row's best is at
    most a real candidate of that row, the one at its split for p-1, summed
    with the same single addition as the scan's.  A slab with columns right
    of its b x b square makes ``colmin`` when it is written: ``colmin[c]``
    is the least slab entry from the c-th column right of the square on,
    read from the computed entries, so float rows need not grow with l.
    From the first column whose ``colmin`` exceeds the largest of the rows'
    bounds on, every candidate is above its row's best and cannot be the
    leftmost argmin, not even by a tie: the pass needs only the ``need``
    columns before it.  The square and p = 2 are always scanned whole, and
    so is a fill whose rows fit in one slab (m <= 256 at the default
    budget).  A slab stops bounding at its first bound that keeps every
    column.  Exactness does not need the stop: without it the n=32, m=512
    ``bench`` fill at k=16 evaluates 25% fewer candidates.  It stays because
    that fill is the m=512 side of the DP m-ratio in the runtime-scaling
    acceptance test, whose floor has tripped on unchanged code; with the
    stop the fill scans the whole of every pass, as the full scan does.

    A cut pass reads the slab's first ``held`` columns from one contiguous
    b x ``held`` copy in a third buffer, allocated with the other two and
    sized for the slabs with columns right of their square (a one-slab fill
    allocates none).  So it adds two contiguous arrays of one shape, which
    numpy runs as one flat loop; an add of ``slab[:r, :need]``, whose rows
    are w apart, costs two to three times as much a cell.  Until a slab's
    first cut its passes read the slab itself.  The copy is remade only
    when ``need`` rises above ``held`` or falls below 7/8 of it, so a slab
    whose bounds move a little is copied once, and otherwise the pass scans
    all ``held`` columns.  Scanning the extra columns is exact by the bound
    above: each of them has a candidate above its row's best, so it neither
    wins nor ties, and ``candidates`` stays at most the full scan's.  A
    pass's flat argmin offsets index its candidate block and the held
    columns alike, so one gather of the held columns gives each row's
    Q(j..split), and the next pass's bound adds F(p-1, split+1) to it.

    Work is split between a slab and its passes.  Once a slab the fill
    writes its rows, makes ``colmin`` and takes the views every pass reads:
    F from the slab's second column on (F(p-1, l+1) at l's offset from the
    slab's first column), the slab's own columns of F and its split rows.
    A pass remakes its candidate block, the rows of ``cols`` it reads and
    their flat offsets only when r or ``held`` changes; r falls, by one a
    pass, only in a slab with rows past m-p+1.  Otherwise a pass runs a
    fixed set of calls: the copy, the add, the argmin, the flat offsets,
    the gather of F(p, j) and, while the slab bounds, the bound's gather,
    add, max and search and the gather of Q(j..split).  The argmin writes
    each row's split straight into the split rows, as its offset from the
    slab's first column: the slab fills its split rows with -(s+1) first
    and adds s+1 once at its end, so rows with no p-partition end at 0, and
    the next pass's bound reads F(p-1, split+1) at that offset with no add.
    The gathers use ``take(out=..., mode="clip")``: their offsets are
    always in range, so clipping changes none, and in that mode numpy
    writes straight into ``out`` instead of through a buffer.  ``passes``
    counts the passes, the sum over slabs of min(k_max, m-s) - 1: 2,142 in
    a fill of m=2048 at k_max=64, whose 34 slabs run 63 each.

    A fill from a dataset also builds each slab above the bottom one only
    out to the first column no pass can use, as a b x c array, c <= w; the
    passes, ``colmin`` and ``held`` run on it unchanged.  The cut comes from
    row e, the first row below the slab, which is done for every p: its
    first segment ends at L = split(p, e), so Q(j..L) + F(p-1, L+1) is a
    p-partition of row j's points and best(p, j) is at most it.  With delta
    the written error bound of :func:`costs._sse_error_bound`, computed
    entries satisfy Q(j..L) <= Q(s..L) + 2 delta for every row j >= s, and
    a leave-one-out entry at L is scaled by at most row e-1's factor.  So
    ``top``, the largest over p of Q(s..L) + 2 delta (scaled for
    leave-one-out, rounded up) plus F(p-1, L+1), bounds every best of the
    slab.  Below it, row e's SSE entries bound every slab row's entries:
    Q(j..l) >= Q(e..l) - 2 delta for j < e, and a leave-one-out entry is
    never below its SSE entry.  So from the first column whose suffix
    minimum of row e's entries exceeds top + 2 delta, rounded up, every
    candidate is above its row's best and neither wins nor ties: the cut is
    exact as the passes' own is.  Rows s and e are priced whole, each once
    and within delta, by :func:`costs._sse_row` from the prefix sums the
    rows are built from; F(1, j) = Q(j..m), which a cut slab does not hold,
    is priced for every row before the first slab by
    :func:`costs._entries`, with the build's bits.  A slab is built whole
    when it is the bottom one or k_max exceeds the points below it (row e
    has no split for some p), or when F(p, e) is +inf for some p, and every
    linear slab is built whole: the cut rests on the SSE bound delta.
    Fills from a table copy whole rows.  ``slab_cells`` counts the entries
    written into slabs, b x c a slab: on n=4, m=2048, k=64 data about
    75-80% of whole slabs.

    A fill from a dataset of at least ``_SCREEN_N`` functions screens its
    rows instead of building them, for every cost: each slab holds lower
    bounds Lo <= Q^ of its entries from :func:`costs._screen_rows`, one
    matrix product a slab (four a block for linear costs), and a mask of
    the same shape marks the cells that hold their exact entry: from the
    start those left of the diagonal and at the lengths ``costs._PINNED``
    pins, where the screen equals the entry, then each cell priced.  A pass scans
    Lo + F(p-1, l+1) as a built pass scans the entries and takes each
    row's leftmost argmin l*.  The rows whose cell at l* is not exact have
    it priced with the build's bits, in one call of :func:`costs._entries`,
    the one pricer of every cost; each entry is written into the slab and
    the held copy, its sum Q^(j..l*) + F(p-1, l*+1) into the block, and the
    block is scanned again, until every row's argmin is exact.  This is
    lazy evaluation (Minoux 1978): every scanned sum is at most its exact
    sum, as Lo <= Q^ and fl(F + x) is monotone in x.  So with U the exact
    sum at the leftmost argmin l*, every column left of l* has an exact sum
    above U and every column right of it one of at least U: l* is the full
    scan's leftmost argmin and U has its bits.  Each round prices a new
    cell in every row it scans again, so the rounds end, and the pass ends
    as a built pass does, gathering F(p, j) from the block and ``q`` from
    ``cols``.
    ``colmin`` is made from Lo, still a lower bound, so the cuts of passes
    and slabs hold unchanged; F(1, .) is priced for every row, as in a cut
    fill.  ``priced`` counts the exact entries priced: F(1, .), and each
    slab cell at most once, so at most ``slab_cells``.  On constant curves,
    where every candidate ties, a row's leftmost argmin is its exact
    length-1 cell, and an SSE or linear fill prices only F(1, .).  Below the
    crossover the exact rows are built.

    ``candidates`` counts the sums the fill evaluated, one scan a pass: a
    screened pass's rescans are not counted.  Costs are >= 0 and never NaN,
    so every sum is finite or +inf.
    """
    m = table.m
    if not (1 <= k_max <= m):
        raise ValueError(f"k out of range: {k_max} not in 1..{m}")
    data = not isinstance(table, CostTable)
    screen = data and table.n >= _SCREEN_N
    loo, linear = cost is CostKind.LOO, cost is CostKind.LINEAR
    write_slab = _row_slabs(table, cost, screen)  # +inf left of the diagonal
    F = np.full((k_max, m + 1), np.inf, dtype=np.float64)
    L = np.zeros((k_max, m), dtype=np.int64)
    L[0, :] = m
    slabs = _slabs(m)
    size = max((e - s) * (m - s) for s, e in slabs)
    slab_buf, buf = np.empty(size), np.empty(size)
    held_buf = np.empty(max([(e - s) * (m - s) for s, e in slabs if e - s < m - s],
                            default=0))
    rows = np.arange(max(e - s for s, e in slabs))
    flat_buf, q_buf = np.empty(rows.size, dtype=np.intp), np.empty(rows.size)
    trim = data and not linear and len(slabs) > 1 and k_max > 1
    priced = 0
    if trim or screen:
        # F(1, j) = Q(j..m), as a cut slab holds no column m, nor a screen
        # an exact entry
        F[0, :m] = _entries(table, np.arange(1, m + 1), np.full(m, m), cost)
        priced = m
    if trim:
        prefix = _data_prefix(table)
        slack = 2.0 * _sse_error_bound(table)
        prior = np.arange(k_max - 1)  # p - 2 for p = 2..k_max
    if screen:
        # the slab's cells whose entry is exact: from the start those left
        # of the diagonal (+inf) and at the pinned lengths; then each cell
        # priced
        mask_buf = np.empty(size, dtype=bool)
        known = np.arange(1 - m, m + 1) <= _PINNED[cost]
        known = sliding_window_view(known, m)[m::-1]
    candidates = slab_cells = passes = 0
    row = None
    for s, e in slabs:
        b, w = e - s, m - s  # rows s..e-1 over the columns s..m-1
        c = w  # the slab's columns s..s+c-1 are built
        if trim and k_max <= m - s:  # this slab, or the next, may cut
            above, row = row, _sse_row(prefix, s + 1)  # rows e and s
        if trim and k_max <= m - e and F[1:k_max, e].max() < inf:
            # a bound on Q(j..L) for every row j of the slab at the ends L
            # of row e's splits, from row s's entries
            ends = L[1:k_max, e]
            upper = np.nextafter(row[ends - s - 1] + slack, np.inf)
            if loo:  # no row's factor at L exceeds row e-1's
                upper = _loo_scale(ends - e + 1.0, upper)
            top = (upper + F[prior, ends]).max()
            # from column c on, every row's Q(j..l) exceeds top
            least = np.minimum.accumulate(above[::-1])[::-1]
            c = b + int(least.searchsorted(nextafter(top + slack, inf),
                                           side="right"))
        slab = slab_buf[:b * c].reshape(b, c)
        write_slab(s, e, slab)
        if not (trim or screen):
            F[0, s:e] = slab[:, -1]
        if screen:
            mask = mask_buf[:b * c].reshape(b, c)
            np.copyto(mask, known[:b, :c])
            cstarts = rows[:b] * c
        slab_cells += b * c
        bound = b < c
        if bound:
            # colmin[i]: the least slab entry in the columns b+i..c-1
            colmin = np.minimum.accumulate(slab[:, b:].min(axis=0)[::-1])[::-1]
        kk = min(k_max, w)  # the slab's passes are p = 2..kk
        # once a slab: F(p-1, l+1) indexed by l's offset from the slab's
        # first column, the slab's rows of F and its split rows, which hold
        # each split as that offset until the slab is done
        f_next, f_rows, splits = F[:, s + 1:], F[:, s:e], L[:kk, s:e]
        splits[1:] = -(s + 1)  # rows with no p-partition end at split 0
        cols, held, r = slab, c, 0  # the slab's first `held` columns
        starts, f_held = rows[:b] * held, f_next[:, :held]  # offsets in cols
        for p in range(2, kk + 1):
            # candidate[j, l] = Q(j..l) + F(p-1, l+1); rows j > m-p+1 admit
            # no p-partition, so below row m-p+1 r falls by one a pass
            rows_p = min(e, m - p + 1) - s
            if rows_p != r:
                r = rows_p
                f_r, splits_r = f_rows[:, :r], splits[:, :r]
                flat, q = flat_buf[:r], q_buf[:r]
                block = None
            if bound and p >= 3:
                # the candidates at the splits for p-1, summed as the scan
                # sums them
                q += f_next[p - 2].take(splits_r[p - 2], mode="clip")
                best = q.max()
                need = b + int(colmin.searchsorted(best, side="right"))
                bound = need < c  # else no later pass of the slab bounds
                if need > held or 8 * need < 7 * held:
                    held = need
                    cols = held_buf[:b * held].reshape(b, held)
                    np.copyto(cols, slab[:, :held])
                    starts, f_held = rows[:b] * held, f_next[:, :held]
                    block = None
            if block is None:  # r or held changed
                block = buf[:r * held].reshape(r, held)
                cols_r, starts_r = cols[:r], starts[:r]
            np.copyto(block, f_held[p - 2])
            block += cols_r
            split = block.argmin(axis=1, out=splits_r[p - 1])  # leftmost minimum
            candidates += r * held
            while screen:
                # the rows whose argmin is still a bound: price it, write it
                # into the slab, the held copy and the block, and rescan
                cells = split + cstarts[:r]
                miss = np.flatnonzero(~mask.take(cells))
                if not miss.size:
                    break
                l, cells = split[miss], cells[miss]
                qv = _entries(table, s + 1 + miss, s + 1 + l, cost)
                priced += miss.size
                mask.put(cells, True)
                slab.put(cells, qv)
                at = l + starts_r[miss]  # the same cells' offsets in the block
                if cols is not slab:
                    cols.put(at, qv)
                buf.put(at, qv + f_next[p - 2].take(l))
                block.argmin(axis=1, out=split)  # unchanged rows keep theirs
            np.add(split, starts_r, out=flat)  # flat offsets in block
            buf.take(flat, out=f_r[p - 1], mode="clip")
            if bound:  # Q(j..split): block and cols share offsets
                cols.take(flat, out=q, mode="clip")
        splits[1:] += s + 1
        passes += kk - 1
    F = F[:, :m]
    # all-inf rows: argmin is meaningless, pin split to the leftmost slot;
    # rows with no p-partition keep split 0
    np.copyto(L[1:], np.arange(1, m + 1), where=~np.isfinite(F[1:]) & (L[1:] > 0))
    return DPTable(k_max=k_max, m=m, costs=_readonly(F), splits=_readonly(L),
                   candidates=candidates, slab_cells=slab_cells, passes=passes,
                   priced=priced)


def backtrack(dp: DPTable, k: int) -> Segmentation:
    """Reconstruct the optimal k-segmentation from the recorded splits.

    The first segment is {1..split(k, 1)}; the walk then restarts at the next
    index with one segment fewer.  Splits are read as Python ints with
    ``ndarray.item``, so no numpy scalar is made, and each end is checked
    against the recorded range as it is read; :class:`Segmentation` checks
    the order of the ends again on construction.  A walk of every count of
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
    return Segmentation(ends=tuple(ends))  # split(1, j) is m


def solve(table: CostTable | FunctionalDataset, k: int,
          cost: CostKind = CostKind.SSE) -> tuple[Segmentation, float, DPTable]:
    """Optimal partition of the table's index range into exactly k segments
    under ``cost``, from a table or the dataset itself (see :func:`fill_dp`).

    Raises :class:`InfeasiblePartitionError` when every k-partition has
    infinite cost (leave-one-out costs with k > m/2).
    """
    dp = fill_dp(table, k, cost)
    total = float(dp.costs[k - 1, 0])
    if not isfinite(total):
        raise InfeasiblePartitionError(
            f"no finite-cost partition into {k} segments"
        )
    return backtrack(dp, k), total, dp


def solve_all(table: CostTable | FunctionalDataset, k_max: int,
              cost: CostKind = CostKind.SSE) -> list[SolveResult]:
    """Optima for every segment count 1..k_max under ``cost`` from a single
    DP fill of a table or a dataset (see :func:`fill_dp`).

    Infinite-cost counts are flagged (segmentation None), not omitted, and
    never backtracked.
    """
    dp = fill_dp(table, k_max, cost)
    out = []
    for k, total in enumerate(dp.costs[:, 0].tolist(), start=1):
        if isfinite(total):
            out.append(SolveResult(k, backtrack(dp, k), total))
        else:
            out.append(SolveResult(k, None, np.inf))
    return out
