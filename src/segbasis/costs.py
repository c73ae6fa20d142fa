"""Additive segment costs and their tables.

The central object is the upper-triangular table ``Q(j..l)``: the cost of
covering grid indices ``j..l`` (1-based, inclusive) with a single segment,
summed over all functions.  Three kinds of cost are supported:

* ``SSE`` -- within-segment sum of squared deviations from the segment mean,
  ``S2 - sum_i S1_i^2 / len`` from prefix sums of each function's values
  (S1_i) and of all squared values (S2), centred on each function's mean so
  that value offsets stay out of the arithmetic.
* ``LOO`` -- leave-one-out cost: each point of a segment is predicted by the
  mean of the remaining points, which scales the SSE by (len/(len-1))^2 and
  makes singleton segments infinitely expensive.  It is never held in a
  table: SSE costs are scaled where they are read, the dynamic program's row
  slabs by :func:`_loo_rows` and priced entries by :func:`_loo_scale`.
* ``LINEAR`` -- residual sum of squares of the per-segment least-squares line
  against the grid, from prefix sums of t, t^2, y, t*y and y^2 alike.

Both table builds are O(n m^2) arithmetic done a block of start rows at a
time: one ``einsum`` sums an n x b x m tensor of interval sums over
functions.  The SSE rule is written once, in :func:`_sse_kernel`, and the
leave-one-out rule once, in :func:`_loo_scale`.  One row builder a cost,
:func:`_sse_rows` or :func:`_linear_rows`, makes both the whole table and,
through :func:`_row_slabs`, the row slabs the dynamic program reads from a
dataset, so a table-free fill has the table's bits; :func:`_entries` and
:func:`_linear_entries` price single entries with them too.
:func:`partition_totals` prices both the SSE and the leave-one-out totals
of given segmentations from one gather of their SSE entries, with or
without the SSE table.  Without it, the fill's rows, its pricing and the
totals read one set of centred prefix sums a dataset
(:func:`_data_prefix`).

Every computed SSE entry is within a written bound delta of the exact SSE
of the centred values (:func:`_sse_error_bound`, after Chan, Golub &
LeVeque 1983 and Higham 2002): about 1e-10 of the data's total of squares
at n=4, m=2048.  It makes "an interval's SSE never falls when points are
added" hold for computed entries up to 2 delta, which lets the fill from a
dataset skip columns of a row before the row is built.  delta also covers
the entries :func:`_entries` prices, one at a time or many, which have the
table's bits.  The Gram-form screen of :func:`_screen_rows`, one matrix
product a slab, never exceeds max(Q - delta, 0), Q the exact SSE, by a
second written bound, so a fill from many functions can screen its rows
and price exactly only the entries its passes can pick.  Its linear screen
subtracts a third written bound on the slope term (:func:`_slope_screen`),
so linear fills screen too, and no fill holds an m x m table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import CostKind, FunctionalDataset, Segmentation, _readonly

# Byte budget of one n x b x m block tensor, which fixes the b start rows of
# a build step; the step count then grows with n, like the work.  Smaller
# budgets leave steps bound by per-call overhead (b = 1 at n=124, m=256 with
# 256 KiB), larger ones spill the cache: 1 MiB built fastest from n=4,
# m=2048 to n=124, m=256, and the table does not depend on b.
_BLOCK_BYTES = 1 << 20

# Byte budget of the interval sums :func:`_entries` gathers at once.  Above
# glibc's default mmap threshold of 128 KiB each temporary is mapped and
# faulted in afresh, which made a call of 256 entries at n=124 take twice as
# long as three calls below the budget.
_GATHER_BYTES = 120 * 1024


@dataclass(frozen=True)
class CostTable:
    """Aggregated segment costs for one dataset.

    ``values[j-1, l-1]`` holds Q(j..l) >= 0 for j <= l; entries below the
    diagonal are unused and read as +inf, so the solver can index the array
    directly.  Construction raises ValueError on NaN anywhere and on a
    negative cost, since the dynamic program's pruning rests on costs >= 0
    (see :func:`solver.fill_dp`), and replaces any other entry below the
    diagonal by +inf.  The table holds a read-only array of its own (a
    writable array or a view is copied), so no later write to the caller's
    array can break what was checked.  A built table passes with one
    comparison against a Toeplitz view of one threshold row (+inf below
    the diagonal, 0 on and above it); masking every slab the fill copies
    instead cost a one-slab fill at m=256 about 7%.  The library builds
    SSE and linear tables; leave-one-out costs are scaled from SSE costs
    where they are read.
    """

    m: int
    kind: CostKind
    values: np.ndarray  # (m, m), upper triangle meaningful

    def __post_init__(self) -> None:
        m, values = self.m, self.values
        if values.shape != (m, m):
            raise ValueError(f"cost table of shape {values.shape}, "
                             f"expected ({m}, {m})")
        floor = sliding_window_view(
            np.where(np.arange(1 - m, m) < 0, np.inf, 0.0), m)[::-1]
        if not (values >= floor).all():
            if np.isnan(values).any():
                raise ValueError("cost table contains NaN")
            if (np.triu(values) < 0.0).any():
                raise ValueError("cost table has a negative cost")
            values = np.where(floor == np.inf, np.inf, values)
        elif values.flags.writeable or values.base is not None:
            values = values.copy()  # so that what was checked stays so
        object.__setattr__(self, "values", _readonly(values))


def _right_sums(costs: np.ndarray, counts: Sequence[int]) -> list[float]:
    """Totals of consecutive runs of ``counts[i]`` segment costs each, every
    run summed from its last cost to its first, starting from 0.0.

    Row i of one (runs x (max count + 1)) array holds run i's costs and at
    least one 0.0 after them.  A sequential ``np.cumsum`` over the reversed
    columns then adds 0.0 and the costs from the last to the first, one at
    a time: the right-to-left loop's association, so the totals have its
    bits (and +inf stays +inf).
    """
    if not counts:
        return []
    counts = np.asarray(counts, dtype=np.intp)
    rows = np.zeros((counts.size, int(counts.max()) + 1))
    run = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts  # flat index of each run's first cost
    rows[run, np.arange(costs.size) - first[run]] = costs
    return np.cumsum(rows[:, ::-1], axis=1)[:, -1].tolist()


def _loo_scale(lens: np.ndarray, sse: np.ndarray) -> np.ndarray:
    """Leave-one-out costs of intervals from their lengths and SSE entries:
    the SSE scaled by (len/(len-1))^2, and +inf where len < 2 (there is
    nothing left to predict a lone point from)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (lens / (lens - 1.0)) ** 2 * sse
    q[lens < 2.0] = np.inf
    return q


def partition_totals(sse: CostTable | FunctionalDataset,
                     segs: Sequence[Segmentation]
                     ) -> tuple[list[float], list[float]]:
    """SSE and leave-one-out totals of segmentations from the SSE entries of
    their segments: the library's one pricing rule.

    ``sse`` is an SSE table, or the dataset when no table is built: the
    entries are then priced by the table's own kernel in one pass, clamped
    and pinned like the table (:func:`_sse_entries`), with the same bits.
    The entries are gathered once; the leave-one-out entries are scaled
    from them by :func:`_loo_scale`, with the bits the leave-one-out
    dynamic program reads.  Each total is summed from the last segment to
    the first, starting from 0.0, as the dynamic program sums, so the total
    of a basis the program found has the bits of its objective.
    """
    table = isinstance(sse, CostTable)
    if table and sse.kind is not CostKind.SSE:
        raise ValueError(f"expected an SSE table, got {sse.kind.value}")
    for seg in segs:
        if seg.m != sse.m:
            raise ValueError(f"segmentation covers {seg.m} points, "
                             f"{'table' if table else 'dataset'} {sse.m}")
    # each segment starts one past the end before it, the first one at 1:
    # chained end tuples flatten a k = 1..64 sweep's bases in 0.12 ms, its
    # ``starts`` tuples in 0.33 ms more
    s = 1 + np.fromiter(chain.from_iterable((0,) + seg.ends[:-1] for seg in segs),
                        dtype=np.intp)
    e = np.fromiter(chain.from_iterable(seg.ends for seg in segs), dtype=np.intp)
    costs = sse.values[s - 1, e - 1] if table else _sse_entries(sse, s, e)
    counts = [seg.k for seg in segs]
    return (_right_sums(costs, counts),
            _right_sums(_loo_scale(e - s + 1.0, costs), counts))


def _prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, with a leading zero."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


def _interval_sums(p: np.ndarray, s: int, e: int, out: np.ndarray,
                   first: int | None = None) -> np.ndarray:
    """``out[..., r, c]`` = sum of points s+r .. first+c (0-based, ``first``
    s unless given) from prefix sums ``p`` over the last axis, for the rows
    s..e-1 and as many columns c as ``out`` has.

    The end sums are copied in and the start column subtracted in place:
    the same one subtraction per entry as an ``np.subtract`` that
    broadcasts both operands, which is the slower path with numpy 2.4.
    """
    first = s if first is None else first
    np.copyto(out, p[..., None, first + 1:first + 1 + out.shape[-1]])
    out -= p[..., s:e, None]
    return out


def _blocked_rows(n: int, m: int, n_tensors: int, pinned: int, fill):
    """Row builder of an m x m cost table: ``rows(s0, e0, out)`` writes the
    rows s0..e0-1 over the columns s0..c-1 into the (e0-s0) x (c-s0) array
    ``out`` and returns it, c <= m.  A whole table is ``rows(0, m, out)``.

    The rows are built a block of start rows s..e-1 at a time, b rows a
    block for the budget ``_BLOCK_BYTES`` at the width c - s0.
    ``fill(s, e, lens, tensors, scratch, q)`` writes the costs of intervals
    ending at columns s..c-1 into the view ``q``, given the interval lengths
    (+inf where empty, so that a sum divided by a length is 0 there) and
    buffers: ``n_tensors`` of n x b x w and one of b x w, w = c - s.  Then
    noise below 0 is clamped, lengths 1..``pinned`` are set to exactly 0
    and the columns left of the diagonal to +inf.  The buffers are
    allocated once and reused by every call, and the lengths and masks are
    Toeplitz views of one row each: row r of a block starts r entries
    further left in it, so entry (r, c) is of interval length c - r + 1.
    """
    cells = _BLOCK_BYTES // (8 * max(n, 1))  # the b x w cells a block may hold
    top = max(1, min(m, cells))  # the most rows a block has
    rel = np.arange(1 - top, m + 1)  # interval lengths 1-top .. m
    lens, empty, short = (
        sliding_window_view(row, m)[top::-1]
        for row in (np.where(rel >= 1, rel, np.inf), rel < 1,
                    (rel >= 1) & (rel <= pinned)))
    tensors = [np.empty(max(n * m, _BLOCK_BYTES // 8)) for _ in range(n_tensors)]
    scratch = np.empty(max(m, cells))

    def rows(s0: int, e0: int, out: np.ndarray) -> np.ndarray:
        stop = s0 + out.shape[1]  # the first column not built
        b = max(1, min(e0 - s0, cells // (stop - s0)))
        for s in range(s0, e0, b):
            e = min(s + b, e0)
            bb, w = e - s, stop - s
            q = out[s - s0:e - s0, s - s0:]
            fill(s, e, lens[:bb, :w],
                 [t[:n * bb * w].reshape(n, bb, w) for t in tensors],
                 scratch[:bb * w].reshape(bb, w), q)
            np.maximum(q, 0.0, out=q)
            c = min(w, bb + pinned)  # no later column is empty or short
            np.copyto(q[:, :c], np.inf, where=empty[:bb, :c])
            np.copyto(q[:, :c], 0.0, where=short[:bb, :c])
            out[s - s0:e - s0, :s - s0] = np.inf
        return out

    return rows


def _square_sums(d, sq) -> None:
    """sum_i d_i^2 of the n x b x w interval sums ``d`` into the b x w
    ``sq``.  ``d`` must be C-ordered: ``einsum`` then sums the functions of
    every cell in one order, so a sum's bits do not depend on the block it
    is in.  Another layout would change the last bit of some sums, so it
    raises.  A lone cell is summed beside a copy of itself: alone,
    ``einsum`` adds its functions in another order, which changed the last
    bit of about half the entries of an n=124 dataset priced one by one."""
    if not d.flags.c_contiguous:
        raise ValueError("interval sums must be C-ordered")
    if sq.size == 1:
        both, pair = np.concatenate((d, d), axis=2), np.empty((1, 2))
        np.einsum("ibl,ibl->bl", both, both, out=pair)
        sq[...] = pair[:, :1]
    else:
        np.einsum("ibl,ibl->bl", d, d, out=sq)


def _sse_kernel(d, lens, sq, q) -> None:
    """S2 - sum_i S1_i^2 / len in place in ``q``, which holds the S2 sums,
    from the n x b x w interval sums ``d`` of each function (C-ordered, see
    :func:`_square_sums`); ``sq`` is b x w scratch."""
    _square_sums(d, sq)
    sq /= lens
    q -= sq


def _sse_block(p1, p2, s, e, lens, tensors, sq, q) -> None:
    """Block fill of :func:`_sse_kernel` from the prefix sums ``p1`` of each
    function and ``p2`` of the squares; ``tensors[0]`` keeps S1."""
    d = _interval_sums(p1, s, e, tensors[0])
    _sse_kernel(d, lens, sq, _interval_sums(p2, s, e, q))


def _require_finite(*bounds) -> None:
    """Raise unless every bound on a kernel's sums is finite: an overflow
    is an input error, never a cost."""
    if not np.isfinite(bounds).all():
        raise ValueError("input values too large for double-precision sums")


def _sse_prefix(dataset: FunctionalDataset):
    """Each function centred on its mean, the prefix sums of each and those
    of all the squares, as :func:`_sse_block` reads them.  Raises if a cell
    could overflow: each |S1_i| is at most the span (``np.ptp``) of its
    prefix sums and each |S2| at most the last, also left of the diagonal,
    and a leave-one-out entry is at most 4 times its SSE entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = dataset.values - dataset.values.mean(axis=1, keepdims=True)
        p1, p2 = _prefix(y), _prefix((y * y).sum(axis=0))
        _require_finite(4.0 * ((np.ptp(p1, axis=-1) ** 2).sum() + p2[-1]))
    return y, p1, p2


def _data_prefix(dataset: FunctionalDataset):
    """:func:`_sse_prefix` of ``dataset``, made once and kept on it, so a
    fit's or select's fill, its slab cuts, its linear sums and the pricing
    read one set of centred prefix sums.  The dataset's arrays are
    read-only, so the sums stay its own.  The SSE table build centres
    afresh, so what ``bench`` times does not depend on what ran before it."""
    kept = vars(dataset)
    if "_sse_prefix" not in kept:
        kept["_sse_prefix"] = _sse_prefix(dataset)
    return kept["_sse_prefix"]


def _sse_error_bound(dataset: FunctionalDataset) -> float:
    """delta: a bound on |Q^(j..l) - Q(j..l)| for every SSE entry computed
    from :func:`_sse_prefix`'s sums (the table, the rows of
    :func:`_row_slabs`, :func:`_entries`, :func:`_sse_row`), where Q is the
    exact SSE of the centred values y (the doubles :func:`_sse_prefix`
    stores) and Q^ the computed entry, clamped and pinned or not.

    With u = 2^-53, T = sum of all y^2, a_i = sum_t |y_it| and
    T_i = sum_t y_it^2, to first order in u (Higham 2002, ch. 3-4; Chan,
    Golub & LeVeque 1983):

    * S2 = p2[l+1] - p2[j]: each prefix sum of the n*t squares is a sum
      whose terms pass at most n + m roundings, so it is off by at most
      (n + m) u T, and the difference adds u S2 <= u T: (2n + 2m + 1) u T.
    * S1_i = p1_i[l+1] - p1_i[j]: each prefix sum is off by at most m u a_i
      (recursive summation), so S1_i by e_i = (2m + 1) u a_i.  Then
      |S1^_i^2 - S1_i^2| / len <= 2 e_i |S1_i| / len <= 2 e_i sqrt(T_i),
      since S1_i^2 <= len T_i, and a_i <= sqrt(m T_i): summed over i this
      is at most (4m + 2) sqrt(m) u T.
    * V = sum_i S1_i^2 / len <= S2 <= T: the products and the sum over n
      functions in any order, then the division, add (n + 1) u V.
    * S2 - V adds u |S2 - V| <= u T; clamping at 0 and pinning length 1 to
      0 only move an entry toward Q >= 0.

    So |Q^ - Q| <= ((3n + 2m + 3) + (4m + 2) sqrt(m)) u T.  The bound
    returned doubles that, which covers the second-order terms, the
    rounding of the computed T and of this formula while
    (n + 4 m^1.5) u <= 1/64 (any n and m below 2^24).  Products that
    underflow each add at most 2^-1075: at most n m + n + 1 of them feed
    one entry, and 2 (n m + n + 2) times 2^-1074 is added, which also
    covers a relative term that underflows itself.  The bound is
    loose (at n=4, m=2048 it is about 1e-10 T) and costs one pass over
    the data.

    Two facts make it a cut rule for the dynamic program.  The exact SSE of
    a set of points is at least that of any subset, so for j <= i <= l,
    Q^(j..l) >= Q(j..l) - delta >= Q(i..l) - delta >= Q^(i..l) - 2 delta.
    And a leave-one-out entry, the SSE entry times a factor >= 1 rounded,
    is never below its SSE entry.
    """
    y, _, p2 = _data_prefix(dataset)
    n, m = y.shape
    rel = 2.0 * ((3 * n + 2 * m + 3) + (4 * m + 2) * m ** 0.5)
    return float(rel * 2.0 ** -53 * p2[-1] + 2 * (n * m + n + 2) * 2.0 ** -1074)


def _entries(dataset: FunctionalDataset, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SSE entries Q(s..e) of 1-based intervals (``s`` and ``e`` of one
    length) from the dataset's :func:`_data_prefix` sums.

    The interval sums are gathered as one row of entries, with the same one
    subtraction each as the table's, and priced by the table's own
    :func:`_sse_kernel`.  So each entry has the bits of
    ``build_sse_table(dataset)``, clamped at 0 and pinned to 0 at length 1
    like it.  The sums are gathered as whole rows of a transposed copy of
    the prefix sums, kept on the dataset beside them, and transposed to the
    C order the kernel needs, at most ``_GATHER_BYTES`` of them at once: the
    kernel's order does not depend on how many entries are priced together.
    """
    step = max(1, _GATHER_BYTES // (8 * dataset.n))
    if s.size > step:
        return np.concatenate([_entries(dataset, s[a:a + step], e[a:a + step])
                               for a in range(0, s.size, step)])
    _, p1, p2 = _data_prefix(dataset)
    d = _interval_columns(_prefix_rows(dataset, p1), s, e)
    q = p2[e] - p2[s - 1]
    _sse_kernel(d[:, None], e - s + 1.0, np.empty((1, q.size)), q[None])
    np.maximum(q, 0.0, out=q)
    q[e == s] = 0.0
    return q


def _prefix_rows(dataset: FunctionalDataset, p1: np.ndarray) -> np.ndarray:
    """A transposed copy of the prefix sums ``p1``, one row a prefix index,
    made once and kept on the dataset beside them."""
    kept = vars(dataset)
    if "_prefix_rows" not in kept:
        kept["_prefix_rows"] = np.ascontiguousarray(p1.T)
    return kept["_prefix_rows"]


def _interval_columns(rows: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The interval sums p[:, e] - p[:, s-1] of prefix sums p, given as
    ``rows`` = p.T, as a C-ordered n x N array, each with one subtraction
    as the tables' builds make it: gathered as whole rows of ``rows``."""
    d = rows.take(e, axis=0)
    d -= rows.take(s - 1, axis=0)
    return np.ascontiguousarray(d.T)


def _sse_row(prefix, j: int) -> np.ndarray:
    """Q(j..l) for l = j..m, the 1-based row j, from contiguous slices of
    :func:`_sse_prefix`'s sums: each within delta of the exact SSE
    (:func:`_sse_error_bound` allows the functions summed in any order,
    and no clamp), but not with the table's bits."""
    _, p1, p2 = prefix
    d = p1[:, j:] - p1[:, j - 1:j]
    q = p2[j:] - p2[j - 1]
    q -= np.einsum("il,il->l", d, d) / np.arange(1.0, q.size + 1)
    return q


def _sse_entries(dataset: FunctionalDataset, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SSE entries Q(s..e) of 1-based intervals, without the table, with
    the table's bits (:func:`_entries`).  Each distinct interval is priced
    once: the optimal bases of a sweep share most of their segments
    (195-260 distinct of 2080 on the default synthetic data, n=124, m=256,
    k=1..64).
    """
    key, inverse = np.unique(s * (dataset.m + 1) + e, return_inverse=True)
    s, e = np.divmod(key, dataset.m + 1)
    return _entries(dataset, s, e)[inverse]


def _sse_rows(dataset: FunctionalDataset, prefix):
    """The SSE row builder of ``dataset`` from its :func:`_sse_prefix`
    (see :func:`_blocked_rows`): the one path by which both the table and
    the dynamic program's row slabs are made, so a slab has the bits of
    the table's rows."""
    _, p1, p2 = prefix
    return _blocked_rows(dataset.n, dataset.m, 1, 1, partial(_sse_block, p1, p2))


def _screen_rows(dataset: FunctionalDataset, prefix, linear: bool = False):
    """``rows(s, e, out)``: lower bounds Lo <= Q^ of the SSE entries, or with
    ``linear`` of the linear entries, of the rows s..e-1 over the columns
    s..c-1 into the (e-s) x (c-s) array ``out``, from matrix products (a
    screen for the dynamic program).  The linear screen is the SSE screen
    less the bound of :func:`_slope_screen` on the slope term, pinned to 0
    at lengths 1 and 2 like the entries, and made in blocks of at most
    ``_BLOCK_BYTES / 64`` cells, 64 rows at m=256.

    With P the n x (m+1) prefix sums of :func:`_sse_prefix`, d_a the sum of
    P_ia^2 and G = P^T P, sum_i S1_i(j..l)^2 = d_l + d_(j-1) - 2 G[j-1, l].
    A block of rows is one GEMM of two views of P, G[j-1, l]; -2 G + d'_l +
    d'_(j-1) is multiplied by 1/len to V, and Lo = (p2[l] - V) - (p2[j-1] +
    2 delta), clamped at 0 and +inf left of the diagonal.  d' is d times
    w = 1 + (6n + 26) u: the screen sits (w - 1)(d_l + d_(j-1))/len + 2 delta
    below the Gram form, delta the bound of :func:`_sse_error_bound`.

    Lo <= max(Q - delta, 0) <= Q^, with Q the exact SSE and u = 2^-53, to
    first order (Higham 2002, ch. 3: every bound holds in any order of
    summation, so BLAS blocking and threads cannot break it).  Let
    D = d_l + d_(j-1), D' = d'_l + d'_(j-1) and W the exact
    sum_i (P_il - P_i(j-1))^2 of the stored sums:

    * the computed d is within n u d of the exact one, so D' exceeds D by
      at least (w - 1 - (n + 1) u) D;
    * G's n terms sum in absolute value to at most D/2 (Cauchy-Schwarz),
      so with the two additions the computed -2 G + D' is within
      (n + 5) u D' <= 2 (n + 2) u D' of D' - 2 G = W + (D' - D);
    * the reciprocal and the product with it add 2 u, the three
      subtractions u (T + |V|) each, T the total of squares, |V| <= 2 D'/len;
    * the stored sums put sum_i S1_i^2 / len and S2 within
      (4m sqrt(m) + 2n + 2m) u T of their exact values, as in
      :func:`_sse_error_bound`.

    Summed, Lo <= Q - 2 delta + (2n + 2m + 4 + 4m sqrt(m)) u T
    - (w - 1 - (3n + 13) u) D/len before the clamp, and delta exceeds the
    u T term twice over: so Lo <= Q - delta.  Doubling (3n + 13) u covers
    the second-order terms, and the second delta the products that
    underflow.  Every partial sum stays finite: ptp(P_i)^2 <= m T_i, so the
    prefix check of :func:`_sse_prefix` bounds 2 D' with room.  The
    leave-one-out screen scales Lo by the factor of :func:`_loo_rows`;
    rounding is monotone, so it stays at most the leave-one-out entry.
    """
    _, p1, p2 = prefix
    n, m = p1.shape[0], p1.shape[1] - 1
    sq = np.einsum("ia,ia->a", p1, p1)
    d = sq * (1.0 + (6 * n + 26) * 2.0 ** -53)
    shift = p2 + 2.0 * _sse_error_bound(dataset)
    rel = np.arange(1.0 - m, m + 1.0)  # interval lengths, as in _blocked_rows
    inv, floor, short = (sliding_window_view(row, m)[m::-1] for row in (
        np.divide(1.0, rel, out=np.zeros_like(rel), where=rel >= 1),
        np.where(rel >= 1, 0.0, np.inf), (rel >= 1) & (rel <= 2)))
    slope, cells = _slope_screen(dataset, p1, sq) if linear else (None, 0)
    if linear and slope is None:  # the bound's sums could overflow
        return _linear_rows(dataset, prefix)

    def rows(s: int, e: int, out: np.ndarray) -> np.ndarray:
        b, c = out.shape
        ends = slice(s + 1, s + 1 + c)
        h = max(1, cells // c) if linear else b
        for r in range(0, b, h):
            o = out[r:r + h]
            a, v = slice(s + r, s + r + o.shape[0]), slice(r, r + o.shape[0])
            np.matmul(p1[:, a].T, p1[:, ends], out=o)
            o *= -2.0
            o += d[ends]
            o += d[a, None]
            if linear:
                bound = slope(a, ends, v, o)
            o *= inv[v, :c]
            np.subtract(p2[ends], o, out=o)
            o -= shift[a, None]
            if linear:
                o -= bound
            np.maximum(o, floor[v, :c], out=o)
        if linear:  # lengths 1 and 2 are pinned to 0
            np.copyto(out[:, :b + 2], 0.0, where=short[:b, :min(c, b + 2)])
        return out

    return rows


def _slope_screen(dataset: FunctionalDataset, p1: np.ndarray, sq: np.ndarray):
    """``(slope, cells)``: ``slope(a, ends, v, wide)`` bounds the slope term
    sum_i Cty_i^2 / Ctt of :func:`build_linear_table` from above, for the
    cells of the start prefix indices ``a`` and end prefix indices ``ends``
    (slices; ``v`` the rows' offsets in the slab), from three matrix
    products beside the SSE screen's.  ``wide`` holds the SSE screen's
    -2 G + d'_l + d'_(j-1) of those cells.  The bound is written into one
    of three scratch arrays of ``cells`` cells and returned.  ``slope`` is
    None when the bound's sums could overflow; the screen is then the
    built rows.

    With Y = P the n x (m+1) prefix sums of :func:`_sse_prefix` (sq their
    column sums of squares d), T those of y*t and for one cell
    b_i = Y_il - Y_i(j-1), a_i = T_il - T_i(j-1), the build computes
    c = St/len and Ctt^ elementwise and Cty^_i = (a_i - c b_i) rounded.
    The screen computes c and Ctt^ with the same operations, so with their
    bits, and with them S = sum_i (a_i - c b_i)^2 = A - 2 c B + c^2 C:
    A = sum_i a_i^2 = dT_l + dT_(j-1) - 2 T^T T, B = sum_i a_i b_i =
    h_l + h_(j-1) - (T^T Y + Y^T T) and C = sum_i b_i^2 (``wide``), with
    dT and h = sum_i T_ia Y_ia made once a fill.  Let rT_a and rY_a be
    the square roots of dT_a and d_a and Z = rT_l + rT_(j-1)
    + |c| (rY_l + rY_(j-1)); |A|, |B|, |C| <= Z^2 (Cauchy-Schwarz).  To
    first order in u = 2^-53, in any order of summation (Higham 2002,
    ch. 3):

    * the build: |Cty^_i - (a_i - c b_i)| <= 3 u (|a_i| + |c| |b_i|),
      whose 2-norm over i is at most 3 u Z, and sqrt(S) <= Z; the sum of
      n squares adds n u.  So sq^ <= S + (n + 6) u Z^2;
    * the screen: A within (n + 2) u (rT_l + rT_(j-1))^2, B within
      (n + 3) u (rT_l + rT_(j-1)) (rY_l + rY_(j-1)) and ``wide`` within
      (8n + 32) u (rY_l + rY_(j-1))^2 of C (its widening (6n + 26) u
      included); the products with c and the two sums add the rest, so
      S^ = (A - 2 c B) + c (c C) is within (8n + 36) u Z^2 of S.

    So sq^ <= S^ + (9n + 42) u Z^2, and ``slope`` returns
    (S^ + kappa Z^2 + eta) / Ctt^ with kappa twice (9n + 42) u: the second
    half covers the second-order terms and the rounding of the bound
    itself while (9n + 44)^2 u < 1/2 (any n below 2^22).  eta =
    (5n + 8)(1 + max|t|)^2 2^-1074 covers the products that underflow:
    each adds at most 2^-1075, at most 5n + 5 of them, scaled by at most
    (1 + |c|)^2.  sqrt(kappa) and sqrt(eta)/2 are folded into rT and rY
    once, so Z^2 costs one square.  The bound is at least sq^ and Ctt^ is
    the build's, so rounding, which is monotone, keeps it at least the
    build's Cty^2/Ctt^, and the SSE screen less it at most the build's
    entry before its clamp; after the clamp and the pins, Lo <= Q^.

    Dividing by the build's own Ctt^, not an exact Ctt, is what bounds the
    1/Ctt amplification at short lengths: an error in Ctt would enter as
    S/Ctt^2, unbounded as grid points draw together, and Ctt^ <= 0 is +inf
    in both, so the term is 0 there as in the build.  What is amplified is
    only the width kappa Z^2/Ctt^ of the screen: at length 3 on a grid of
    spacing h, Ctt is about 2 h^2, and near-duplicate points can make the
    width exceed the entry.  The screen then reads 0 there, and the fill
    prices the cell only if it can tie a row's best.

    Every partial sum is at most 8 (max rT + max|t| max rY)^2; where that
    is not finite, ``slope`` is None.
    """
    t, pt, ptt, pty = _linear_prefix(dataset)
    n, m = p1.shape[0], p1.shape[1] - 1
    c_max = float(np.abs(t).max())
    dt = np.einsum("ai,ai->a", pty, pty)
    rt, ry = np.sqrt(dt), np.sqrt(sq)
    with np.errstate(over="ignore"):
        if not np.isfinite(8.0 * (rt.max() + c_max * ry.max()) ** 2):
            return None, 0
    h = np.einsum("ai,ia->a", pty, p1)
    root_kappa = (2.0 * (9 * n + 42) * 2.0 ** -53) ** 0.5
    half_eta = 0.5 * ((5 * n + 8) * 2.0 ** -1074) ** 0.5 * (1.0 + c_max)
    rt, ry = rt * root_kappa + half_eta, ry * root_kappa
    rel = np.arange(1.0 - m, m + 1.0)
    lens = sliding_window_view(np.where(rel >= 1, rel, np.inf), m)[m::-1]
    cells = max(m, _BLOCK_BYTES // 64)
    scratch = np.empty((3, cells))

    def slope(a: slice, ends: slice, v: slice, wide: np.ndarray) -> np.ndarray:
        shape = wide.shape
        st, g, z = (x[:wide.size].reshape(shape) for x in scratch)
        lv = lens[v, :shape[1]]
        first = ends.start - 1  # the slab's first point
        st = _interval_sums(pt, a.start, a.stop, st, first)
        c = np.divide(st, lv, out=st)  # the build's bits
        # B^ = (h_l - (T^T Y + Y^T T)) + h_(j-1)
        np.matmul(pty[a], p1[:, ends], out=g)
        np.matmul(p1[:, a].T, pty[ends].T, out=z)
        z += g
        np.subtract(h[ends], z, out=z)
        z += h[a, None]
        # A^ = -2 T^T T + dT_l + dT_(j-1), then S^ = (A^ - 2 c B^) + c (c C^)
        np.matmul(pty[a], pty[ends].T, out=g)
        g *= -2.0
        g += dt[ends]
        g += dt[a, None]
        z *= c
        z *= 2.0
        g -= z
        np.multiply(c, wide, out=z)
        z *= c
        g += z
        # + kappa Z^2 + eta
        np.abs(c, out=c)
        np.add(ry[ends], ry[a, None], out=z)
        z *= c
        z += rt[ends]
        z += rt[a, None]
        z *= z
        g += z
        # over Ctt^, made with the build's operations, so with its bits
        _interval_sums(pt, a.start, a.stop, st, first)
        np.multiply(st, st, out=z)
        z /= lv
        ctt = _interval_sums(ptt, a.start, a.stop, st, first)
        ctt -= z
        np.copyto(ctt, np.inf, where=ctt <= 0.0)
        g /= ctt
        return g

    return slope, cells


def build_sse_table(dataset: FunctionalDataset) -> CostTable:
    """Build the aggregated SSE table for all functions of ``dataset``.

    The diagonal is exactly 0, cancellation noise is clamped at 0 and the
    lower triangle is +inf.
    """
    m = dataset.m
    table = _sse_rows(dataset, _sse_prefix(dataset))(0, m, _table_array(m))
    return CostTable(m=m, kind=CostKind.SSE, values=_readonly(table))


def _table_array(m: int) -> np.ndarray:
    """An uninitialised m x m array for a cost table: the one allocation of
    an m x m array in the library.  A failure to allocate it is an input
    error naming m and its 8 m^2 bytes."""
    try:
        return np.empty((m, m))
    except MemoryError:
        raise ValueError(f"a cost table for m={m} points needs {8 * m * m} "
                         "bytes, more than can be allocated") from None


def _loo_rows(sse_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Leave-one-out entries of a b x w block of SSE rows that starts on the
    diagonal (row r, column c is an interval of len c - r + 1), into ``out``.

    The rows must hold +inf left of the diagonal, as a :class:`CostTable`
    and :func:`_blocked_rows` hold them.  The factor row (len/(len-1))^2
    for len = 1-b..w comes from :func:`_loo_scale` itself, and the block is
    multiplied by a Toeplitz view of it (row stride back one length, column
    stride forward one).  The factor is +inf below len 2, so left of the
    diagonal inf * inf stays +inf; on the diagonal a 0 entry gives
    inf * 0 = NaN, so the diagonal alone is set to +inf after the multiply.
    """
    b, w = sse_rows.shape
    factor = _loo_scale(np.arange(1.0 - b, w + 1.0), np.ones(b + w))
    f = np.lib.stride_tricks.sliding_window_view(factor, w)[:0:-1]
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal
        np.multiply(f, sse_rows, out=out)
    np.fill_diagonal(out, np.inf)
    return out


def _row_slabs(source: CostTable | FunctionalDataset,
               cost: CostKind = CostKind.SSE, screen: bool = False):
    """``slab(s, e, out)``: the rows s..e-1 of ``cost`` over the columns
    s..c-1 into the (e-s) x (c-s) array ``out``, the one way the dynamic
    program reads its costs.

    ``source`` is a cost table, whose rows are copied whole (c = m, +inf
    left of the diagonal, as :class:`CostTable` holds them), or a dataset,
    whose rows are built by :func:`_sse_rows` or :func:`_linear_rows`, the
    table builds' own paths, so they equal the table's rows bit for bit
    without the m x m table.  With ``screen`` a dataset's rows are instead
    the lower bounds of :func:`_screen_rows`.  A dataset's slab may stop at
    any column c: the fill builds only the columns its passes can use (see
    :func:`solver.fill_dp`).  Leave-one-out rows are SSE rows scaled by
    :func:`_loo_rows`, so the fill reads them without a leave-one-out
    table.  A table must hold ``cost``, or SSE costs for leave-one-out.
    """
    loo, linear = cost is CostKind.LOO, cost is CostKind.LINEAR
    if isinstance(source, FunctionalDataset):
        prefix = _data_prefix(source)
        if screen:
            build = _screen_rows(source, prefix, linear)
        else:
            build = (_linear_rows if linear else _sse_rows)(source, prefix)
        return (lambda s, e, out: _loo_rows(build(s, e, out), out)) if loo else build
    if source.kind is not cost and not (loo and source.kind is CostKind.SSE):
        raise ValueError(f"expected {'a linear' if linear else 'an SSE'} "
                         f"table, got {source.kind.value}")
    values = source.values
    if loo and source.kind is CostKind.SSE:
        return lambda s, e, out: _loo_rows(values[s:e, s:], out)
    return lambda s, e, out: np.copyto(out, values[s:e, s:])


def _linear_prefix(dataset: FunctionalDataset):
    """The centred grid t and the prefix sums of t, t^2 and each function's
    y*t (y centred, from :func:`_data_prefix`), made once and kept on the
    dataset like the centred sums.  The sums of y*t are kept transposed,
    one row of n a prefix index, as the screen's matrix products and the
    pricing's gathers read them.  Raises if a linear cell could
    overflow."""
    kept = vars(dataset)
    if "_linear_prefix" not in kept:
        y, py, _ = _data_prefix(dataset)
        with np.errstate(over="ignore", invalid="ignore"):
            t = dataset.grid - dataset.grid.mean()
            pt, ptt = _prefix(t), _prefix(t * t)
            pty = np.zeros((dataset.m + 1, dataset.n))
            np.cumsum((y * t).T, axis=0, out=pty[1:])
            # as in _sse_prefix, |St| <= ptp(pt), also in the empty cells
            # left of the diagonal; there the lengths read +inf and St/len
            # is 0, and elsewhere St/len is a mean of t, so |Cty_i| <=
            # ptp(pty_i) + max|t| ptp(py_i)
            st, ty, y1 = np.ptp(pt), np.ptp(pty, axis=0), np.ptp(py, axis=-1)
            _require_finite(st * st, ptt[-1],
                            ((ty + np.abs(t).max() * y1) ** 2).sum())
        kept["_linear_prefix"] = t, pt, ptt, pty
    return kept["_linear_prefix"]


def _linear_block(p1, p2, pt, ptt, pty, s, e, lens, tensors, sq, q) -> None:
    """Block fill of linear costs (see :func:`build_linear_table`) from the
    prefix sums of :func:`_sse_prefix` and :func:`_linear_prefix`;
    ``tensors`` keep Sy and Cty.  Every step but the two sums over the
    functions is elementwise."""
    _sse_block(p1, p2, s, e, lens, tensors, sq, q)
    dy, dty = tensors
    st = _interval_sums(pt, s, e, np.empty(sq.shape))
    ctt = _interval_sums(ptt, s, e, np.empty(sq.shape)) - st * st / lens
    np.copyto(ctt, np.inf, where=ctt <= 0.0)  # no slope to fit
    dy *= st / lens
    _interval_sums(pty, s, e, dty)
    dty -= dy
    _square_sums(dty, sq)
    q -= sq / ctt


def _linear_rows(dataset: FunctionalDataset, prefix):
    """The linear row builder of ``dataset`` (see :func:`_blocked_rows`),
    from its :func:`_sse_prefix` and :func:`_linear_prefix`: the one path by
    which both the linear table and the dynamic program's linear row slabs
    are made, so a slab has the bits of the table's rows."""
    _, p1, p2 = prefix
    _, pt, ptt, pty = _linear_prefix(dataset)
    return _blocked_rows(dataset.n, dataset.m, 2, 2,
                         partial(_linear_block, p1, p2, pt, ptt, pty.T))


def _linear_entries(dataset: FunctionalDataset, s: np.ndarray,
                    e: np.ndarray) -> np.ndarray:
    """Linear entries of 1-based intervals with the bits of
    ``build_linear_table(dataset)``, as :func:`_entries` prices SSE entries.

    Only the two sums over the functions depend on the layout of the
    interval sums, and both are taken by :func:`_square_sums` over a
    C-ordered n x 1 x N array, with the lone-cell pairing.  Every other
    step, St, Ctt, St/len, the +inf of Ctt <= 0, the clamp and the pins at
    lengths 1 and 2, is elementwise, so repeating it cell by cell gives the
    table's bits.
    """
    step = max(1, _GATHER_BYTES // (8 * dataset.n))
    if s.size > step:
        return np.concatenate([_linear_entries(dataset, s[a:a + step],
                                               e[a:a + step])
                               for a in range(0, s.size, step)])
    _, p1, p2 = _data_prefix(dataset)
    _, pt, ptt, pty = _linear_prefix(dataset)
    lens = e - s + 1.0
    dy = _interval_columns(_prefix_rows(dataset, p1), s, e)
    q = p2[e] - p2[s - 1]
    sq = np.empty((1, q.size))
    _sse_kernel(dy[:, None], lens, sq, q[None])
    st = pt[e] - pt[s - 1]
    ctt = (ptt[e] - ptt[s - 1]) - st * st / lens
    ctt[ctt <= 0.0] = np.inf
    dy *= st / lens
    dty = _interval_columns(pty, s, e)
    dty -= dy
    _square_sums(dty[:, None], sq)
    q -= sq[0] / ctt
    np.maximum(q, 0.0, out=q)
    q[lens <= 2.0] = 0.0
    return q


def build_linear_table(dataset: FunctionalDataset) -> CostTable:
    """Residual SSE of the best per-segment line fit of each function against
    the grid, for every interval.

    The residual is the SSE term minus sum_i Cty_i^2 / Ctt, with
    Ctt = Stt - St^2/len and Cty_i = Sty_i - St Sy_i / len from interval sums
    of the centred grid t and functions y_i.  Intervals of length 1 or 2 are
    exactly interpolated, so their cost is pinned to 0.
    """
    m = dataset.m
    table = _linear_rows(dataset, _data_prefix(dataset))(0, m, _table_array(m))
    return CostTable(m=m, kind=CostKind.LINEAR, values=_readonly(table))
