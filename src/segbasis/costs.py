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
leave-one-out rule once, in :func:`_loo_scale`.  One row builder,
:func:`_sse_rows`, makes both the whole SSE table and, through
:func:`_row_slabs`, the row slabs the dynamic program reads from a dataset,
so a table-free fill has the table's bits.  :func:`partition_totals` prices
given segmentations from their SSE entries alone, with or without the SSE
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


@dataclass(frozen=True)
class CostTable:
    """Aggregated segment costs for one dataset.

    ``values[j-1, l-1]`` holds Q(j..l) for j <= l; entries below the diagonal
    are unused and set to +inf so the solver can index the array directly.
    The library builds SSE and linear tables; leave-one-out costs are scaled
    from SSE costs where they are read.
    """

    m: int
    kind: CostKind
    values: np.ndarray  # (m, m), upper triangle meaningful


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


def _loo_scale(lens: np.ndarray, sse: np.ndarray, out=None) -> np.ndarray:
    """Leave-one-out costs of intervals from their lengths and SSE entries:
    the SSE scaled by (len/(len-1))^2, and +inf where len < 2 (there is
    nothing left to predict a lone point from)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.multiply((lens / (lens - 1.0)) ** 2, sse, out=out)
    q[lens < 2.0] = np.inf
    return q


def partition_totals(sse: CostTable | FunctionalDataset,
                     segs: Sequence[Segmentation], kind: CostKind) -> list[float]:
    """SSE or leave-one-out totals (``kind``) of segmentations from the SSE
    entries of their segments: the library's one pricing rule.

    ``sse`` is an SSE table, or the dataset when no table is built: the
    entries are then priced by the table's own kernel in one pass, clamped
    and pinned like the table (:func:`_sse_entries`), with the same bits.
    The leave-one-out entries come from :func:`_loo_scale`, in one call for
    all segmentations, with the bits the leave-one-out dynamic program
    reads.  Each total is summed from the last segment to the first,
    starting from 0.0, as the dynamic program sums, so it has the bits of
    the solver's objective.  Linear fits report their objective instead.
    """
    if kind is CostKind.LINEAR:
        raise ValueError("linear totals are not priced from SSE entries")
    table = isinstance(sse, CostTable)
    if table and sse.kind is not CostKind.SSE:
        raise ValueError(f"expected an SSE table, got {sse.kind.value}")
    for seg in segs:
        if seg.m != sse.m:
            raise ValueError(f"segmentation covers {seg.m} points, "
                             f"{'table' if table else 'dataset'} {sse.m}")
    s = np.array([j for seg in segs for j in seg.starts], dtype=np.intp)
    e = np.array([l for seg in segs for l in seg.ends], dtype=np.intp)
    if table:
        costs = sse.values[s - 1, e - 1]
    else:
        costs = _sse_entries(sse, s, e)
    if kind is CostKind.LOO:
        costs = _loo_scale(e - s + 1.0, costs)
    return _right_sums(costs, [seg.k for seg in segs])


def _prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, with a leading zero."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


def _interval_sums(p: np.ndarray, s: int, e: int, out: np.ndarray) -> np.ndarray:
    """``out[..., r, c]`` = sum of points s+r .. s+c (0-based) from prefix
    sums ``p`` over the last axis.

    The end sums are copied in and the start column subtracted in place:
    the same one subtraction per entry as an ``np.subtract`` that
    broadcasts both operands, which is the slower path with numpy 2.4.
    """
    np.copyto(out, p[..., None, s + 1:])
    out -= p[..., s:e, None]
    return out


def _blocked_rows(n: int, m: int, n_tensors: int, pinned: int, fill):
    """Row builder of an m x m cost table: ``rows(s0, e0, out)`` writes the
    rows s0..e0-1 over the columns s0..m-1 into the (e0-s0) x (m-s0) array
    ``out`` and returns it.  A whole table is ``rows(0, m, out)``.

    The rows are built a block of start rows s..e-1 at a time, b rows a
    block for the budget ``_BLOCK_BYTES`` at the width m - s0.
    ``fill(s, e, lens, tensors, scratch, q)`` writes the costs of intervals
    ending at columns s..m-1 into the view ``q``, given the interval lengths
    (1 where empty) and buffers: ``n_tensors`` of n x b x w and one of
    b x w, w = m - s.  Then noise below 0 is clamped, lengths 1..``pinned``
    are set to exactly 0 and the columns left of the diagonal to +inf.  The
    buffers are allocated once and reused by every call, and the lengths and
    masks are Toeplitz views of one row each: row r of a block starts r
    entries further left in it, so entry (r, c) is of interval length
    c - r + 1.
    """
    cells = _BLOCK_BYTES // (8 * max(n, 1))  # the b x w cells a block may hold
    top = max(1, min(m, cells))  # the most rows a block has
    rel = np.arange(1 - top, m + 1)  # interval lengths 1-top .. m
    lens, empty, short = (
        sliding_window_view(row, m)[top::-1]
        for row in (np.maximum(rel, 1).astype(np.float64), rel < 1,
                    (rel >= 1) & (rel <= pinned)))
    tensors = [np.empty(max(n * m, _BLOCK_BYTES // 8)) for _ in range(n_tensors)]
    scratch = np.empty(max(m, cells))

    def rows(s0: int, e0: int, out: np.ndarray) -> np.ndarray:
        b = max(1, min(e0 - s0, cells // (m - s0)))
        for s in range(s0, e0, b):
            e = min(s + b, e0)
            bb, w = e - s, m - s
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


def _sse_kernel(d, lens, sq, q) -> None:
    """S2 - sum_i S1_i^2 / len in place in ``q``, which holds the S2 sums,
    from the n x b x w interval sums ``d`` of each function; ``sq`` is b x w
    scratch.  ``d`` must be C-ordered: ``einsum`` then adds the functions
    in sequence, so an entry's bits do not depend on the block it is in.
    Another order would change the last bit of some entries, so it raises."""
    if not d.flags.c_contiguous:
        raise ValueError("interval sums must be C-ordered")
    np.einsum("ibl,ibl->bl", d, d, out=sq)
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
    prefix sums and each |S2| at most the last, also left of the diagonal."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = dataset.values - dataset.values.mean(axis=1, keepdims=True)
        p1, p2 = _prefix(y), _prefix((y * y).sum(axis=0))
        _require_finite((np.ptp(p1, axis=-1) ** 2).sum() + p2[-1])
    return y, p1, p2


def _sse_entries(dataset: FunctionalDataset, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SSE entries Q(s..e) of 1-based intervals, without the table.

    The interval sums are gathered as one row of entries, with the same one
    subtraction each as the table's, and priced by the table's own
    :func:`_sse_kernel`; the gather is copied to C order first, as the
    kernel needs.  So each entry has the bits of ``build_sse_table(dataset)``,
    clamped at 0 and pinned to 0 at length 1 like it.  Each distinct
    interval is priced once: the optimal bases of a sweep share most of
    their segments (195-260 distinct of 2080 on the default synthetic data,
    n=124, m=256, k=1..64).
    """
    key, inverse = np.unique(s * (dataset.m + 1) + e, return_inverse=True)
    s, e = np.divmod(key, dataset.m + 1)
    _, p1, p2 = _sse_prefix(dataset)
    lens = (e - s + 1.0)[None, :]
    d = np.ascontiguousarray(p1[:, e] - p1[:, s - 1])[:, None, :]
    q = (p2[e] - p2[s - 1])[None, :]
    _sse_kernel(d, lens, np.empty_like(q), q)
    out = np.maximum(q[0], 0.0)
    out[e == s] = 0.0
    return out[inverse]


def _sse_rows(dataset: FunctionalDataset):
    """The SSE row builder of ``dataset`` (see :func:`_blocked_rows`): the
    one path by which both the table and the dynamic program's row slabs
    are made, so a slab has the bits of the table's rows."""
    _, p1, p2 = _sse_prefix(dataset)
    return _blocked_rows(dataset.n, dataset.m, 1, 1, partial(_sse_block, p1, p2))


def build_sse_table(dataset: FunctionalDataset) -> CostTable:
    """Build the aggregated SSE table for all functions of ``dataset``.

    The diagonal is exactly 0, cancellation noise is clamped at 0 and the
    lower triangle is +inf.
    """
    m = dataset.m
    table = _sse_rows(dataset)(0, m, np.empty((m, m)))
    return CostTable(m=m, kind=CostKind.SSE, values=_readonly(table))


def _loo_rows(sse_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Leave-one-out entries of a b x w block of SSE rows that starts on the
    diagonal (row r, column c is an interval of len c - r + 1), into ``out``.

    The factor row (len/(len-1))^2 for len = 1-b..w comes from
    :func:`_loo_scale` itself, and the block is multiplied by a Toeplitz
    view of it (row stride back one length, column stride forward one).
    The factor is +inf below len 2, and inf * 0 is NaN on the diagonal, so
    the diagonal and the lower triangle are set to +inf where the factor is
    after the multiply.
    """
    b, w = sse_rows.shape
    factor = _loo_scale(np.arange(1.0 - b, w + 1.0), np.ones(b + w))
    f = np.lib.stride_tricks.sliding_window_view(factor, w)[:0:-1]
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal
        np.multiply(f, sse_rows, out=out)
    np.copyto(out[:, :b], np.inf, where=f[:, :b] == np.inf)
    return out


def _row_slabs(source: CostTable | FunctionalDataset, loo: bool):
    """``slab(s, e, out)``: the cost rows s..e-1 over the columns s..m-1
    into ``out``, the one way the dynamic program reads its costs.

    ``source`` is a cost table, whose rows are copied, or a dataset, whose
    SSE rows are built by :func:`_sse_rows`, the table build's own path, so
    they equal the table's rows bit for bit without the m x m table.  With
    ``loo`` the SSE rows are scaled by :func:`_loo_rows`, so the fill reads
    leave-one-out costs without a leave-one-out table.
    """
    if isinstance(source, FunctionalDataset):
        build = _sse_rows(source)
        return (lambda s, e, out: _loo_rows(build(s, e, out), out)) if loo else build
    if loo and source.kind is not CostKind.SSE:
        raise ValueError(f"expected an SSE table, got {source.kind.value}")
    values = source.values
    if loo:
        return lambda s, e, out: _loo_rows(values[s:e, s:], out)
    return lambda s, e, out: np.copyto(out, values[s:e, s:])


def build_linear_table(dataset: FunctionalDataset) -> CostTable:
    """Residual SSE of the best per-segment line fit of each function against
    the grid, for every interval.

    The residual is the SSE term minus sum_i Cty_i^2 / Ctt, with
    Ctt = Stt - St^2/len and Cty_i = Sty_i - St Sy_i / len from interval sums
    of the centred grid t and functions y_i.  Intervals of length 1 or 2 are
    exactly interpolated, so their cost is pinned to 0.
    """
    y, py, pyy = _sse_prefix(dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        t = dataset.grid - dataset.grid.mean()
        pt, ptt, pty = _prefix(t), _prefix(t * t), _prefix(y * t)
        # as in _sse_prefix, |Cty_i| <= ptp(pty_i) + ptp(pt) ptp(py_i), also in
        # the empty cells left of the diagonal, whose lengths read 1
        st, ty, y1 = (np.ptp(p, axis=-1) for p in (pt, pty, py))
        _require_finite(st * st, ptt[-1], ((ty + st * y1) ** 2).sum())

    def fill(s, e, lens, tensors, sq, q):
        _sse_block(py, pyy, s, e, lens, tensors, sq, q)
        dy, dty = tensors
        st = _interval_sums(pt, s, e, np.empty(sq.shape))
        ctt = _interval_sums(ptt, s, e, np.empty(sq.shape)) - st * st / lens
        np.copyto(ctt, np.inf, where=ctt <= 0.0)  # no slope to fit
        dy *= st / lens
        _interval_sums(pty, s, e, dty)
        dty -= dy
        np.einsum("ibl,ibl->bl", dty, dty, out=sq)
        q -= sq / ctt

    m = dataset.m
    table = _blocked_rows(dataset.n, m, 2, 2, fill)(0, m, np.empty((m, m)))
    return CostTable(m=m, kind=CostKind.LINEAR, values=_readonly(table))
