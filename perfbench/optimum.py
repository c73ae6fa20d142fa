"""Independent plain-numpy optimum, to check that a job's answer is optimal.

The cost tables are built from prefix sums of centred data, which shares no
code with the program's running-mean build.  ``table[j, l]`` is the cost of
the segment of 0-based points j..l, summed over the curves; entries below the
diagonal are +inf.  The DP has the program's form: F(p, j) is the best cost of
splitting points j..m-1 into p segments, and ties go to the leftmost end of
the first segment, which gives the lexicographically first optimal
partition.
"""

from __future__ import annotations

import numpy as np

CHUNK = 128  # rows per block: temporaries stay small and in cache, so the
# check adds nothing to the worker's peak memory beyond one m x m table


def _prefix(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


def _blocks(m: int):
    """Row blocks (s, e) and the segment lengths l-j+1 of rows s..e-1."""
    idx = np.arange(m, dtype=np.float64)
    for s in range(0, m, CHUNK):
        e = min(s + CHUNK, m)
        yield s, e, np.maximum(idx[None, :] - idx[s:e, None] + 1.0, 1.0)


def _span(p: np.ndarray, s: int, e: int) -> np.ndarray:
    """Sums over j..l for rows j = s..e-1 and every l: p[l+1] - p[j]."""
    return p[None, 1:] - p[s:e, None]


def _finish(acc: np.ndarray, pin: int) -> np.ndarray:
    """Clamp cancellation noise, pin segments shorter than ``pin`` to 0 and
    set the lower triangle to +inf."""
    m = acc.shape[0]
    np.maximum(acc, 0.0, out=acc)
    for d in range(pin):
        acc[np.arange(m - d), np.arange(d, m)] = 0.0
    acc[np.tril_indices(m, -1)] = np.inf
    return acc


def sse_table(values: np.ndarray) -> np.ndarray:
    """Within-segment sum of squared deviations from the segment mean."""
    y = values - values.mean(axis=1, keepdims=True)
    py, pyy = _prefix(y), _prefix((y * y).sum(axis=0))
    acc = np.empty((y.shape[1], y.shape[1]))
    for s, e, lengths in _blocks(y.shape[1]):
        block = _span(pyy, s, e)
        for row in py:
            sy = _span(row, s, e)
            block -= sy * sy / lengths
        acc[s:e] = block
    return _finish(acc, 1)


def loo_table(sse: np.ndarray) -> np.ndarray:
    """Leave-one-out cost, in place: SSE times (len/(len-1))^2; singletons
    are +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, e, lengths in _blocks(sse.shape[0]):
            sse[s:e] *= (lengths / (lengths - 1.0)) ** 2
    np.fill_diagonal(sse, np.inf)
    return sse


def linear_table(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Residual SSE of the per-segment least-squares line against the grid;
    segments of one or two points are fitted exactly."""
    t = grid - grid.mean()
    y = values - values.mean(axis=1, keepdims=True)
    pt, ptt = _prefix(t), _prefix(t * t)
    py, pyy, pty = _prefix(y), _prefix(y * y), _prefix(t * y)
    acc = np.empty((t.size, t.size))
    for s, e, lengths in _blocks(t.size):
        st = _span(pt, s, e)
        ctt = _span(ptt, s, e) - st * st / lengths
        usable = ctt > 0.0
        ctt[~usable] = 1.0
        block = np.zeros_like(ctt)
        for i in range(y.shape[0]):
            sy = _span(py[i], s, e)
            cty = _span(pty[i], s, e) - st * sy / lengths
            cyy = _span(pyy[i], s, e) - sy * sy / lengths
            block += np.maximum(cyy - np.where(usable, cty * cty / ctt, 0.0),
                                0.0)
        acc[s:e] = block
    return _finish(acc, 2)


class Optimum:
    """Optimal costs and partitions for every k up to ``k_max``."""

    def __init__(self, table: np.ndarray, k_max: int) -> None:
        m = table.shape[0]
        self.m = m
        F = np.full((k_max, m), np.inf)
        S = np.zeros((k_max, m), dtype=np.int64)  # 0-based last point of
        F[0] = table[:, m - 1]                     # the first segment
        S[0] = m - 1
        block = np.empty((min(CHUNK, m), m))
        for p in range(2, k_max + 1):
            rest = np.full(m, np.inf)
            rest[:-1] = F[p - 2, 1:]  # rest[l] = F(p-1, l+1)
            for s in range(0, m, CHUNK):
                e = min(s + CHUNK, m)
                # a segment starting at j >= s ends at l >= s
                b = block[: e - s, : m - s]
                np.add(table[s:e, s:], rest[s:], out=b)
                arg = b.argmin(axis=1)
                F[p - 1, s:e] = b[np.arange(e - s), arg]
                S[p - 1, s:e] = arg + s
        self.costs, self.splits = F[:, 0], S

    def cost(self, k: int) -> float:
        return float(self.costs[k - 1])

    def ends(self, k: int) -> list[int]:
        """1-based inclusive segment ends of the optimal k-partition."""
        ends, j = [], 0
        for p in range(k, 0, -1):
            last = int(self.splits[p - 1, j])
            ends.append(last + 1)
            j = last + 1
        return ends
