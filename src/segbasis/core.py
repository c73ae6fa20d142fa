"""Shared domain types: sampled function sets, contiguous segmentations, and
piecewise-constant models fitted to them.

Index convention: segment boundaries are 1-based and inclusive, so segment j
of a :class:`Segmentation` covers grid indices ``start_j..end_j`` with
``start_1 = 1`` and ``end_k = m``.  Conversion to 0-based numpy slices happens
inside this module only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import lt

import numpy as np


class CostKind(Enum):
    """Which additive segment cost is meant.  A table holds SSE or linear
    costs; leave-one-out costs are scaled from SSE costs where they are
    read."""

    SSE = "sse"
    LOO = "loo"
    LINEAR = "linear"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FunctionalDataset:
    """n functions sampled on a shared strictly increasing grid of m points.

    ``values[i, l]`` is the i-th function evaluated at ``grid[l]``.  Instances
    are immutable (arrays are marked read-only) and safe to share.
    """

    grid: np.ndarray
    values: np.ndarray
    n: int
    m: int


@dataclass(frozen=True)
class Segmentation:
    """An ordered partition of ``{1, ..., m}`` into k contiguous intervals.

    ``ends`` holds the 1-based inclusive end index of each segment; the last
    entry is m, so m is derived from it and cannot disagree with it.
    Segment j starts at ``ends[j-1] + 1`` (or 1 for the first segment).
    Construction raises ValueError unless the ends are non-empty, strictly
    increasing and at least 1, so every segment has a point.
    """

    ends: tuple[int, ...]

    def __post_init__(self) -> None:
        ends = self.ends
        if not ends:
            raise ValueError("ends is empty")
        if not all(map(lt, ends, ends[1:])):
            raise ValueError("ends not strictly increasing")
        if ends[0] < 1:
            raise ValueError("segment end out of range")

    @property
    def m(self) -> int:
        return self.ends[-1]

    @property
    def k(self) -> int:
        return len(self.ends)

    @property
    def starts(self) -> tuple[int, ...]:
        return (1,) + tuple(e + 1 for e in self.ends[:-1])

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(e - s + 1 for s, e in zip(self.starts, self.ends))

    def intervals(self) -> list[tuple[int, int]]:
        """All segments as (start, end) pairs, 1-based inclusive."""
        return list(zip(self.starts, self.ends))

    def slices(self) -> list[slice]:
        """The same segments as 0-based numpy column slices."""
        return [slice(s - 1, e) for s, e in self.intervals()]


@dataclass(frozen=True)
class PiecewiseModel:
    """Per-segment means of each function: the coefficients of the
    piecewise-constant approximation induced by ``segmentation``."""

    segmentation: Segmentation
    coefficients: np.ndarray  # shape (n, k)


def new_dataset(grid, values) -> FunctionalDataset:
    """Validate raw grid/value arrays and build a :class:`FunctionalDataset`.

    Rejects non-increasing grids, ragged value rows, non-numeric values,
    values of other than one or two dimensions and non-finite entries, each
    with its own diagnostic.
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("grid must be a non-empty 1-d sequence")
    try:
        v = np.asarray(values)
    except ValueError as exc:  # refused only for rows of unequal lengths
        raise ValueError("ragged rows: value rows have unequal lengths") from exc
    if v.dtype.kind not in "biuf":  # strings and objects would convert
        raise ValueError("non-numeric entry in values")
    v = v.astype(np.float64, copy=False)
    if v.ndim == 1:
        v = v.reshape(1, -1)
    if v.ndim != 2:
        raise ValueError(f"values must be 1-d or 2-d, got {v.ndim}-d")
    m = g.size
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite entry in grid")
    # compare neighbours, not their difference: finite grids near the float
    # range would overflow np.diff to -inf and warn
    if np.any(g[1:] <= g[:-1]):
        raise ValueError("grid not strictly increasing")
    if v.shape[1] != m:
        raise ValueError(
            f"row length {v.shape[1]} does not match grid length {m}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entry in values")
    return FunctionalDataset(
        grid=_readonly(g.copy()), values=_readonly(v.copy()),
        n=v.shape[0], m=m,
    )


def segmentation_from_ends(ends, m: int) -> Segmentation:
    """Validate a list of 1-based inclusive segment ends covering ``{1..m}``:
    the :class:`Segmentation` checks the ends, and this the grid size."""
    seg = Segmentation(ends=tuple(int(x) for x in ends))
    if m < 1:
        raise ValueError("m must be at least 1")
    if seg.m > m:
        raise ValueError("segment end out of range")
    if seg.m != m:
        raise ValueError(f"last end {seg.m} does not equal m={m}")
    return seg


def fit_model(dataset: FunctionalDataset, seg: Segmentation) -> PiecewiseModel:
    """Fit the piecewise-constant model: coefficient (i, j) is the mean of
    function i over segment j."""
    if seg.m != dataset.m:
        raise ValueError(
            f"segmentation covers {seg.m} points but dataset has {dataset.m}"
        )
    coef = np.empty((dataset.n, seg.k), dtype=np.float64)
    for j, sl in enumerate(seg.slices()):
        coef[:, j] = dataset.values[:, sl].mean(axis=1)
    return PiecewiseModel(segmentation=seg, coefficients=_readonly(coef))


def reconstruct(dataset: FunctionalDataset, model: PiecewiseModel) -> np.ndarray:
    """Evaluate the piecewise-constant approximation on the dataset's grid.

    Entry (i, l) is the coefficient of the segment containing l.  The total
    squared deviation from ``dataset.values`` is the segmentation's
    sum-of-squared-errors cost.
    """
    seg = model.segmentation
    if seg.m != dataset.m:
        raise ValueError(
            f"model covers {seg.m} points but dataset has {dataset.m}"
        )
    if model.coefficients.shape != (dataset.n, seg.k):
        raise ValueError("coefficient matrix shape does not match model")
    return np.repeat(model.coefficients, seg.lengths, axis=1)
