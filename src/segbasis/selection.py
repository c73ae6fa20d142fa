"""Choosing the number of segments by the leave-one-out error estimate.

Two strategies:

* ``STANDARD_THEN_LOO`` -- solve for the SSE-optimal partition at every k,
  then score each one with the leave-one-out estimate and keep the k with the
  smallest score.  Nothing stops these partitions from containing singleton
  segments, whose score is infinite, so this variant tends to settle on few
  segments when the data is noisy.
* ``FULL_LOO`` -- run the dynamic program directly on the leave-one-out cost
  table (it is additive too).  Singletons are then never selected, and the
  per-k scores are the best achievable.

Both are one routine, :func:`select_k`, over a prebuilt SSE table of the
dataset: the strategy only decides which cost the dynamic program minimizes
and which one scores its partitions.  The leave-one-out table is built only
for ``FULL_LOO``, whose dynamic program needs every entry; the standard
sweep prices its partitions' leave-one-out totals from the SSE entries.  A
caller that needs both strategies builds the SSE table once and passes it to
both sweeps.  ``select_k_standard`` and ``select_k_full_loo`` build the
table from a dataset and call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite

import numpy as np

from .core import FunctionalDataset, Segmentation
from .costs import (CostTable, build_sse_table, loo_partition_cost,
                    loo_table, partition_cost)
from .solver import solve_all


class SelectionStrategy(Enum):
    STANDARD_THEN_LOO = "standard"
    FULL_LOO = "full-loo"


@dataclass(frozen=True)
class SelectionRecord:
    """Scores for one segment count.  ``segmentation`` is None when no
    finite-cost partition exists at this k (full-l.o.o. with k > m/2)."""

    k: int
    segmentation: Segmentation | None
    sse_total: float
    loo_total: float


@dataclass(frozen=True)
class SelectionReport:
    strategy: SelectionStrategy
    records: tuple[SelectionRecord, ...]
    selected_k: int
    degenerate: bool = False

    @property
    def selected(self) -> SelectionRecord:
        return self.records[self.selected_k - 1]


def default_k_max(m: int) -> int:
    """Largest segment count tried when none is given: capped at 64 and at
    m/2 so the full-l.o.o. variant stays feasible."""
    return min(64, max(1, m // 2))


def _pick(records: list[SelectionRecord]) -> tuple[int, bool]:
    best_k, best = 0, np.inf
    for rec in records:
        if isfinite(rec.loo_total) and rec.loo_total < best:
            best_k, best = rec.k, rec.loo_total
    if best_k == 0:
        return 1, True  # every score infinite; fall back to one segment
    return best_k, False


def select_k(
    sse: CostTable, strategy: SelectionStrategy, k_max: int
) -> SelectionReport:
    """Sweep k = 1..k_max on a prebuilt SSE table of one dataset and pick the
    k with the smallest leave-one-out total.

    The strategy names the cost the dynamic program optimizes; the other one
    only scores the optimal partitions.
    """
    standard = strategy is SelectionStrategy.STANDARD_THEN_LOO
    objective = sse if standard else loo_table(sse)
    price = loo_partition_cost if standard else partition_cost
    records = []
    for res in solve_all(objective, k_max):
        other = (np.inf if res.segmentation is None
                 else price(sse, res.segmentation))
        sse_total, loo_total = (res.cost, other) if standard else (other, res.cost)
        records.append(SelectionRecord(k=res.k, segmentation=res.segmentation,
                                       sse_total=sse_total, loo_total=loo_total))
    selected, degenerate = _pick(records)
    return SelectionReport(strategy=strategy, records=tuple(records),
                           selected_k=selected, degenerate=degenerate)


def _select(
    dataset: FunctionalDataset, strategy: SelectionStrategy, k_max: int | None
) -> SelectionReport:
    if k_max is None:
        k_max = default_k_max(dataset.m)
    return select_k(build_sse_table(dataset), strategy, k_max)


def select_k_standard(
    dataset: FunctionalDataset, k_max: int | None = None
) -> SelectionReport:
    """Score the SSE-optimal partitions with the leave-one-out estimate."""
    return _select(dataset, SelectionStrategy.STANDARD_THEN_LOO, k_max)


def select_k_full_loo(
    dataset: FunctionalDataset, k_max: int | None = None
) -> SelectionReport:
    """Optimize the leave-one-out estimate inside the dynamic program."""
    return _select(dataset, SelectionStrategy.FULL_LOO, k_max)
