"""Choosing the number of segments by the leave-one-out error estimate.

Two strategies:

* ``STANDARD_THEN_LOO`` -- solve for the SSE-optimal partition at every k,
  then score each one with the leave-one-out estimate and keep the k with the
  smallest score.  Nothing stops these partitions from containing singleton
  segments, whose score is infinite, so this variant tends to settle on few
  segments when the data is noisy.
* ``FULL_LOO`` -- run the dynamic program directly on the leave-one-out
  costs (they are additive too).  Singletons are then never selected, and
  the per-k scores are the best achievable.

Both are one routine, :func:`select_k`, over the SSE costs of the dataset:
the strategy only decides which cost the dynamic program minimizes and which
one scores its partitions.  The costs come from the dataset itself or from a
prebuilt SSE table, with the same bits.  From the dataset no m x m table is
built at all: the dynamic program builds the SSE rows a slab at a time
(``FULL_LOO``'s scales them), and the partitions' other totals are priced
from their SSE entries.  A caller that needs both strategies can build the
SSE table once and pass it to both sweeps.  :func:`price_bases` is the one
rule for the totals a basis reports given the cost its dynamic program
minimized, shared with ``fit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Sequence

import numpy as np

from .core import CostKind, FunctionalDataset, Segmentation
from .costs import CostTable, partition_totals
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


def price_bases(sse: CostTable | FunctionalDataset, kind: CostKind,
                bases: Sequence[tuple[Segmentation | None, float]]
                ) -> list[dict[str, float]]:
    """Totals each basis reports, given the ``objective`` its dynamic program
    minimized over a table of ``kind``, and the SSE table of the same data
    (or the dataset itself, when no SSE table is built).

    The minimized cost is reported as is; the SSE kind adds the basis's
    leave-one-out total and the others its SSE total, priced for all bases
    at once.  The linear kind reports no leave-one-out total: the
    per-segment inflation factor does not apply to it.  No basis (an
    infeasible k) costs +inf either way.
    """
    scored = CostKind.LOO if kind is CostKind.SSE else CostKind.SSE
    priced = iter(partition_totals(
        sse, [seg for seg, _ in bases if seg is not None], scored))
    name = {CostKind.SSE: "sse_total", CostKind.LOO: "loo_total",
            CostKind.LINEAR: "objective_total"}[kind]
    other = "loo_total" if scored is CostKind.LOO else "sse_total"
    return [{"sse_total": np.inf, "loo_total": np.inf} if seg is None
            else {name: objective, other: next(priced)}
            for seg, objective in bases]


def select_k(
    sse: CostTable | FunctionalDataset, strategy: SelectionStrategy, k_max: int
) -> SelectionReport:
    """Sweep k = 1..k_max on the SSE costs of one dataset and pick the k with
    the smallest leave-one-out total.

    ``sse`` is the dataset, which the sweep builds its SSE rows from a slab
    at a time, or a prebuilt SSE table of it; both give the same report.

    The strategy names the cost the dynamic program optimizes; the other one
    only scores the optimal partitions.
    """
    standard = strategy is SelectionStrategy.STANDARD_THEN_LOO
    results = solve_all(sse, k_max, loo=not standard)
    totals = price_bases(sse, CostKind.SSE if standard else CostKind.LOO,
                         [(res.segmentation, res.cost) for res in results])
    records = [SelectionRecord(k=res.k, segmentation=res.segmentation, **t)
               for res, t in zip(results, totals)]
    selected, degenerate = _pick(records)
    return SelectionReport(strategy=strategy, records=tuple(records),
                           selected_k=selected, degenerate=degenerate)
