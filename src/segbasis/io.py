"""CSV ingestion of sampled function sets and canonical JSON result emission.

CSV orientation: one function per row, one sampling point per column, with an
optional leading grid row.  JSON output is canonical (sorted keys, compact
separators, shortest round-trip floats, infinities as the strings "inf" and
"-inf") so identical documents serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .core import FunctionalDataset, new_dataset


def read_csv(path: str, has_grid_row: bool = False) -> FunctionalDataset:
    """Load a rectangular numeric CSV as a dataset.

    Without a grid row the grid defaults to 0, 1, ..., m-1.  Row and column
    numbers in diagnostics are 1-based file positions.
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


def write_csv(dataset: FunctionalDataset, path: str,
              include_grid_row: bool = True) -> None:
    """Export a dataset in the format :func:`read_csv` accepts.

    Floats are written with their shortest round-trip representation, so a
    read-back reproduces the values bit for bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if include_grid_row:
            writer.writerow([repr(x) for x in dataset.grid.tolist()])
        for row in dataset.values.tolist():
            writer.writerow([repr(x) for x in row])


@dataclass(frozen=True)
class ResultDocument:
    """One CLI invocation's result, ready for canonical serialization.

    ``records`` is a list of row mappings: one per fitted k for fit/select,
    one per basis for the experiment command.  Optional fields are omitted
    from the JSON when unset.
    """

    command: str
    source: Mapping[str, Any]
    records: tuple[Mapping[str, Any], ...]
    cost: str | None = None
    k: int | None = None
    k_max: int | None = None
    strategy: str | None = None
    selected_k: int | None = None
    degenerate: bool = False
    infeasible: bool = False
    coefficients: tuple[tuple[float, ...], ...] | None = None
    timing: Mapping[str, float] | None = None

    def to_mapping(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "command": self.command,
            "source": dict(self.source),
            "records": [dict(r) for r in self.records],
        }
        for key in ("cost", "k", "k_max", "strategy", "selected_k",
                    "coefficients", "timing"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.degenerate:
            doc["degenerate"] = True
        if self.infeasible:
            doc["infeasible"] = True
        return doc


def _real(value: float) -> float | str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _jsonable(value: Any) -> Any:
    """Recursively convert to plain JSON types; non-finite reals to strings."""
    # exact builtin types first: they are nearly every value, and the
    # abstract Mapping check is slow
    kind = type(value)
    if kind is float:
        return _real(value)
    if kind is int or kind is str or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if kind is dict or isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _real(float(value))
    return value


def render_result(doc: ResultDocument) -> str:
    """Canonical JSON text: byte-stable for equal documents."""
    payload = _jsonable(doc.to_mapping())
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_result(doc: ResultDocument, path: str | None) -> None:
    """Serialize to ``path``, or to stdout when path is None."""
    text = render_result(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
