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
from typing import Any, Mapping

import numpy as np

from .core import FunctionalDataset, new_dataset


def read_csv(path: str, has_grid_row: bool = False) -> FunctionalDataset:
    """Load a rectangular numeric CSV as a dataset.

    Cells are separated by commas and may be wrapped in double quotes.  Each
    holds one float as Python spells it (sign, exponent, ``inf``, ``nan``,
    surrounding whitespace), except that underscores and non-ASCII digits are
    rejected.  Blank lines are skipped.  Without a grid row the grid defaults
    to 0, 1, ..., m-1.  Row and column numbers in diagnostics are 1-based
    file positions; a row is numbered by the file line it starts on.
    """
    with open(path, newline="") as fh:
        # numpy only warns about a file without rows
        if not any(line.strip("\r\n") for line in fh):
            raise ValueError("empty CSV: no rows")
        fh.seek(0)
        try:
            table = np.loadtxt(fh, delimiter=",", quotechar='"',
                               comments=None, ndmin=2)
        except ValueError:
            # walk the file again only to name the first bad row
            _raise_first_bad_row(path)
            raise
    if has_grid_row:
        if len(table) < 2:
            raise ValueError("no data rows after the grid row")
        grid, values = table[0], table[1:]
    else:
        grid, values = np.arange(table.shape[1], dtype=np.float64), table
    return new_dataset(grid, values)


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads the cell as a float: Python's spelling
    without underscores and non-ASCII digits."""
    core = cell.strip()
    if not core.isascii() or "_" in core:
        return False
    try:
        float(core)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(path: str) -> None:
    """Raise the diagnosis of the first row that is ragged or holds a
    non-numeric cell, numbered by the file line the row starts on."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width, lineno = None, 1
        for row in reader:
            if row:
                width = len(row) if width is None else width
                if len(row) != width:
                    raise ValueError(f"ragged row {lineno}")
                for col, cell in enumerate(row, start=1):
                    if not _is_number(cell):
                        raise ValueError(
                            f"non-numeric value {cell.strip()!r} at row "
                            f"{lineno}, column {col}"
                        )
            lineno = reader.line_num + 1


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
        items = value.tolist()
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return items  # no infinity to spell: one conversion
        return [_jsonable(v) for v in items]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _real(float(value))
    return value


def render_result(doc: Mapping[str, Any]) -> str:
    """Canonical JSON text: byte-stable for equal documents."""
    payload = _jsonable(doc)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_result(doc: Mapping[str, Any], path: str | None) -> None:
    """Serialize to ``path``, or to stdout when path is None."""
    text = render_result(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
