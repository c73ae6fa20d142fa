"""CSV parsing / writing and canonical JSON rendering."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import per_row_read_csv

from segbasis import (
    new_dataset,
    read_csv,
    render_result,
    write_csv,
    write_result,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_with_grid_row(tmp_path):
    ds = read_csv(_write(tmp_path, "0,1,2,3\n0,0,1,1\n"), has_grid_row=True)
    assert (ds.n, ds.m) == (1, 4)
    np.testing.assert_array_equal(ds.grid, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.values, [[0.0, 0.0, 1.0, 1.0]])


def test_read_without_grid_row(tmp_path):
    ds = read_csv(_write(tmp_path, "1,2\n3,4\n"))
    assert (ds.n, ds.m) == (2, 2)
    np.testing.assert_array_equal(ds.grid, [0.0, 1.0])
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])


def test_read_skips_blank_lines(tmp_path):
    ds = read_csv(_write(tmp_path, "1,2\n\n3,4\n\n"))
    assert ds.n == 2


def test_read_ragged(tmp_path):
    with pytest.raises(ValueError, match="ragged row 2"):
        read_csv(_write(tmp_path, "1,2\n3\n"))


def test_read_non_numeric(tmp_path):
    with pytest.raises(ValueError, match=r"non-numeric value 'x' at row 2, column 1"):
        read_csv(_write(tmp_path, "1,2\nx,4\n"))


def test_read_numbers_rows_by_file_line(tmp_path):
    with pytest.raises(ValueError, match="ragged row 3"):
        read_csv(_write(tmp_path, "1,2\n\n3\n"))
    with pytest.raises(ValueError, match=r"non-numeric value 'x' at row 4, column 2"):
        read_csv(_write(tmp_path, "1,2\n\n\n3,x\n"))


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "2.\u0665"])
def test_read_rejects_python_only_spellings(tmp_path, cell):
    # Python's float() accepts underscores and non-ASCII digits; the CSV
    # grammar does not
    with pytest.raises(ValueError,
                       match=f"non-numeric value {re.escape(repr(cell))} at row 2"):
        read_csv(_write(tmp_path, f"1,2\n3,{cell}\n"))


def test_read_empty(tmp_path):
    with pytest.raises(ValueError, match="empty CSV: no rows"):
        read_csv(_write(tmp_path, ""))


def test_read_grid_row_only(tmp_path):
    with pytest.raises(ValueError, match="no data rows after the grid row"):
        read_csv(_write(tmp_path, "0,1,2\n"), has_grid_row=True)


def test_read_bad_grid_propagates(tmp_path):
    with pytest.raises(ValueError, match="strictly increasing"):
        read_csv(_write(tmp_path, "0,0,1\n1,2,3\n"), has_grid_row=True)


@pytest.mark.parametrize("grid_row", [True, False])
def test_round_trip_is_bitwise(tmp_path, grid_row):
    rng = np.random.default_rng(17)
    grid = np.arange(12, dtype=float) if not grid_row else np.sort(
        rng.uniform(-5, 5, size=12)
    )
    ds = new_dataset(grid, rng.normal(size=(4, 12)) * 1e3)
    path = str(tmp_path / "roundtrip.csv")
    write_csv(ds, path, include_grid_row=grid_row)
    back = read_csv(path, has_grid_row=grid_row)
    np.testing.assert_array_equal(back.grid, ds.grid)
    np.testing.assert_array_equal(back.values, ds.values)


_PADS = ["", " ", "  ", "\t"]
_BAD_CELLS = ["x", "", "1e", "--1", "1.2.3", "0x10", "nan?", "1 2"]
_SPECIALS = ["inf", "-Infinity", "nan", "+NaN"]
_FORMATS = [repr, "{:e}".format, "{:E}".format, "{:.17g}".format, "{:+}".format]


@st.composite
def _cell(draw):
    kind = draw(st.integers(0, 40))
    if kind == 0:
        text = draw(st.sampled_from(_BAD_CELLS))
    elif kind == 1:
        text = draw(st.sampled_from(_SPECIALS))
    else:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        text = draw(st.sampled_from(_FORMATS))(x)
    text = draw(st.sampled_from(_PADS)) + text + draw(st.sampled_from(_PADS))
    if draw(st.booleans()):
        text = f'"{text}"' + draw(st.sampled_from(["", " "]))
    return text


@st.composite
def _csv_file(draw):
    """CSV text, and the file line each non-blank row starts on."""
    width = draw(st.integers(1, 5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines, starts = [], []
    for _ in range(draw(st.integers(1, 5))):
        lines += [""] * draw(st.integers(0, 2))  # blank lines
        if draw(st.integers(0, 12)) == 0:
            cells = draw(st.sampled_from([[" "], ["1"] * (width + 1), ["1"]]))
        else:
            cells = draw(st.lists(_cell(), min_size=width, max_size=width))
        lines.append(",".join(cells))
        if lines[-1]:  # a row of one empty cell is a blank line, not a row
            starts.append(len(lines))
    lines += [""] * draw(st.integers(0, 1))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, starts


def _outcome(read, path, grid_row):
    try:
        ds = read(path, has_grid_row=grid_row)
    except ValueError as exc:
        return str(exc)
    return ds.grid.view(np.uint64).tolist(), ds.values.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_file(), st.booleans())
def test_read_matches_per_row_parser(tmp_path, case, grid_row):
    text, starts = case
    path = tmp_path / "generated.csv"
    path.write_bytes(text.encode())
    expected = _outcome(per_row_read_csv, str(path), grid_row)
    if isinstance(expected, str):
        # the per-row parser counts non-blank rows; rows are numbered by line
        expected = re.sub(r"row (\d+)",
                          lambda m: f"row {starts[int(m.group(1)) - 1]}",
                          expected)
    assert _outcome(read_csv, str(path), grid_row) == expected


def _doc(**overrides):
    """A result document as a command writes it: a plain mapping."""
    return {
        "command": "fit",
        "source": {"kind": "csv", "path": "d.csv"},
        "records": [{"k": 2, "ends": [2, 4]}],
        **overrides,
    }


def test_render_is_canonical():
    text = render_result(_doc(k=2, cost="0.5"))
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert ": " not in text and ", " not in text  # compact separators
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert render_result(_doc(k=2, cost="0.5")) == text


def test_render_maps_infinities_to_strings():
    doc = _doc(records=({"loo_total": math.inf, "gap": -math.inf},))
    payload = json.loads(render_result(doc))
    assert payload["records"][0] == {"gap": "-inf", "loo_total": "inf"}


def test_render_rejects_nan():
    with pytest.raises(ValueError):
        render_result(_doc(records=({"x": math.nan},)))


def test_render_converts_numpy_scalars_and_arrays():
    doc = _doc(
        records=(
            {
                "k": np.int64(3),
                "cost": np.float64(0.25),
                "ends": np.array([1, 4]),
                "flag": np.bool_(True),
            },
        )
    )
    assert json.loads(render_result(doc))["records"][0] == {
        "k": 3,
        "cost": 0.25,
        "ends": [1, 4],
        "flag": True,
    }


@pytest.mark.parametrize("values", [
    [[0.1, -0.0, 1e-300, 5e-324], [1.7976931348623157e308, -2.5, 3.0, 1e16]],
    [[0.5, math.inf], [-math.inf, 2.0]],
    [1, 2, 3],
])
def test_render_of_an_array_equals_render_of_its_lists(values):
    # a float array without infinities goes out through one tolist(); with
    # them, and for other dtypes, entry by entry, with the same bytes
    array = np.array(values)
    assert render_result(_doc(coefficients=array)) == render_result(
        _doc(coefficients=values))
    with pytest.raises(ValueError):
        render_result(_doc(coefficients=np.array([[1.0, math.nan]])))


def test_write_result_to_file_and_stdout(tmp_path, capsys):
    doc = _doc()
    path = str(tmp_path / "out.json")
    write_result(doc, path)
    with open(path) as fh:
        assert fh.read() == render_result(doc)
    write_result(doc, None)
    assert capsys.readouterr().out == render_result(doc)
