"""Command line behavior: exit codes, document shapes, determinism."""

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from test_golden import CASES, EXIT_CODES, GOLDEN, _render

import segbasis
from segbasis import CostKind, main
from segbasis.cli import _parse_bumps, parse_synth_config

STEP_CSV = "0,1,2,3\n0,0,1,1\n"


@pytest.fixture
def step_csv(tmp_path):
    path = tmp_path / "step.csv"
    path.write_text(STEP_CSV)
    return str(path)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "# compact instance for fast runs\n"
        "n = 3\n"
        "m = 16\n"
        "bumps = 0.3:0.05:1.0, 0.7:0.1:-0.5\n"
    )
    return str(path)


def _run_json(tmp_path, argv, expect=0):
    out = tmp_path / "result.json"
    code = main([*argv, "--output", str(out)])
    assert code == expect
    return json.loads(out.read_text())


# ---------------------------------------------------------------- fit


def test_fit_step(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "2"],
    )
    assert doc["command"] == "fit" and doc["cost"] == "sse" and doc["k"] == 2
    (row,) = doc["records"]
    assert row["ends"] == [2, 4]
    # prefix-sum differences leave ~1e-16 of cancellation noise on exact-fit
    # segments
    assert abs(row["sse_total"]) < 1e-12 and abs(row["loo_total"]) < 1e-12
    assert doc["source"]["kind"] == "csv"


def test_fit_whole_range(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "1"],
    )
    assert doc["records"][0]["ends"] == [4]
    assert doc["records"][0]["sse_total"] == 1.0


def test_fit_linear_omits_loo_total(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "2",
         "--cost", "linear"],
    )
    (row,) = doc["records"]
    assert row["objective_total"] == 0.0
    assert "loo_total" not in row


def test_fit_emits_coefficients(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "2",
         "--emit-coefficients"],
    )
    assert doc["coefficients"] == [[0.0, 1.0]]


def test_fit_timing_is_opt_in(tmp_path, step_csv):
    base = ["fit", "--input", step_csv, "--grid-row", "--segments", "2"]
    assert "timing" not in _run_json(tmp_path, base)
    timed = _run_json(tmp_path, [*base, "--timing"])
    assert set(timed["timing"]) == {"total_ms"}


def test_fit_k_out_of_range(tmp_path, step_csv, capsys):
    code = main(["fit", "--input", step_csv, "--grid-row", "--segments", "0",
                 "--output", str(tmp_path / "x.json")])
    assert code == 1
    assert "k out of range" in capsys.readouterr().err


def test_fit_loo_infeasible_writes_flagged_document(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "3",
         "--cost", "loo"],
        expect=2,
    )
    assert doc["infeasible"] is True
    (row,) = doc["records"]
    assert row["ends"] is None
    assert row["sse_total"] == "inf" and row["loo_total"] == "inf"
    assert row["infeasible"] is True


def test_fit_infeasible_omits_coefficients_and_timing(tmp_path, step_csv):
    # there is no basis to fit means to or to time: the flagged document
    # carries neither key, whatever the flags ask for
    doc = _run_json(
        tmp_path,
        ["fit", "--input", step_csv, "--grid-row", "--segments", "3",
         "--cost", "loo", "--emit-coefficients", "--timing"],
        expect=2,
    )
    assert doc["infeasible"] is True
    assert "coefficients" not in doc and "timing" not in doc


def test_fit_missing_input_file(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--segments", "2"])
    assert code == 1
    assert "segbasis: error:" in capsys.readouterr().err


OVERFLOW = "too large for double-precision sums"


def _one_error_line(err: str) -> str:
    """The one line a failed command writes to stderr: no numpy warning."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("segbasis: error:"), err
    return lines[0]


def test_overflowing_values_are_an_input_error(tmp_path, capsys):
    # finite values whose squares overflow are an input error, not NaN
    # costs or "infeasible"
    rng = np.random.default_rng(0)
    path = tmp_path / "huge.csv"
    np.savetxt(path, rng.choice([-1e300, 1e300], size=(3, 20)), delimiter=",")
    out = tmp_path / "result.json"
    fit = main(["fit", "--input", str(path), "--segments", "3",
                "--output", str(out)])
    fit_err = capsys.readouterr().err
    select = main(["select", "--input", str(path)])
    captured = capsys.readouterr()
    assert fit == select == 1
    assert OVERFLOW in _one_error_line(fit_err)
    assert OVERFLOW in _one_error_line(captured.err)
    assert not out.exists() and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fit", "--segments", "2", "--cost", "sse"],
    ["fit", "--segments", "2", "--cost", "loo"],
    ["fit", "--segments", "2", "--cost", "linear"],
    ["select", "--strategy", "standard"],
    ["select", "--strategy", "full-loo"],
])
def test_overflowing_interval_sums_are_an_input_error(tmp_path, capsys, argv):
    # every square is finite (2.25e304) and so is their sum (9e306), but
    # the sum of the first 300 values is not squarable: it used to cancel
    # to a 0.0 cost and a wrong basis with exit 0
    path = tmp_path / "big.csv"
    path.write_text(",".join(["1.5e152"] * 200 + ["-1.5e152"] * 200) + "\n")
    out = tmp_path / "result.json"
    code = main([*argv, "--input", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not out.exists() and captured.out == ""
    assert OVERFLOW in _one_error_line(captured.err)


@pytest.mark.parametrize("argv", [
    ["fit", "--segments", "2", "--cost", "sse"],
    ["fit", "--segments", "2", "--cost", "loo"],
    ["select", "--strategy", "standard"],
    ["select", "--strategy", "full-loo"],
])
def test_overflowing_loo_costs_are_an_input_error(tmp_path, capsys, argv):
    # every SSE sum is finite (the one-segment cost is 1.21e308), but a
    # leave-one-out cost is up to 4 times its SSE cost: the two-point
    # segments used to read +inf, so `fit --cost loo` said "infeasible",
    # `select` "degenerate" and `fit --cost sse` reported an inf loo_total
    a = 5.5e153
    path = tmp_path / "alternating.csv"
    path.write_text(",".join(repr(v) for v in (a, -a, a, -a)) + "\n")
    out = tmp_path / "result.json"
    code = main([*argv, "--input", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not out.exists() and captured.out == ""
    assert OVERFLOW in _one_error_line(captured.err)


def test_table_too_large_to_allocate_is_an_input_error(tmp_path, small_cfg,
                                                        capsys, monkeypatch):
    # experiment still builds its m x m SSE table: an allocation of it that
    # fails is an input error naming m and its 8 m^2 bytes
    empty = np.empty

    def refused(shape, *args, **kwargs):
        if shape == (16, 16):
            raise MemoryError("Unable to allocate 2.00 KiB for an array with "
                              "shape (16, 16) and data type float64")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refused)
    out = tmp_path / "result.json"
    code = main(["experiment", "--synth", small_cfg, "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        "segbasis: error: a cost table for m=16 points needs 2048 bytes, "
        "more than can be allocated"]
    assert not out.exists() and captured.out == ""


def test_fit_synth_default(tmp_path):
    doc = _run_json(tmp_path, ["fit", "--synth", "default", "--segments", "4"])
    src = doc["source"]
    assert src["kind"] == "synth" and (src["n"], src["m"]) == (124, 256)
    assert src["seed"] == 0
    assert len(doc["records"][0]["ends"]) == 4


# ---------------------------------------------------------------- usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", "x.csv", "--segments", "2", "--frobnicate"],
        ["fit", "--input", "x.csv"],  # --segments is required
        ["fit", "--input", "x.csv", "--synth", "default", "--segments", "2"],
        ["fit", "--segments", "2"],  # an input source is required
        ["fit", "--input", "x.csv", "--segments", "2", "--cost", "cubic"],
        ["select", "--input", "x.csv", "--strategy", "bogus"],
        ["nonsense"],
        [],
    ],
)
def test_usage_errors_exit_64(argv, capsys):
    assert main(argv) == 64
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


# ---------------------------------------------------------------- select


def test_select_full_loo_step(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["select", "--input", step_csv, "--grid-row"],
    )
    assert doc["strategy"] == "full-loo"
    assert doc["k_max"] == 2  # default: half the grid size
    assert doc["selected_k"] == 2
    assert [r["k"] for r in doc["records"]] == [1, 2]


def test_select_standard_marks_unselectable_rows(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["select", "--input", step_csv, "--grid-row",
         "--strategy", "standard", "--max-segments", "4"],
    )
    assert doc["selected_k"] == 2
    tail = doc["records"][2:]
    for row in tail:
        # the SSE-optimal basis exists but its estimate is infinite
        assert row["ends"] is not None
        assert row["loo_total"] == "inf"
        assert row["infeasible"] is True


def test_select_full_loo_marks_infeasible_rows(tmp_path, step_csv):
    doc = _run_json(
        tmp_path,
        ["select", "--input", step_csv, "--grid-row", "--max-segments", "3"],
    )
    row = doc["records"][2]
    assert row["ends"] is None and row["infeasible"] is True


def test_select_timing_is_opt_in(tmp_path, step_csv):
    base = ["select", "--input", step_csv, "--grid-row"]
    assert "timing" not in _run_json(tmp_path, base)
    timed = _run_json(tmp_path, [*base, "--timing"])
    assert set(timed["timing"]) == {"total_ms"}


def test_select_degenerate_exits_two(tmp_path):
    single = tmp_path / "single.csv"
    single.write_text("5\n")
    doc = _run_json(
        tmp_path,
        ["select", "--input", str(single)],
        expect=2,
    )
    assert doc["degenerate"] is True
    assert doc["selected_k"] == 1


def test_select_k_max_out_of_range(tmp_path, step_csv, capsys):
    code = main(["select", "--input", step_csv, "--grid-row",
                 "--max-segments", "9"])
    assert code == 1
    assert "k_max out of range" in capsys.readouterr().err


# ---------------------------------------------------------------- experiment


def test_experiment_noiseless(tmp_path, small_cfg):
    doc = _run_json(
        tmp_path,
        ["experiment", "--synth", small_cfg, "--max-segments", "5"],
    )
    names = [r["basis"] for r in doc["records"]]
    assert names == ["fixed", "standard-then-loo", "full-loo"]
    for row in doc["records"]:
        # sigma = 0: the noisy data IS the clean data, errors must agree
        assert row["clean_error"] == row["noisy_error"]
    assert doc["records"][0]["k"] == 5
    assert doc["records"][1]["selected_k"] == doc["records"][1]["k"]
    assert doc["source"]["sigma"] == 0.0
    assert doc["source"]["noise_seed"] == doc["source"]["seed"] + 1


def test_experiment_negative_sigma(capsys):
    # "-1e-3" is read as a negative number, not as a flag
    for sigma in ("-1", "-1e-3"):
        assert main(["experiment", "--sigma", sigma]) == 1
        assert "sigma must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-nan"])
def test_experiment_nonfinite_sigma(tmp_path, small_cfg, capsys, sigma):
    out = tmp_path / "result.json"
    code = main(["experiment", "--synth", small_cfg, "--sigma", sigma,
                 "--output", str(out)])
    assert code == 1 and not out.exists()
    assert "sigma must be nonnegative and finite" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("jitter = nan", "jitter must be finite, got nan"),
    ("bumps = 0.5:nan:1.0", "bump width must be finite, got nan"),
])
def test_experiment_nonfinite_synth_config(tmp_path, capsys, line, message):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(f"n = 3\nm = 16\n{line}\n")
    code = main(["experiment", "--synth", str(cfg), "--sigma", "0.1",
                 "--output", str(tmp_path / "result.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "non-finite entry" not in err


def test_experiment_overflowing_noise_is_an_input_error(tmp_path, small_cfg,
                                                       capsys):
    # sigma is finite, but sigma times a normal draw above 1.8 is not
    out = tmp_path / "result.json"
    code = main(["experiment", "--synth", small_cfg, "--sigma", "1e308",
                 "--output", str(out)])
    assert code == 1 and not out.exists()
    assert "sigma 1e+308 too large" in _one_error_line(capsys.readouterr().err)


def test_experiment_noisy_clean_errors_differ(tmp_path, small_cfg):
    doc = _run_json(
        tmp_path,
        ["experiment", "--synth", small_cfg, "--sigma", "0.1",
         "--seed", "3", "--max-segments", "5"],
    )
    for row in doc["records"]:
        assert row["clean_error"] != row["noisy_error"]


def test_experiment_overflowing_fixed_basis_is_an_input_error(tmp_path, capsys):
    # two points of +-1.2e154: each square is finite, their sum is not, so
    # the one-segment cost would be +inf; that is an overflow, not an
    # infeasible basis
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("n = 1\nm = 2\nlo = -1.2e154\nhi = 1.2e154\n")
    out = tmp_path / "result.json"
    code = main(["experiment", "--synth", str(cfg), "--max-segments", "1",
                 "--output", str(out)])
    assert code == 1 and not out.exists()
    assert OVERFLOW in _one_error_line(capsys.readouterr().err)


def _count_calls(monkeypatch) -> Counter:
    """Count the table builds and DP fills of the commands run afterwards."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            cost = inspect.signature(fn).bind(*args, **kwargs).arguments.get("cost")
            calls["loo_" + name] += cost is CostKind.LOO
            return fn(*args, **kwargs)
        return wrapper

    # every binding a command can reach: a module calls a function through
    # its own global or a name it imported, so each binding is counted
    # (solve and solve_all reach fill_dp, the one fill entry point, in solver)
    modules = (segbasis.cli, segbasis.selection, segbasis.costs, segbasis.solver)
    for name, fn in (("build_sse_table", segbasis.costs.build_sse_table),
                     ("fill_dp", segbasis.solver.fill_dp)):
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return calls


def test_experiment_builds_each_table_once(tmp_path, small_cfg, monkeypatch):
    calls = _count_calls(monkeypatch)
    _run_json(tmp_path, ["experiment", "--synth", small_cfg, "--sigma", "0.1",
                         "--max-segments", "5"])
    assert calls == Counter(build_sse_table=1, fill_dp=2, loo_fill_dp=1)


@pytest.mark.parametrize("argv, loo_fills", [
    (["select", "--strategy", "standard", "--max-segments", "5"], 0),
    (["select", "--strategy", "full-loo", "--max-segments", "5"], 1),
    (["fit", "--segments", "4", "--cost", "sse"], 0),
    (["fit", "--segments", "4", "--cost", "loo"], 1),
    (["fit", "--segments", "4", "--cost", "linear"], 0),
])
def test_loo_fill_only_where_minimized(tmp_path, small_cfg, monkeypatch,
                                      argv, loo_fills):
    calls = _count_calls(monkeypatch)
    doc = _run_json(tmp_path, [*argv, "--synth", small_cfg])
    # no command builds the leave-one-out table: where it is minimized the
    # fill scales the SSE rows a slab at a time; a select and an SSE or
    # leave-one-out fit fill from the dataset, and a linear fit prices its
    # SSE total, none with the SSE table
    linear = "linear" in argv
    assert calls == Counter(build_sse_table=0, fill_dp=1,
                            loo_fill_dp=loo_fills)
    total = "sse_total" if linear else "loo_total"
    assert all(np.isfinite(row[total]) for row in doc["records"][:2])


@pytest.mark.parametrize("argv", [
    ["select", "--max-segments", "4", "--strategy", "standard"],
    ["select", "--max-segments", "4", "--strategy", "full-loo"],
    ["fit", "--segments", "4", "--cost", "sse"],
    ["fit", "--segments", "4", "--cost", "loo"],
    ["fit", "--segments", "4", "--cost", "linear"],
], ids=["standard", "full-loo", "fit-sse", "fit-loo", "fit-linear"])
def test_select_holds_no_cost_table(tmp_path, argv):
    # one m x m table at n=4, m=2048 is 8 m^2 B = 32 MiB; a select and a
    # fit of any cost build their rows a slab at a time and stay far below
    # it
    path = tmp_path / "fine.csv"
    np.savetxt(path, np.random.default_rng(2048).normal(size=(4, 2048)),
               delimiter=",")
    out = tmp_path / "result.json"
    tracemalloc.start()
    try:
        code = main([*argv, "--input", str(path), "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = json.loads(out.read_text())["records"]
    assert code == 0 and len(records) == (4 if argv[0] == "select" else 1)
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("cost", ["sse", "loo", "linear"])
def test_a_screened_fit_peaks_no_higher_than_a_linear_fit(tmp_path, cost):
    # at the default size, n=124 and m=256, a fit of every cost screens its
    # rows: the screen's matrices, its scratch and the exact-entry cache
    # keep its traced peak at or below 3.59 MiB, the peak of a k=32 linear
    # fit that built its 0.5 MiB table
    path = tmp_path / "default.csv"
    np.savetxt(path, np.random.default_rng(124).normal(size=(124, 256)),
               delimiter=",")
    tracemalloc.start()
    try:
        code = main(["fit", "--input", str(path), "--segments", "32",
                     "--cost", cost, "--output", str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3.59 * 2 ** 20, peak


@pytest.mark.parametrize("cost", ["sse", "loo", "linear"])
def test_a_fit_centres_its_data_once(tmp_path, small_cfg, monkeypatch, cost):
    # the fill, its slab cuts, a linear table and the pricing all read the
    # dataset's one set of centred prefix sums
    calls = []

    def counted(dataset):
        calls.append(dataset)
        return sse_prefix(dataset)

    sse_prefix = segbasis.costs._sse_prefix
    monkeypatch.setattr(segbasis.costs, "_sse_prefix", counted)
    _run_json(tmp_path, ["fit", "--synth", small_cfg, "--segments", "4",
                         "--cost", cost])
    assert len(calls) == 1


# ---------------------------------------------------------------- synth config


def test_config_applies_values(small_cfg):
    spec = parse_synth_config(small_cfg)
    assert (spec.n, spec.m) == (3, 16)
    assert spec.bumps == ((0.3, 0.05, 1.0), (0.7, 0.1, -0.5))
    assert spec.jitter == 0.2  # untouched keys keep their defaults


def test_config_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 4\nwobble = 3\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: unknown key 'wobble'"):
        parse_synth_config(str(bad))
    assert main(["experiment", "--synth", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_missing_equals(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_synth_config(str(bad))


def test_config_bad_bump(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bumps = 0.5:0.1\n")
    with pytest.raises(ValueError, match="expected center:width:amplitude"):
        parse_synth_config(str(bad))


def test_config_invalid_spec(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = 1\n")
    with pytest.raises(ValueError, match="m must be at least 2"):
        parse_synth_config(str(bad))


def test_parse_bumps():
    assert _parse_bumps("0.1:0.2:0.3, 0.4:0.5:-0.6") == (
        (0.1, 0.2, 0.3),
        (0.4, 0.5, -0.6),
    )
    assert _parse_bumps("") == ()


# ---------------------------------------------------------------- bench


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--m-list", "16,32", "--n", "2", "--k", "4",
                 "--repeats", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,n,k,repeat,build_ms,dp_ms"
    assert len(lines) == 1 + 2 * (2 + 1)  # per grid size: repeats + a median
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["1", "2", "median"] * 2
    assert all(float(r[4]) >= 0 and float(r[5]) >= 0 for r in rows)


def test_bench_stdout(capsys):
    assert main(["bench", "--m-list", "8", "--n", "1", "--k", "2",
                 "--repeats", "1"]) == 0
    assert capsys.readouterr().out.startswith("m,n,k,repeat,build_ms,dp_ms")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--m-list", "a,b"], "bad --m-list"),
        (["bench", "--m-list", ""], "empty --m-list"),
        (["bench", "--m-list", "8", "--k", "9"], "k out of range"),
        (["bench", "--repeats", "0"], "repeats must be at least 1"),
        (["bench", "--m-list", "4,-1", "--k", "1"], "m must be at least 2"),
    ],
)
def test_bench_input_errors(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------- determinism


def test_python_m_segbasis_matches_main(capsys):
    argv = ["fit", "--synth", "default", "--segments", "4"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    src = str(Path(segbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "segbasis", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    builds = []
    build = segbasis.cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(segbasis.cli, "build_parser", counted)

    def call(argv, fresh):
        if fresh:
            segbasis.cli._shared_parser.cache_clear()
        code = main(argv)
        return (code, *capsys.readouterr())

    # each call on the reused parser answers as a call on a new one
    for argv, code in ((["fit", "--input", "x.csv", "--frobnicate"], 64),
                       (["--help"], 0),
                       (["experiment", "--sigma", "-inf"], 1)):
        expected = call(argv, fresh=True)
        assert expected[0] == code
        assert call(argv, fresh=False) == expected
    assert len(builds) == 3
    for name in sorted(CASES):
        golden = (GOLDEN / f"{name}.json").read_bytes()
        for _ in range(2):
            assert _render(CASES[name], tmp_path, EXIT_CODES.get(name, 0)) == golden
            assert capsys.readouterr() == ("", "")
    assert len(builds) == 3


def _bytes_for(tmp_path, argv, name):
    path = tmp_path / name
    assert main([*argv, "--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--synth", "CFG", "--segments", "3"],
        ["fit", "--synth", "CFG", "--segments", "3", "--cost", "loo"],
        ["select", "--synth", "CFG", "--seed", "2"],
        ["select", "--synth", "CFG", "--strategy", "standard"],
        ["experiment", "--synth", "CFG", "--sigma", "0.05", "--seed", "7",
         "--max-segments", "6"],
    ],
)
def test_repeat_runs_are_byte_identical(tmp_path, small_cfg, argv):
    argv = [small_cfg if a == "CFG" else a for a in argv]
    first = _bytes_for(tmp_path, argv, "a.json")
    second = _bytes_for(tmp_path, argv, "b.json")
    assert first == second
