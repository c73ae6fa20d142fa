"""In-process stage medians of the benchmark's workload shapes.

    PYTHONPATH=src python tests/stage_times.py [REPEATS] [BASE_SRC]

Times the library calls each workload's jobs are made of, REPEATS times
each (default 15), and prints one line a stage with its median and
quartiles in milliseconds, then one JSON object of the same numbers.  The
shapes are perfbench's: ``fit-default`` (n=124, m=256), ``select-fine``
(n=4, m=2048, k_max=64) and ``experiment-noisy`` (n=124, m=256, k_max=64),
plus the north star's large size (n=124, m=1024) and n=32, m=256 next to
the fewest functions at which a fill screens its rows
(``solver._SCREEN_N``), timed both as the library runs it and screened,
for SSE and linear costs.  ``fit-default`` times SSE, leave-one-out and
linear solves from the data at k=8, 16 and 32, its nine job kinds, and
``build_linear_table`` for reference.
A stage that sets the crossover runs as the library runs it in a checkout
that has none.  The inputs come from the
library's own synthetic generator with noise, so nothing is read from disk
outside the ``read_csv`` stage.  A ``fit-default`` stage runs on a fresh
copy of its dataset each call, so it centres the data as a fit job does.
A stage's calls alternate with the other stages of its shape, so a drift of
the host's speed lands on all of them.

The segbasis timed is the one the interpreter imports: point ``PYTHONPATH``
at the ``src`` of the checkout to measure.  With ``BASE_SRC``, the ``src``
of a second checkout, both are imported into this one process and fed the
same inputs, and each stage's calls alternate between them, the first of a
pair taking turns.  A line then gives the base's median, the imported
checkout's median and the pairs in which the imported one was faster: the
host's speed drifts 10-25% between processes, too much for separate runs to
resolve a change of a few percent.  On a 2-vCPU x86-64 VM, stages whose code
is the same on both sides read medians within 2% of each other and won 8 to
20 of 31 pairs; with 11 repeats the medians differed by up to 12%.

Where the fill reports the entries it wrote into its row slabs
(``DPTable.slab_cells``), the share of whole slabs they make is printed
too, with the exact entries it priced outside its row build
(``DPTable.priced``), and where it reports its slab passes (``DPTable.passes``), the timed
fill's median in ms and in µs a pass: the second tells a lower cost a pass
from fewer passes.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import segbasis


def _load(src: str):
    """The segbasis package under ``src``, imported beside the one already
    imported: each package's modules keep their own names bound, so the
    first one's entries are put back in ``sys.modules`` afterwards."""
    ours = {name: mod for name, mod in sys.modules.items()
            if name.partition(".")[0] == "segbasis"}
    for name in ours:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("segbasis")
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if n.partition(".")[0] == "segbasis"]:
            del sys.modules[name]
        sys.modules.update(ours)


def _inputs(tmp: Path) -> dict[str, object]:
    """The shapes' datasets, made once by the imported segbasis, and the
    ``fit-default`` CSV."""
    def data(n: int, m: int, seed: int = 3):
        return segbasis.add_noise(segbasis.generate(segbasis.SynthSpec(n=n, m=m), seed),
                                  0.04, seed + 1)

    raw = {"fit": data(124, 256), "fine": data(4, 2048), "noisy": data(124, 256),
           "large": data(124, 1024), "cross": data(32, 256), "csv": tmp / "fit.csv"}
    segbasis.io.write_csv(raw["fit"], str(raw["csv"]))
    return raw


def _cost_call(sb, name: str, source, k: int, cost: str):
    """``sb.<name>(source, k)`` under ``cost`` ("sse", "loo" or "linear") in
    a checkout whose fills take a cost selector; in one whose fills take a
    ``loo`` flag instead, a linear call fills from the linear table, as
    that checkout's ``fit`` did."""
    call = getattr(sb, name)
    if "cost" in inspect.signature(call).parameters:
        return call(source, k, sb.CostKind(cost))
    if cost == "linear":
        return call(sb.build_linear_table(source), k)
    return call(source, k, loo=cost == "loo")


def _screened(sb, call):
    """``call`` with the screen crossover of ``sb`` at 1, so every fill
    from a dataset screens its rows; unchanged where there is none."""
    def run():
        crossover = getattr(sb.solver, "_SCREEN_N", None)
        if crossover is None:
            return call()
        sb.solver._SCREEN_N = 1
        try:
            return call()
        finally:
            sb.solver._SCREEN_N = crossover
    return run


def _shapes(sb, raw: dict[str, object]):
    """Each shape's stages for the package ``sb``: name -> zero-argument
    call, and the fills whose slab cells and passes are reported."""
    fit, fine, noisy, large, cross = (
        sb.new_dataset(raw[key].grid, raw[key].values)
        for key in ("fit", "fine", "noisy", "large", "cross"))
    path = str(raw["csv"])
    fresh = dataclasses.replace  # a copy that holds none of fit's kept sums
    seg, _, _ = sb.solve(fit, 32)

    def solve(dataset, k, cost):
        return lambda: _cost_call(sb, "solve", fresh(dataset), k, cost)
    fit_doc = {"command": "fit", "coefficients": sb.fit_model(fit, seg).coefficients}

    noisy_table = sb.build_sse_table(noisy)
    std, loo = sb.SelectionStrategy.STANDARD_THEN_LOO, sb.SelectionStrategy.FULL_LOO
    large_table = sb.build_sse_table(large)
    bases = [rec.segmentation for rec in sb.select_k(large_table, std, 64).records]
    return {
        "fit-default": {
            "read_csv": lambda: sb.io.read_csv(path, has_grid_row=True),
            "solve sse k=8": solve(fit, 8, "sse"),
            "solve loo k=8": solve(fit, 8, "loo"),
            "solve sse k=16": solve(fit, 16, "sse"),
            "solve loo k=16": solve(fit, 16, "loo"),
            "solve sse k=32": solve(fit, 32, "sse"),
            "solve loo k=32": solve(fit, 32, "loo"),
            "solve linear k=8": solve(fit, 8, "linear"),
            "solve linear k=16": solve(fit, 16, "linear"),
            "solve linear k=32": solve(fit, 32, "linear"),
            "build_linear_table": lambda: sb.build_linear_table(fresh(fit)),
            "render k=32 coefficients": lambda: sb.io.render_result(fit_doc),
        },
        "select-fine": {
            "fill_dp sse": lambda: sb.fill_dp(fine, 64),
            "fill_dp loo": lambda: _cost_call(sb, "fill_dp", fine, 64, "loo"),
            "select_k standard": lambda: sb.select_k(fine, std, 64),
            "select_k full-loo": lambda: sb.select_k(fine, loo, 64),
        },
        "experiment-noisy": {
            "build_sse_table": lambda: sb.build_sse_table(noisy),
            "select_k standard": lambda: sb.select_k(noisy_table, std, 64),
            "select_k full-loo": lambda: sb.select_k(noisy_table, loo, 64),
        },
        "crossover n=32 m=256": {
            "solve sse k=16": solve(cross, 16, "sse"),
            "solve sse k=16 screened": _screened(sb, solve(cross, 16, "sse")),
            "solve sse k=32": solve(cross, 32, "sse"),
            "solve sse k=32 screened": _screened(sb, solve(cross, 32, "sse")),
            "solve linear k=16": solve(cross, 16, "linear"),
            "solve linear k=16 screened": _screened(sb, solve(cross, 16, "linear")),
            "solve linear k=32": solve(cross, 32, "linear"),
            "solve linear k=32 screened": _screened(sb, solve(cross, 32, "linear")),
        },
        "large n=124 m=1024": {
            "build_sse_table": lambda: sb.build_sse_table(large),
            "solve k=16": lambda: sb.solve(large_table, 16),
            "fill_dp sse k=64": lambda: sb.fill_dp(large, 64),
            "select_k full-loo k=64": lambda: sb.select_k(large, loo, 64),
            "solve linear k=16": solve(large, 16, "linear"),
            "partition_totals 64 bases": lambda: sb.partition_totals(large, bases),
        },
    }, {"fit-default": (fit, 32, {"sse": "solve sse k=32", "loo": "solve loo k=32",
                                  "linear": "solve linear k=32"}),
        "select-fine": (fine, 64, {"sse": "fill_dp sse", "loo": "fill_dp loo"}),
        "large n=124 m=1024": (large, 64, {"sse": "fill_dp sse k=64"})}


def _quartiles(ms: list[float]) -> dict[str, object]:
    q1, med, q3 = statistics.quantiles(ms, n=4)
    return {"p50_ms": round(med, 3), "iqr_ms": [round(q1, 3), round(q3, 3)]}


def _fill_counts(sb, shape: str, fill, times, report, label: str) -> None:
    """Slab cells and passes of ``shape``'s fills, set against the timed
    fill's median (``times``)."""
    dataset, k, stage = fill
    whole = sum((e - s) * (dataset.m - s) for s, e in sb.solver._slabs(dataset.m))
    for cost in ("sse", "loo", "linear"):
        dp = _cost_call(sb, "fill_dp", dataset, k, cost)
        cells = getattr(dp, "slab_cells", None)
        if cells is not None:
            share = cells / whole
            report[f"slab_cells_share {cost}{label}"] = round(share, 4)
            priced = getattr(dp, "priced", None)
            report[f"priced {cost}{label}"] = priced
            print(f"{shape:20s} {f'slab cells, {cost}{label}':28s}"
                  f" {share:9.3f} of whole slabs, {priced} entries priced")
        passes = getattr(dp, "passes", None)
        if passes and cost in stage:
            ms = statistics.median(times[stage[cost]])
            report[f"fill {cost}{label}"] = {
                "passes": passes, "ms_per_fill": round(ms, 3),
                "us_per_pass": round(1e3 * ms / passes, 3)}
            print(f"{shape:20s} {f'passes, {cost}{label}':28s}"
                  f" {passes:9d}: {ms:.3f} ms a fill,"
                  f" {1e3 * ms / passes:.3f} us a pass")


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 15
    packages = {"": segbasis}
    if len(argv) > 1:
        packages[" base"] = _load(argv[1])
    report: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        raw = _inputs(Path(tmp))
        built = {label: _shapes(sb, raw) for label, sb in packages.items()}
        for shape in built[""][0]:
            stages = {label: shapes[shape] for label, (shapes, _) in built.items()}
            times = {label: {name: [] for name in stages[""]} for label in stages}
            for calls in stages.values():
                for call in calls.values():
                    call()  # warm-up, not reported
            order = list(stages)
            for _ in range(repeats):
                for name in stages[""]:
                    for label in order:
                        t0 = time.perf_counter()
                        stages[label][name]()
                        times[label][name].append((time.perf_counter() - t0) * 1e3)
                order.reverse()
            report[shape] = {}
            for name, ms in times[""].items():
                report[shape][name] = _quartiles(ms)
                med, (q1, q3) = report[shape][name]["p50_ms"], report[shape][name]["iqr_ms"]
                if len(packages) == 1:
                    print(f"{shape:20s} {name:28s} {med:9.3f} ms [{q1:.3f}, {q3:.3f}]")
                    continue
                base = times[" base"][name]
                won = sum(a < b for a, b in zip(ms, base))
                report[shape][name]["base"] = _quartiles(base)
                report[shape][name]["pairs_won"] = won
                print(f"{shape:20s} {name:28s} base {statistics.median(base):9.3f}"
                      f" ms, this {med:9.3f} ms, faster in {won}/{repeats}")
            for label, sb in packages.items():
                fills = built[label][1]
                if shape in fills:
                    _fill_counts(sb, shape, fills[shape], times[label],
                                 report[shape], label)
    print(json.dumps({"repeats": repeats, "stages": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
