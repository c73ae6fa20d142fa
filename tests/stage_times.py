"""In-process stage medians of the benchmark's workload shapes.

    PYTHONPATH=src python tests/stage_times.py [REPEATS]

Times the library calls each workload's jobs are made of, REPEATS times
each (default 15), and prints one line a stage with its median and
quartiles in milliseconds, then one JSON object of the same numbers.  The
shapes are perfbench's: ``fit-default`` (n=124, m=256), ``select-fine``
(n=4, m=2048, k_max=64) and ``experiment-noisy`` (n=124, m=256, k_max=64),
plus the north star's large size (n=124, m=1024).  The inputs come from the
library's own synthetic generator with noise, so nothing is read from disk
outside the ``read_csv`` stage.  A stage's calls alternate with the other
stages of its shape, so a drift of the host's speed lands on all of them.
The segbasis timed is the one the interpreter imports: point ``PYTHONPATH``
at the ``src`` of the checkout to measure.  Where the fill reports the
entries it wrote into its row slabs (``DPTable.slab_cells``), the share of
whole slabs they make is printed too, and where it reports its slab passes
(``DPTable.passes``), the timed fill's median in ms and in µs a pass: the
second tells a lower cost a pass from fewer passes.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from segbasis import (SelectionStrategy, SynthSpec, add_noise, build_linear_table,
                      build_sse_table, fill_dp, fit_model, generate, io,
                      partition_totals, select_k, solve)
from segbasis.solver import _slabs


def _data(n: int, m: int, seed: int = 3):
    return add_noise(generate(SynthSpec(n=n, m=m), seed), 0.04, seed + 1)


def _shapes(tmp: Path) -> dict[str, dict[str, object]]:
    """Each shape's stages: name -> zero-argument call."""
    fit = _data(124, 256)
    path = tmp / "fit.csv"
    io.write_csv(fit, str(path))
    fit_table = build_sse_table(fit)
    seg, _, _ = solve(fit_table, 32)
    fit_doc = {"command": "fit", "coefficients": fit_model(fit, seg).coefficients}

    fine = _data(4, 2048)
    noisy = _data(124, 256)
    noisy_table = build_sse_table(noisy)
    std, loo = SelectionStrategy.STANDARD_THEN_LOO, SelectionStrategy.FULL_LOO
    large = _data(124, 1024)
    large_table = build_sse_table(large)
    bases = [rec.segmentation for rec in select_k(large_table, std, 64).records]
    return {
        "fit-default": {
            "read_csv": lambda: io.read_csv(str(path), has_grid_row=True),
            "build_sse_table": lambda: build_sse_table(fit),
            "solve k=16": lambda: solve(fit_table, 16),
            "build_linear_table": lambda: build_linear_table(fit),
            "render k=32 coefficients": lambda: io.render_result(fit_doc),
        },
        "select-fine": {
            "fill_dp sse": lambda: fill_dp(fine, 64),
            "fill_dp loo": lambda: fill_dp(fine, 64, loo=True),
            "select_k standard": lambda: select_k(fine, std, 64),
            "select_k full-loo": lambda: select_k(fine, loo, 64),
        },
        "experiment-noisy": {
            "build_sse_table": lambda: build_sse_table(noisy),
            "select_k standard": lambda: select_k(noisy_table, std, 64),
            "select_k full-loo": lambda: select_k(noisy_table, loo, 64),
        },
        "large n=124 m=1024": {
            "build_sse_table": lambda: build_sse_table(large),
            "solve k=16": lambda: solve(large_table, 16),
            "fill_dp sse k=64": lambda: fill_dp(large, 64),
            "select_k full-loo k=64": lambda: select_k(large, loo, 64),
            "partition_totals 64 bases": lambda: partition_totals(large, bases),
        },
    }, {"select-fine": (fine, 64, {False: "fill_dp sse", True: "fill_dp loo"}),
        "large n=124 m=1024": (large, 64, {False: "fill_dp sse k=64"})}


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 15
    report: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        shapes, fills = _shapes(Path(tmp))
        for shape, stages in shapes.items():
            times: dict[str, list[float]] = {name: [] for name in stages}
            for name, call in stages.items():
                call()  # warm-up, not reported
            for _ in range(repeats):
                for name, call in stages.items():
                    t0 = time.perf_counter()
                    call()
                    times[name].append((time.perf_counter() - t0) * 1e3)
            report[shape] = {}
            for name, ms in times.items():
                q1, med, q3 = statistics.quantiles(ms, n=4)
                report[shape][name] = {"p50_ms": round(med, 3),
                                       "iqr_ms": [round(q1, 3), round(q3, 3)]}
                print(f"{shape:20s} {name:28s} {med:9.3f} ms "
                      f"[{q1:.3f}, {q3:.3f}]")
            if shape in fills:
                dataset, k, stage = fills[shape]
                whole = sum((e - s) * (dataset.m - s) for s, e in _slabs(dataset.m))
                for loo in (False, True):
                    dp = fill_dp(dataset, k, loo=loo)
                    cells = getattr(dp, "slab_cells", None)
                    if cells is not None:
                        share = cells / whole
                        report[shape][f"slab_cells_share loo={loo}"] = round(share, 4)
                        print(f"{shape:20s} {'slab cells, loo=' + str(loo):28s}"
                              f" {share:9.3f} of whole slabs")
                    passes = getattr(dp, "passes", None)
                    if passes and loo in stage:
                        ms = statistics.median(times[stage[loo]])
                        report[shape][f"fill loo={loo}"] = {
                            "passes": passes, "ms_per_fill": round(ms, 3),
                            "us_per_pass": round(1e3 * ms / passes, 3)}
                        print(f"{shape:20s} {'passes, loo=' + str(loo):28s}"
                              f" {passes:9d}: {ms:.3f} ms a fill,"
                              f" {1e3 * ms / passes:.3f} us a pass")
    print(json.dumps({"repeats": repeats, "stages": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
