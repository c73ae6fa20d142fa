"""End-to-end and per-layer benchmark of the segbasis CLI.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: a single-threaded worker process (worker.py) issues its next CLI job
only after the previous one finished.  Untraced runs split the measuring
time over WORKERS fresh worker processes, one after another, so set-up is
measured several times and one process's luck does not set the result; the
job index carries on from one worker to the next.  Each job's time is also
scaled by the machine's speed around it (see worker.Reference).
A traced run uses one worker that alternates untraced and traced job-mix
cycles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it list the same metrics for people, with the ones that do not fit
there (``error_rate`` untraced, the tail percentile used).  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 3
DEADLINE_S = 170.0  # every worker must end by then; the run must end in 180 s
LAYERS = ("cli", "io", "synth", "core", "costs", "solver", "selection")
# per-layer metric prefix of each traced function; its .ms is the self time
FUNCTIONS = {
    "io.read_csv": "io.read_csv", "io.write_result": "io.write_result",
    "io.render_result": "io.render_result",
    "synth.generate": "synth.generate", "synth.add_noise": "synth.add_noise",
    "core.new_dataset": "core.new_dataset", "core.fit_model": "core.fit_model",
    "core.reconstruct": "core.reconstruct",
    "costs.build_sse_table": "costs.build_sse", "costs.loo_table": "costs.loo",
    "costs.build_linear_table": "costs.build_linear",
    "costs.partition_cost": "costs.partition_cost",
    "solver.fill_dp": "solver.fill_dp", "solver.backtrack": "solver.backtrack",
}
CALL_COUNTS = ("costs.build_sse_table", "costs.loo_table",
               "costs.build_linear_table", "costs.partition_cost",
               "solver.fill_dp", "solver.backtrack")
# counts worked out from input sizes and call arguments, not measured; they
# depend only on the job mix, so every traced cycle must give the same sums
COMPUTED = {"cells": ("io.read_csv.cells", "count.computed"),
            "draws": ("synth.draws", "count.computed"),
            "table_bytes": ("costs.table_bytes", "B.computed"),
            "dp_candidates": ("solver.dp_candidates", "count.computed")}
HEALTH = {"nonfinite_upper": "costs.nonfinite_upper",
          "infeasible_k": "solver.infeasible_k"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every worker compiles alike
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, start: int, seconds: float, deadline: float,
          spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--start", str(start), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    if spans is None:
        cmd += ["--min-jobs", str(-(-WORKLOADS[args.workload].min_jobs // WORKERS))]
    else:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and which."""
    ordered = sorted(walls)  # every run has more than ten jobs (min_jobs)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workers: list[dict], jobs: list[dict]) -> tuple[dict, list[str]]:
    verified = sum(j["ok"] for j in jobs)

    def timings(job_ms: list[float], setup_s: list[float]) -> dict:
        return {"job_ms.p50": (statistics.median(job_ms), "ms"),
                "job_ms.tail": (tail(job_ms)[0], "ms"),
                "jobs_per_s": (verified / (sum(job_ms) / 1e3), "1/s"),
                "setup_s": (statistics.median(setup_s), "s")}

    # a worker's set-up is scaled by the median slowdown of its jobs
    slowdowns = [statistics.median(j["slowdown"] for j in w["jobs"])
                 for w in workers]
    scaled = [j["ns"] / 1e6 / j["slowdown"] for j in jobs]
    metrics = timings(scaled,
                      [w["setup_s"] / s for w, s in zip(workers, slowdowns)])
    wall = timings([j["ns"] / 1e6 for j in jobs],
                   [w["setup_s"] for w in workers])
    metrics["peak_rss_mb"] = (
        statistics.median(w["peak_rss_mb"] for w in workers), "MB")
    metrics["ok_rate"] = (verified / len(jobs), "frac")
    notes = [f"jobs = {len(jobs)} over {len(workers)} workers",
             f"error_rate = {1 - verified / len(jobs)!r} frac",
             f"job_ms.tail is p{tail(scaled)[1]:.1f} ({len(jobs)} jobs, "
             f"10 beyond it)",
             f"median machine slowdown = "
             f"{statistics.median(j['slowdown'] for j in jobs)!r}; the "
             f"timings below are scaled by each job's own",
             *(f"unscaled {name} = {value!r} {unit}"
               for name, (value, unit) in wall.items())]
    return metrics, notes


def per_layer(workload: str, jobs: list[dict]) -> tuple[dict, list[str], bool]:
    """Per-job means over the traced jobs, which cover whole cycles."""
    traced = [j for j in jobs if j["traced"]]
    untraced = [j for j in jobs if not j["traced"]]
    n = len(traced)

    def mean(key: str) -> float:
        return sum(j["stats"].get(key, 0) for j in traced) / n

    def ratio(group: str, name: str) -> float:
        calls = sum(j["stats"].get(f"calls:{name}", 0) for j in traced)
        distinct = sum(j["stats"].get(f"distinct:{group}", 0) for j in traced)
        return distinct / calls if calls else 1.0

    # scaled like the end-to-end timings, so that drift between the two
    # halves does not pass for tracing overhead
    traced_p50 = statistics.median(j["ns"] / j["slowdown"] for j in traced)
    untraced_p50 = statistics.median(j["ns"] / j["slowdown"] for j in untraced)
    failed = sum(not j["ok"] for j in jobs)
    m = {"trace.job_ms": (mean("job_ns") / 1e6, "ms"),
         "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "frac"),
         "error_rate": (failed / len(jobs), "frac")}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (mean(f"layer_ns:{layer}") / 1e6, "ms")
    for name, prefix in FUNCTIONS.items():
        m[f"{prefix}.ms"] = (mean(f"self_ns:{name}") / 1e6, "ms")
    for name in CALL_COUNTS:
        m[f"{FUNCTIONS[name]}.calls"] = (mean(f"calls:{name}"), "count")
    m["costs.build_sse.unique_ratio"] = (
        ratio("build_sse", "costs.build_sse_table"), "frac")
    m["solver.fill_dp.unique_ratio"] = (ratio("fill_dp", "solver.fill_dp"), "frac")
    m["io.write_result.bytes"] = (mean("write_bytes"), "B")
    for key, (name, unit) in COMPUTED.items():
        m[name] = (mean(key), unit)
    for key, name in HEALTH.items():
        m[name] = (mean(key), "count")

    problems = []
    for j in traced:
        # the sum holds by construction; the nesting is what can be wrong
        if sum(j["stats"].get(f"layer_ns:{layer}", 0) for layer in LAYERS) != \
                j["stats"]["job_ns"]:
            problems.append(f"job {j['index']}: layer self times do not add "
                            f"up to the job time")
        if j["stats"]["span_faults"]:
            problems.append(f"job {j['index']}: {j['stats']['span_faults']} "
                            f"spans lie outside their parent or have a "
                            f"negative self time")
    cycle = WORKLOADS[workload].cycle
    by_cycle: dict[int, list] = {}
    for j in traced:
        sums = by_cycle.setdefault(j["index"] // cycle, [0] * len(COMPUTED))
        for i, key in enumerate(COMPUTED):
            sums[i] += j["stats"].get(key, 0)
    if len({tuple(s) for s in by_cycle.values()}) != 1:
        problems.append(f"computed counts differ between cycles: {by_cycle}")
    notes = [f"jobs = {len(jobs)} ({n} traced, whole {cycle}-job cycles)",
             f"scaled job_ms.p50: traced {traced_p50 / 1e6!r} ms, untraced "
             f"{untraced_p50 / 1e6!r} ms"]
    return m, notes + problems, not problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "segbasis" / "__init__.py").is_file():
        return fail(f"no segbasis package under {ROOT / 'src'}; run from the "
                    f"root of a segbasis checkout")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            workers = [spawn(args, 0, args.seconds, deadline,
                             out_dir / f"spans-{args.workload}.jsonl")]
        else:
            workers, start = [], 0
            for _ in range(WORKERS):
                workers.append(spawn(args, start, args.seconds / WORKERS, deadline))
                start += len(workers[-1]["jobs"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    jobs = [j for w in workers for j in w["jobs"]]
    warmups = [j for w in workers for j in w["warmups"]]
    if args.trace:
        metrics, notes, consistent = per_layer(args.workload, jobs)
    else:
        metrics, notes = end_to_end(workers, jobs)
        consistent = True
    failed = sum(not j["ok"] for j in jobs)
    errors = [j["error"] for j in warmups + jobs if not j["ok"]]
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    for line in notes + errors[:5]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = consistent and not errors
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
