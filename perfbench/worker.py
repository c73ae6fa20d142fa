"""One benchmark worker process: set-up, then a closed loop with one client.

run.py starts this script with BLAS and OpenMP limited to one thread and
THREADS unset.  The worker imports segbasis from the checkout's ``src``,
runs one small warm-up job per job kind, makes the first job's input, and
then issues each CLI job in-process through ``segbasis.cli.main(argv)`` only
after the previous one has finished and been checked.  Input generation,
checking and a pass of the reference kernel happen between jobs, off the
clock.

Untraced, it stops after a multiple of the workload's ``stop_every`` jobs,
so the job mix stays balanced, and after at least ``--min-jobs`` jobs.  With
``--trace 1`` it alternates whole untraced and traced job-mix cycles and
stops after a traced one, so both halves see the same mix.  Of the possible
stopping points it takes the one nearest to ``--seconds``.  It prints one
JSON line with its per-job results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# a job's time is scaled to a machine on which one reference pass takes
# REF_NOMINAL_MS, the pass's typical time on a 2-vCPU Intel Xeon KVM guest
REF_NOMINAL_MS = 20.0


class Reference:
    """A fixed kernel that gauges the machine's speed around each job.

    On a shared host the CPU speed drifts by tens of percent within seconds
    to minutes, so two runs of the same code can differ more than any useful
    bound.  The kernel mixes the program's two kinds of hot loop:
    running-mean downdates over small arrays, like the SSE build, and a block
    add-and-argmin over a 2 MiB array, like the DP fill.  It touches only its
    own arrays and calls no segbasis code.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(256)
        self.big = rng.standard_normal((128, 2048))
        self.row = rng.standard_normal(2048)
        self.out = np.empty_like(self.big)

    def run(self) -> float:
        """One pass; its time in ms."""
        small = self.small
        t0 = time.perf_counter()
        for _ in range(4):
            mean, acc = small.copy(), np.zeros((256, 256))
            for r in range(1, 256):
                x = ((r + 1.0) * mean[r:] - small[r - 1]) / r
                y = mean[r:] - (r / (r + 1.0)) * (small[r - 1] - x) ** 2
                np.maximum(y, 0.0, out=y)
                acc[r, r:] += y
        for _ in range(20):
            np.add(self.big, self.row, out=self.out)
            self.out.argmin(axis=1)
        return (time.perf_counter() - t0) * 1e3


def execute(call, job, workload, seed: int) -> dict:
    """Run one job, then check its output; the check is not timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = call(job.argv)
        except Exception as exc:  # a crash in the program is a failed job
            rc, error = None, f"raised {exc!r}"
        ns = time.perf_counter_ns() - t0
    if error is None:
        try:
            workload.check(job, rc, out.getvalue(), seed)
        except Exception as exc:  # any broken output is a failed job
            error = f"{type(exc).__name__}: {exc}"
    job.cleanup()
    rec = {"index": job.index, "ns": ns, "ok": error is None,
           "bytes": len(out.getvalue().encode())}
    if error is not None:
        rec["error"] = f"job {job.index} ({' '.join(job.argv)}): {error}"
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--min-jobs", type=int, default=0)
    ap.add_argument("--spans", help="JSON-lines file for the traced spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import segbasis
    from segbasis import cli, synth

    if Path(segbasis.__file__).resolve().parent != ROOT / "src" / "segbasis":
        print(f"segbasis imported from {segbasis.__file__}, not from the "
              f"checkout's src", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](synth)
    workdir = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmups = [execute(cli.main, job, workload, args.seed)
                   for job in workload.warmups(args.seed, workdir)]
        tracer = Tracer() if args.trace else None
        index = args.start
        job = workload.job(args.seed, index, workdir)
        ready = time.monotonic()
        reference = Reference()
        reference.run()  # warm-up
        before = reference.run()
        t_start = time.perf_counter()
        jobs, spans = [], []
        unit = 2 * workload.cycle if args.trace else workload.stop_every
        while True:
            position = index - args.start
            traced = bool(args.trace) and position // workload.cycle % 2 == 1
            if args.trace and position % workload.cycle == 0:
                (tracer.install if traced else tracer.uninstall)()
            call = functools.partial(tracer.run, cli.main) if traced else cli.main
            rec = execute(call, job, workload, args.seed)
            after = reference.run()
            # the machine's slowdown around the job: its two neighbouring
            # passes against nominal
            rec["slowdown"] = (before + after) / 2 / REF_NOMINAL_MS
            before = after
            rec["traced"] = traced
            if traced:
                stats, job_spans = tracer.job_stats()
                stats["cells"] = stats.get("calls:io.read_csv", 0) * workload.cells(job)
                stats["write_bytes"] = rec["bytes"] if "calls:io.write_result" in stats else 0
                rec["stats"] = stats
                spans.extend((index, sid, *s) for sid, s in enumerate(job_spans))
            jobs.append(rec)
            index += 1
            units, partial = divmod(index - args.start, unit)
            if not partial and index - args.start >= args.min_jobs:
                # stop where the run ends closest to --seconds
                elapsed = time.perf_counter() - t_start
                if elapsed + elapsed / units / 2 >= args.seconds:
                    break
            job = workload.job(args.seed, index, workdir)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.spans:
        with open(args.spans, "w") as fh:
            for job_index, sid, name, parent, t0, t1 in spans:
                fh.write(json.dumps({"job": job_index, "span": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "peak_rss_mb": peak_kb / 1024.0,
                      "warmups": warmups, "jobs": jobs}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
