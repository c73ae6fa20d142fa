"""Fresh-process replicas of acceptance 8's timing ratios.

    PYTHONPATH=src python tests/acceptance8_replicas.py [N]

Runs the computation of ``test_acceptance.py::test_runtime_scaling`` (15
alternating ``bench`` calls at n=32, m=256,512 and n=64, m=256, medians,
ratios) once in each of N fresh interpreters (default 10), one after
another, and prints one JSON object: each replica's DP m-ratio and build
n-ratio, their min, median and max, and the test's bounds.  The segbasis it
times is the one the interpreter imports, so point ``PYTHONPATH`` at the
``src`` of the checkout to measure.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BOUNDS = {"dp_m_ratio": (2.5, 6.0), "build_n_ratio": (1.6, 2.6)}


def replica() -> dict[str, float]:
    """One run of the test's computation in this process."""
    from test_acceptance import _bench_medians

    samples = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(15):
            for argv in (["--m-list", "256,512", "--n", "32"],
                         ["--m-list", "256", "--n", "64"]):
                rows = _bench_medians(
                    ["bench", *argv, "--k", "16", "--repeats", "1"],
                    Path(tmp) / "bench.csv",
                )
                for key, times in rows.items():
                    samples[key].append(times)
    medians = {key: [statistics.median(col) for col in zip(*times)]
               for key, times in samples.items()}
    return {"dp_m_ratio": medians[(512, 32)][1] / medians[(256, 32)][1],
            "build_n_ratio": medians[(256, 64)][0] / medians[(256, 32)][0]}


def main(argv: list[str]) -> int:
    if argv == ["--one"]:
        print(json.dumps(replica()))
        return 0
    count = int(argv[0]) if argv else 10
    runs = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, __file__, "--one"],
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    summary: dict[str, object] = {"replicas": runs}
    for name, (lo, hi) in BOUNDS.items():
        values = [run[name] for run in runs]
        summary[name] = {"min": min(values), "median": statistics.median(values),
                         "max": max(values), "bounds": [lo, hi],
                         "outside": sum(not lo <= v <= hi for v in values)}
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
