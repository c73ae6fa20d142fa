"""Command line interface: fit, select, experiment, and bench subcommands.

Exit codes: 0 success, 1 input error, 2 infeasible request or degenerate
selection (a flagged result document is still written), 64 usage error.
Each command builds the result document it writes, adding an optional key
only when it is set; :mod:`segbasis.io` serialises it as canonical JSON.
Timing is reported only when --timing is passed, keeping default output
byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
import time
from math import isfinite
from typing import Any, Mapping, Sequence

import numpy as np

from .core import CostKind, FunctionalDataset, Segmentation, fit_model, reconstruct
from .costs import build_sse_table, partition_totals
from .io import read_csv, write_result
from .selection import SelectionStrategy, default_k_max, select_k
from .solver import InfeasiblePartitionError, solve
from .synth import SynthSpec, add_noise, generate

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for usage mistakes."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # "-1e-3", "-inf" and "-nan" are negative numbers like "-1": option
        # values, not flags (no option name starts with a digit, inf or nan)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_bumps(text: str) -> tuple[tuple[float, float, float], ...]:
    """Bumps as comma-separated center:width:amplitude triples."""
    bumps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(
                f"bad bump {part!r}: expected center:width:amplitude"
            )
        bumps.append(tuple(float(p) for p in pieces))
    return tuple(bumps)


_SYNTH_KEYS = {
    "n": int,
    "m": int,
    "jitter": float,
    "lo": float,
    "hi": float,
    "bumps": _parse_bumps,
}


def parse_synth_config(text: str) -> SynthSpec:
    """Resolve a --synth argument: "default" or a flat key=value config file.

    Recognized keys: n, m, jitter, lo, hi, bumps.  Unset keys keep their
    defaults; '#' starts a comment.
    """
    if text == "default":
        return SynthSpec()
    fields: dict[str, Any] = {}
    with open(text) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{text}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SYNTH_KEYS:
                raise ValueError(f"{text}:{lineno}: unknown key {key!r}")
            try:
                fields[key] = _SYNTH_KEYS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{text}:{lineno}: {exc}") from None
    spec = SynthSpec(**fields)
    spec.validate()
    return spec


def _spec_source(spec: SynthSpec, seed: int) -> dict[str, Any]:
    # vars holds exactly the spec's fields (no __slots__), and unlike
    # dataclasses.asdict it does not deep-copy every bump
    return {"kind": "synth", **vars(spec), "seed": seed}


def _load_dataset(args: argparse.Namespace) -> tuple[FunctionalDataset, dict[str, Any]]:
    if args.input is not None:
        dataset = read_csv(args.input, has_grid_row=args.grid_row)
        return dataset, {
            "kind": "csv", "path": args.input, "grid_row": bool(args.grid_row),
        }
    spec = parse_synth_config(args.synth)
    return generate(spec, args.seed), _spec_source(spec, args.seed)


def _row(k: int, seg: Segmentation | None, totals: Mapping[str, float],
         scored: bool) -> dict[str, Any]:
    """One fit or select record.  ``infeasible`` flags a k without a
    finite-cost basis and, in a ``scored`` row (one a selection ranks by its
    leave-one-out total), a basis whose total is infinite."""
    row: dict[str, Any] = {"k": k, "ends": None if seg is None else list(seg.ends),
                           **totals}
    if seg is None or (scored and not isfinite(row["loo_total"])):
        row["infeasible"] = True
    return row


def _k_max(requested: int | None, m: int) -> int:
    k_max = default_k_max(m) if requested is None else requested
    if not 1 <= k_max <= m:
        raise ValueError(f"k_max out of range: need 1 <= k_max <= {m}, got {k_max}")
    return k_max


def cmd_fit(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    k = args.segments
    if not 1 <= k <= dataset.m:
        raise ValueError(f"k out of range: need 1 <= k <= {dataset.m}, got {k}")
    kind = CostKind(args.cost)
    t0 = time.perf_counter()
    try:  # filled and priced from the dataset, as select is: no m x m table
        seg, total, _ = solve(dataset, k, kind)
    except InfeasiblePartitionError:
        seg = None
    if seg is None:
        totals = {"sse_total": np.inf, "loo_total": np.inf}
    else:
        (sse_total,), (loo_total,) = partition_totals(dataset, [seg])
        # the linear DP's own total; leave-one-out scaling is of SSE costs
        totals = ({"objective_total": total, "sse_total": sse_total}
                  if kind is CostKind.LINEAR
                  else {"sse_total": sse_total, "loo_total": loo_total})
    t1 = time.perf_counter()
    # a fit reports its basis whatever its leave-one-out total: not scored
    doc: dict[str, Any] = {
        "command": "fit", "source": source, "cost": kind.value, "k": k,
        "records": [_row(k, seg, totals, scored=False)],
    }
    if seg is None:
        doc["infeasible"] = True
    else:
        if args.emit_coefficients:
            doc["coefficients"] = fit_model(dataset, seg).coefficients
        if args.timing:
            doc["timing"] = {"total_ms": (t1 - t0) * 1e3}
    write_result(doc, args.output)
    return 2 if seg is None else 0


def cmd_select(args: argparse.Namespace) -> int:
    dataset, source = _load_dataset(args)
    k_max = _k_max(args.max_segments, dataset.m)
    strategy = SelectionStrategy(args.strategy)
    t0 = time.perf_counter()
    report = select_k(dataset, strategy, k_max)  # no m x m table
    t1 = time.perf_counter()
    doc: dict[str, Any] = {
        "command": "select", "source": source, "k_max": k_max,
        "strategy": strategy.value, "selected_k": report.selected_k,
        "records": [
            _row(rec.k, rec.segmentation,
                 {"sse_total": rec.sse_total, "loo_total": rec.loo_total},
                 scored=True)
            for rec in report.records
        ],
    }
    if report.degenerate:
        doc["degenerate"] = True
    if args.timing:
        doc["timing"] = {"total_ms": (t1 - t0) * 1e3}
    write_result(doc, args.output)
    return 2 if report.degenerate else 0


def _squared_error(values: np.ndarray, approx: np.ndarray) -> float:
    return float(((values - approx) ** 2).sum())


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = parse_synth_config(args.synth)
    clean = generate(spec, args.seed)
    noise_seed = args.seed + 1
    noisy = add_noise(clean, args.sigma, noise_seed)
    k_max = _k_max(args.max_segments, clean.m)

    def basis_row(name: str, seg: Segmentation) -> dict[str, Any]:
        # coefficients are fitted on the noisy data; the clean error measures
        # how well that fit recovers the uncontaminated curves
        recon = reconstruct(noisy, fit_model(noisy, seg))
        return {
            "basis": name,
            "k": seg.k,
            "ends": list(seg.ends),
            "noisy_error": _squared_error(noisy.values, recon),
            "clean_error": _squared_error(clean.values, recon),
        }

    sse = build_sse_table(noisy)
    standard = select_k(sse, SelectionStrategy.STANDARD_THEN_LOO, k_max)
    full_loo = select_k(sse, SelectionStrategy.FULL_LOO, k_max)
    # the fixed basis is the k_max optimum of the standard sweep's SSE fill,
    # which is finite; a synthetic grid has m >= 2 points, so both sweeps
    # score k = 1 finite and neither is degenerate
    rows = [
        basis_row("fixed", standard.records[-1].segmentation),
        basis_row("standard-then-loo", standard.selected.segmentation),
        basis_row("full-loo", full_loo.selected.segmentation),
    ]
    rows[1]["selected_k"] = standard.selected_k
    rows[2]["selected_k"] = full_loo.selected_k
    source = _spec_source(spec, args.seed)
    source["sigma"] = args.sigma
    source["noise_seed"] = noise_seed
    write_result({"command": "experiment", "source": source, "k_max": k_max,
                  "records": rows}, args.output)
    return 0


# Seconds of back-to-back build-then-solve steps averaged into one repeat: a
# single step of a few milliseconds is shorter than a shared host's swings.
_BENCH_SAMPLE_S = 0.1


def _bench_sample(dataset: FunctionalDataset, k: int) -> tuple[float, float]:
    """Mean build and solve milliseconds of one repeat: build-then-solve
    steps back to back for at least ``_BENCH_SAMPLE_S``."""
    build_s = dp_s = calls = 0
    while build_s + dp_s < _BENCH_SAMPLE_S:
        t0 = time.perf_counter()
        table = build_sse_table(dataset)
        t1 = time.perf_counter()
        solve(table, k)
        build_s += t1 - t0
        dp_s += time.perf_counter() - t1
        calls += 1
    return build_s * 1e3 / calls, dp_s * 1e3 / calls


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        m_list = [int(part) for part in args.m_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad --m-list {args.m_list!r}: expected integers")
    if not m_list:
        raise ValueError("empty --m-list")
    if args.repeats < 1:
        raise ValueError("repeats must be at least 1")
    datasets = [generate(SynthSpec(n=args.n, m=m), args.seed) for m in m_list]
    for dataset in datasets:
        solve(build_sse_table(dataset), args.k)  # warm-up, not reported
    samples: list[list[tuple[float, float]]] = [[] for _ in m_list]
    for _ in range(args.repeats):
        # one repeat of every m per round: the host's speed drifts over
        # seconds, and this way the drift lands on every m alike
        for dataset, sample in zip(datasets, samples):
            sample.append(_bench_sample(dataset, args.k))
    rows: list[list[Any]] = []
    for m, sample in zip(m_list, samples):
        for rep, (build_ms, dp_ms) in enumerate(sample, start=1):
            rows.append([m, args.n, args.k, str(rep), build_ms, dp_ms])
        build_times, dp_times = zip(*sample)
        rows.append([m, args.n, args.k, "median",
                     float(np.median(build_times)), float(np.median(dp_times))])
    out = sys.stdout if args.output is None else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["m", "n", "k", "repeat", "build_ms", "dp_ms"])
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="PATH",
                       help="CSV file: one function per row")
    group.add_argument("--synth", metavar="CONFIG",
                       help='"default" or a key=value synth config file')
    parser.add_argument("--grid-row", action="store_true",
                        help="first CSV row is the sampling grid")
    parser.add_argument("--seed", type=int, default=0,
                        help="synth generator seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segbasis",
                     description="Optimal piecewise bases for sampled functions.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    fit = sub.add_parser("fit", help="best basis with a fixed segment count")
    _add_input_flags(fit)
    fit.add_argument("--segments", type=int, required=True, metavar="K")
    fit.add_argument("--cost", choices=[k.value for k in CostKind],
                     default=CostKind.SSE.value)
    fit.add_argument("--output", metavar="PATH")
    fit.add_argument("--emit-coefficients", action="store_true",
                     help="include the fitted per-segment means")
    fit.add_argument("--timing", action="store_true",
                     help="include timing (breaks byte determinism)")
    fit.set_defaults(func=cmd_fit)

    select = sub.add_parser("select", help="choose the segment count by "
                            "leave-one-out error")
    _add_input_flags(select)
    select.add_argument("--max-segments", type=int, default=None, metavar="K")
    select.add_argument("--strategy",
                        choices=[s.value for s in SelectionStrategy],
                        default=SelectionStrategy.FULL_LOO.value)
    select.add_argument("--output", metavar="PATH")
    select.add_argument("--timing", action="store_true",
                        help="include timing (breaks byte determinism)")
    select.set_defaults(func=cmd_select)

    experiment = sub.add_parser(
        "experiment",
        help="clean-vs-noisy comparison of the fixed, standard-then-loo, "
             "and full-loo bases",
    )
    experiment.add_argument("--synth", default="default", metavar="CONFIG",
                            help='"default" or a key=value synth config file')
    experiment.add_argument("--sigma", type=float, default=0.0,
                            help="noise standard deviation")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--max-segments", type=int, default=None,
                            metavar="K")
    experiment.add_argument("--output", metavar="PATH")
    experiment.set_defaults(func=cmd_experiment)

    bench = sub.add_parser("bench", help="table-build and DP timing scaling")
    bench.add_argument("--m-list", default="256,512",
                       help="comma-separated grid sizes")
    bench.add_argument("--n", type=int, default=32)
    bench.add_argument("--k", type=int, default=16)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", metavar="PATH",
                       help="CSV destination (default stdout)")
    bench.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """:func:`build_parser` once a process: parsing leaves a parser as it
    was, and building one took about 1.2 ms of every :func:`main` call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: an allocation that fails outside the m x m cost
        # tables of experiment and bench, whose failure is a ValueError
        print(f"segbasis: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
