"""The benchmark's workloads: per-job inputs, CLI argument lists and checks.

Every job gets an input of its own, derived from (workload, seed, job index),
so nothing a process cached from an earlier job can help it.  CSV inputs are
made here with numpy, independently of the program under test; the
experiment workload passes a fresh ``--seed`` to the program's own
generator instead.

Each job's output is checked against a plain-numpy recomputation from the
input values: the partition must be valid with the requested k, and every
reported total must agree within RTOL of the recomputed value, plus
ATOL_SHARE of the data's one-segment SSE.  The answer must also be optimal:
optimum.py solves every job again from cost tables of its own, and the
reported objective must agree with that optimum and the reported ``ends``
with its leftmost optimal partition.  For seed 0 the reported ``ends`` must
also equal those committed in ``expected.json``.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

import optimum

RTOL = 1e-8
ATOL_SHARE = 1e-10
EXPECTED_SEED = 0
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


class CheckError(Exception):
    """A job's output is missing, malformed or wrong."""


class Job:
    """One CLI call: its argument list plus what the check needs."""

    def __init__(self, index: int, argv: list[str], **data) -> None:
        self.index = index
        self.argv = argv
        self.data = data
        self.path: Path | None = data.get("path")

    def cleanup(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)


def _rng(name: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        [zlib.crc32(name.encode()), seed % 2**64, index % 2**64]
    )


def spectra(rng: np.random.Generator, n: int, m: int,
            sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """n noisy spectra-like curves on [0, 1]: six Gaussian bumps of widths
    from 0.003 to 0.08, with per-curve amplitude jitter and white noise."""
    grid = np.linspace(0.0, 1.0, m)
    centers = rng.uniform(0.05, 0.95, 6)
    widths = np.exp(rng.uniform(math.log(0.003), math.log(0.08), 6))
    amps = rng.uniform(-1.0, 1.0, 6)
    shapes = np.exp(-0.5 * ((grid[None, :] - centers[:, None])
                            / widths[:, None]) ** 2)
    jitter = 1.0 + 0.2 * rng.standard_normal((n, 6))
    values = (jitter * amps) @ shapes + sigma * rng.standard_normal((n, m))
    return grid, values


def write_csv(path: Path, grid: np.ndarray, values: np.ndarray) -> None:
    """Grid row then one curve per row, shortest round-trip floats."""
    rows = [grid.tolist(), *values.tolist()]
    path.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))


# ---------------------------------------------------------------- checking


def _number(value, what: str) -> float:
    if value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"{what} is not a number: {value!r}")
    return float(value)


def _partition(ends, k: int, m: int, what: str) -> list[int]:
    if (not isinstance(ends, list) or len(ends) != k
            or not all(isinstance(e, int) and not isinstance(e, bool)
                       for e in ends)
            or ends[0] < 1 or ends[-1] != m
            or any(b <= a for a, b in zip(ends, ends[1:]))):
        raise CheckError(f"{what}: not a {k}-partition of 1..{m}: {ends!r}")
    return ends


def _agree(reported, expected: float, scale: float, what: str) -> None:
    got = _number(reported, what)
    if math.isinf(expected) or math.isinf(got):
        if got != expected:
            raise CheckError(f"{what}: reported {got!r}, recomputed {expected!r}")
        return
    if abs(got - expected) > RTOL * abs(expected) + ATOL_SHARE * scale:
        raise CheckError(f"{what}: reported {got!r}, recomputed {expected!r}")


def _segments(ends: list[int]) -> tuple[np.ndarray, np.ndarray]:
    bounds = np.array([0, *ends])
    return bounds[:-1], np.diff(bounds)


def piecewise(values: np.ndarray, ends: list[int]):
    """Segment means (n, k), per-segment SSE summed over curves, lengths."""
    starts, lengths = _segments(ends)
    means = np.add.reduceat(values, starts, axis=1) / lengths
    dev = values - np.repeat(means, lengths, axis=1)
    per_segment = np.add.reduceat(dev * dev, starts, axis=1).sum(axis=0)
    return means, per_segment, lengths


def sse_loo(values: np.ndarray, ends: list[int]) -> tuple[float, float]:
    """Two-pass SSE total and leave-one-out total; singletons make LOO inf."""
    _, per_segment, lengths = piecewise(values, ends)
    if (lengths == 1).any():
        loo = math.inf
    else:
        loo = math.fsum((lengths / (lengths - 1.0)) ** 2 * per_segment)
    return math.fsum(per_segment), loo


def linear_total(grid: np.ndarray, values: np.ndarray, ends: list[int]) -> float:
    """Residual SSE of per-segment least-squares lines against the grid."""
    starts, lengths = _segments(ends)
    dt = grid - np.repeat(np.add.reduceat(grid, starts) / lengths, lengths)
    ym = np.add.reduceat(values, starts, axis=1) / lengths
    dy = values - np.repeat(ym, lengths, axis=1)
    ctt = np.add.reduceat(dt * dt, starts)
    cty = np.add.reduceat(dy * dt, starts, axis=1)
    cyy = np.add.reduceat(dy * dy, starts, axis=1)
    resid = cyy - cty * cty / np.where(ctt > 0.0, ctt, 1.0)
    resid[:, lengths <= 2] = 0.0
    return math.fsum(np.maximum(resid, 0.0).sum(axis=0))


def _one_segment_sse(values: np.ndarray) -> float:
    dev = values - values.mean(axis=1, keepdims=True)
    return float((dev * dev).sum())


def _document(rc: int, out: str, command: str) -> dict:
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("command") != command:
        raise CheckError(f"output is not a {command} document")
    if not isinstance(doc.get("records"), list):
        raise CheckError("output has no records list")
    return doc


def _optimal(opt: optimum.Optimum, k: int, ends: list[int], reported,
             scale: float, what: str) -> None:
    """The reported objective is the optimum for k, and ``ends`` the leftmost
    optimal partition."""
    _agree(reported, opt.cost(k), scale, f"{what} against the optimum")
    if ends != opt.ends(k):
        raise CheckError(f"{what}: ends {ends!r} are not the leftmost optimal "
                         f"partition {opt.ends(k)!r}")


def _expected(name: str, seed: int, index: int, got) -> None:
    table = EXPECTED[name]
    if seed == EXPECTED_SEED and 0 <= index < len(table) and got != table[index]:
        raise CheckError(f"ends differ from the committed seed-{seed} "
                         f"expectation for job {index}")


# ---------------------------------------------------------------- workloads


class Workload:
    """A job mix: ``cycle`` jobs cover it once; an untraced run stops only
    after a multiple of ``stop_every`` jobs, so the mix stays balanced, and
    runs at least ``min_jobs`` jobs, so ten jobs lie beyond its tail."""

    min_jobs = 11

    def __init__(self, synth) -> None:
        # the program's synth module; only the experiment check uses it, and
        # it runs between jobs, where tracing wrappers record nothing
        self.synth = synth

    def cells(self, job: Job) -> int:
        """CSV cells the job's input holds."""
        return 0


class CsvWorkload(Workload):
    """Jobs that read a CSV of noisy curves with a grid row."""

    sigma: float

    def _input(self, rng, index: int, workdir: Path, n: int, m: int) -> dict:
        grid, values = spectra(rng, n, m, self.sigma)
        path = workdir / f"{self.name}-{index}.csv"
        write_csv(path, grid, values)
        return {"path": path, "grid": grid, "values": values}

    def cells(self, job: Job) -> int:
        return job.data["values"].size + job.data["grid"].size


class FitDefault(CsvWorkload):
    """fit at the paper's default size; cost cycles sse, loo, linear and k
    cycles 8, 16, 32 per three jobs."""

    name = "fit-default"
    n, m, sigma = 124, 256, 0.02
    costs = ("sse", "loo", "linear")
    ks = (8, 16, 32)
    cycle = 9
    stop_every = 3
    min_jobs = 33  # eleven linear jobs keep the tail among the linear jobs

    def _make(self, rng, index, workdir, k, cost, n, m) -> Job:
        data = self._input(rng, index, workdir, n, m)
        argv = ["fit", "--input", str(data["path"]), "--grid-row",
                "--emit-coefficients", "--segments", str(k), "--cost", cost]
        return Job(index, argv, k=k, cost=cost, **data)

    def job(self, seed: int, index: int, workdir: Path) -> Job:
        return self._make(_rng(self.name, seed, index), index, workdir,
                          self.ks[index // 3 % 3], self.costs[index % 3],
                          self.n, self.m)

    def warmups(self, seed: int, workdir: Path) -> list[Job]:
        rng = _rng(self.name + "/warm-up", seed, 0)
        return [self._make(rng, -1 - i, workdir, 4, cost, 6, 32)
                for i, cost in enumerate(self.costs)]

    def check(self, job: Job, rc: int, out: str, seed: int) -> None:
        d = job.data
        grid, values, k, cost = d["grid"], d["values"], d["k"], d["cost"]
        doc = _document(rc, out, "fit")
        if doc.get("k") != k or doc.get("cost") != cost or len(doc["records"]) != 1:
            raise CheckError("fit document does not echo k and cost")
        rec = doc["records"][0]
        ends = _partition(rec.get("ends"), k, values.shape[1], "ends")
        scale = _one_segment_sse(values)
        sse, loo = sse_loo(values, ends)
        _agree(rec.get("sse_total"), sse, scale, "sse_total")
        if cost == "linear":
            objective = "objective_total"
            _agree(rec.get(objective), linear_total(grid, values, ends), scale,
                   objective)
            table = optimum.linear_table(grid, values)
        else:
            objective = "loo_total"
            _agree(rec.get(objective), loo, scale, objective)
            table = optimum.sse_table(values)
            if cost == "loo":
                table = optimum.loo_table(table)
            else:
                objective = "sse_total"
        _optimal(optimum.Optimum(table, k), k, ends, rec.get(objective),
                 scale, objective)
        coef = np.asarray(doc.get("coefficients"), dtype=float)
        means, _, _ = piecewise(values, ends)
        if coef.shape != means.shape or not np.allclose(
                coef, means, rtol=1e-12, atol=1e-12 * np.abs(values).max()):
            raise CheckError("coefficients are not the segment means")
        _expected(self.name, seed, job.index, ends)


class SelectFine(CsvWorkload):
    """select on few curves over a fine grid; the strategy alternates."""

    name = "select-fine"
    n, m, k_max, sigma = 4, 2048, 64, 0.04
    strategies = ("full-loo", "standard")
    cycle = 2
    stop_every = 2

    def _make(self, rng, index, workdir, strategy, n, m, k_max) -> Job:
        data = self._input(rng, index, workdir, n, m)
        argv = ["select", "--input", str(data["path"]), "--grid-row",
                "--max-segments", str(k_max), "--strategy", strategy]
        return Job(index, argv, strategy=strategy, k_max=k_max, **data)

    def job(self, seed: int, index: int, workdir: Path) -> Job:
        return self._make(_rng(self.name, seed, index), index, workdir,
                          self.strategies[index % 2], self.n, self.m,
                          self.k_max)

    def warmups(self, seed: int, workdir: Path) -> list[Job]:
        rng = _rng(self.name + "/warm-up", seed, 0)
        return [self._make(rng, -1 - i, workdir, s, 2, 64, 8)
                for i, s in enumerate(self.strategies)]

    def check(self, job: Job, rc: int, out: str, seed: int) -> None:
        d = job.data
        values, strategy, k_max = d["values"], d["strategy"], d["k_max"]
        m = values.shape[1]
        doc = _document(rc, out, "select")
        records = doc["records"]
        if (doc.get("k_max") != k_max or doc.get("strategy") != strategy
                or doc.get("degenerate") or len(records) != k_max):
            raise CheckError("select document does not echo k_max and strategy")
        scale = _one_segment_sse(values)
        table = optimum.sse_table(values)
        if strategy == "full-loo":
            table = optimum.loo_table(table)
        opt = optimum.Optimum(table, k_max)
        objective = "sse_total" if strategy == "standard" else "loo_total"
        all_ends, loos, previous = [], [], math.inf
        for k, rec in enumerate(records, start=1):
            if rec.get("k") != k:
                raise CheckError(f"record {k} has k={rec.get('k')!r}")
            ends = _partition(rec.get("ends"), k, m, f"k={k} ends")
            sse, loo = sse_loo(values, ends)
            _agree(rec.get("sse_total"), sse, scale, f"k={k} sse_total")
            _agree(rec.get("loo_total"), loo, scale, f"k={k} loo_total")
            if bool(rec.get("infeasible")) != math.isinf(loo):
                raise CheckError(f"k={k}: infeasible flag disagrees with loo_total")
            _optimal(opt, k, ends, rec[objective], scale, f"k={k} {objective}")
            # the optimised objective may only fall as k grows; under
            # full-loo it is the LOO total, which is not monotone in k
            if strategy == "standard":
                if sse > previous:
                    raise CheckError(f"k={k}: optimal sse_total increased")
                previous = sse
            all_ends.append(ends)
            loos.append(_number(rec["loo_total"], "loo_total"))
        finite = [v for v in loos if math.isfinite(v)]
        if not finite or doc.get("selected_k") != loos.index(min(finite)) + 1:
            raise CheckError("selected_k is not the smallest k with the "
                             "minimal finite loo_total")
        _expected(self.name, seed, job.index, all_ends)


class ExperimentNoisy(Workload):
    """experiment on the default synth set with sigma 0.04 and k_max 64."""

    name = "experiment-noisy"
    k_max = 64
    sigma = 0.04
    cycle = 1
    stop_every = 1
    bases = ("fixed", "standard-then-loo", "full-loo")

    def job(self, seed: int, index: int, workdir: Path) -> Job:
        s = seed % 2**32 * 1_000_000 + index
        argv = ["experiment", "--synth", "default", "--sigma", str(self.sigma),
                "--max-segments", str(self.k_max), "--seed", str(s)]
        return Job(index, argv, seed=s, k_max=self.k_max,
                   spec=self.synth.SynthSpec())

    def warmups(self, seed: int, workdir: Path) -> list[Job]:
        spec = self.synth.SynthSpec(n=6, m=32)
        config = workdir / "warm-up.synth"
        config.write_text(f"n = {spec.n}\nm = {spec.m}\n")
        argv = ["experiment", "--synth", str(config), "--sigma", str(self.sigma),
                "--max-segments", "4", "--seed", str(seed % 2**32)]
        return [Job(-1, argv, path=config, seed=seed % 2**32, k_max=4,
                    spec=spec)]

    @staticmethod
    def _optima(noisy: np.ndarray, k_max: int) -> dict:
        """Per basis: the optimum to compare with, the k it must choose and
        the total it minimises.  ``fixed`` is the SSE optimum at k_max;
        ``standard-then-loo`` scores the SSE optima by their LOO totals, and
        ``full-loo`` the LOO optima; each picks the smallest k of least
        finite score."""
        sse = optimum.sse_table(noisy)
        by_sse = optimum.Optimum(sse, k_max)
        by_loo = optimum.Optimum(optimum.loo_table(sse), k_max)

        def smallest_best(scores) -> int:
            finite = [v for v in scores if math.isfinite(v)]
            return scores.index(min(finite)) + 1

        loo_of_sse = [sse_loo(noisy, by_sse.ends(k))[1]
                      for k in range(1, k_max + 1)]
        return {"fixed": (by_sse, k_max, "sse"),
                "standard-then-loo": (by_sse, smallest_best(loo_of_sse), "sse"),
                "full-loo": (by_loo, smallest_best(list(by_loo.costs)), "loo")}

    def check(self, job: Job, rc: int, out: str, seed: int) -> None:
        d = job.data
        dataset = self.synth.generate(d["spec"], d["seed"])
        clean = dataset.values
        noisy = self.synth.add_noise(dataset, self.sigma, d["seed"] + 1).values
        doc = _document(rc, out, "experiment")
        records = doc["records"]
        if doc.get("k_max") != d["k_max"] or [
                r.get("basis") for r in records] != list(self.bases):
            raise CheckError("experiment document does not list the three bases")
        scale = _one_segment_sse(noisy)
        best = self._optima(noisy, d["k_max"])
        all_ends = []
        for rec in records:
            k = rec.get("k")
            if not isinstance(k, int) or not 1 <= k <= d["k_max"]:
                raise CheckError(f"{rec['basis']}: bad k {k!r}")
            if rec["basis"] != "fixed" and rec.get("selected_k") != k:
                raise CheckError(f"{rec['basis']}: selected_k differs from k")
            ends = _partition(rec.get("ends"), k, noisy.shape[1],
                              f"{rec['basis']} ends")
            means, per_segment, lengths = piecewise(noisy, ends)
            recon = np.repeat(means, lengths, axis=1)
            noisy_error = math.fsum(per_segment)
            _agree(rec.get("noisy_error"), noisy_error, scale,
                   f"{rec['basis']} noisy_error")
            _agree(rec.get("clean_error"),
                   float(((clean - recon) ** 2).sum()), scale,
                   f"{rec['basis']} clean_error")
            opt, best_k, total = best[rec["basis"]]
            if k != best_k:
                raise CheckError(f"{rec['basis']}: k={k}, the optimum has "
                                 f"k={best_k}")
            value = noisy_error if total == "sse" else sse_loo(noisy, ends)[1]
            _optimal(opt, k, ends, value, scale, f"{rec['basis']} {total}")
            all_ends.append(ends)
        _expected(self.name, seed, job.index, all_ends)


WORKLOADS = {w.name: w for w in (FitDefault, SelectFine, ExperimentNoisy)}
