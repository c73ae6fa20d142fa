"""Byte identity of CLI documents against committed golden outputs.

Each case's canonical JSON was written by the program before a change that
must not alter results; a byte mismatch means the output moved.  To pin a new
reference on purpose, run ``PYTHONPATH=src python tests/test_golden.py`` and
commit the rewritten files under ``tests/golden/``.
"""

import os
from pathlib import Path

import pytest

from segbasis import CostKind, fill_dp, generate, main
from segbasis.cli import parse_synth_config
from segbasis.solver import _slabs

GOLDEN = Path(__file__).parent / "golden"

# an odd grid size, two bumps and a wider jitter than the default
ODD_M_CFG = (
    "n = 5\n"
    "m = 37\n"
    "jitter = 0.35\n"
    "bumps = 0.25:0.04:1.0, 0.7:0.12:-0.6\n"
)

# the instance of acceptance 9, which runs every command on it
ACC9_CFG = "n = 4\nm = 32\n"

# few curves on a grid of several row slabs: a fit from the dataset builds
# its upper slabs only out to the columns its passes can use
SLABS_CFG = "n = 4\nm = 600\n"

# three functions on a one-point grid: every score is infinite.  It is read by
# a path relative to the work directory, so the document's source is stable.
ONE_COLUMN_CSV = "1.5\n-0.25\n2.0\n"

# a grid row and three functions on an uneven 12-point grid, with padded,
# signed, exponent and quoted cells and a CRLF line; also read by a relative
# path
MULTI_COLUMN_CSV = (
    "0,0.5,1.25,2,3,3.5,4.75,6,7,7.5,9,10\n"
    "0.1,0.35,0.72,1.05,1.48,1.2,0.61,0.05,-0.4,-0.62,-1.3,-1.71\n"
    " 2.5 ,2.45,+2.6,2.38,\"2.52\",2.49,3.9,4.12,4.05,3.97,4.2,4.01\r\n"
    "-1e-1,1.5e-2,2.1E-1,0.33,0.5,0.61,0.8,1.02,1.1,1.3,1.41,1.62\n"
)

# three functions on an 8-point grid with runs of equal values: many
# segmentations tie, and every k > 4 leaves a singleton, so the top rows of
# the standard sweep have infinite leave-one-out totals and the full-loo
# sweep has no basis there
TIED_CSV = (
    "1,1,1,2,2,2,2,5\n"
    "1,1,1,2,2,2,2,5\n"
    "0,0,3,3,3,3,3,3\n"
)

CASES = {
    "acc9-fit-sse": ["fit", "--synth", "ACC9", "--seed", "5", "--segments", "6"],
    "acc9-fit-loo": ["fit", "--synth", "ACC9", "--seed", "5", "--segments", "6",
                     "--cost", "loo"],
    "slabs-fit-sse": ["fit", "--synth", "SLABS", "--segments", "24"],
    "slabs-fit-loo": ["fit", "--synth", "SLABS", "--segments", "24",
                      "--cost", "loo"],
    "slabs-fit-linear": ["fit", "--synth", "SLABS", "--segments", "24",
                         "--cost", "linear"],
    "default-fit-linear": ["fit", "--synth", "default", "--segments", "16",
                           "--cost", "linear", "--emit-coefficients"],
    "acc9-fit-linear": ["fit", "--synth", "ACC9", "--seed", "5",
                        "--segments", "6", "--cost", "linear",
                        "--emit-coefficients"],
    "acc9-select-standard": ["select", "--synth", "ACC9", "--seed", "5",
                             "--strategy", "standard"],
    "acc9-select-full-loo": ["select", "--synth", "ACC9", "--seed", "5",
                             "--strategy", "full-loo"],
    "acc9-experiment": ["experiment", "--synth", "ACC9", "--sigma", "0.03",
                        "--seed", "11", "--max-segments", "8"],
    "experiment-default-sigma0": ["experiment"],
    "experiment-default-sigma0.04": ["experiment", "--sigma", "0.04"],
    "experiment-seed-2p63": ["experiment", "--sigma", "0.04",
                             "--seed", str(2**63 + 12345)],
    "experiment-seed-2p64m1": ["experiment", "--sigma", "0.5",
                               "--seed", str(2**64 - 1)],
    "experiment-seed-neg2": ["experiment", "--sigma", "0.04", "--seed", "-2"],
    "experiment-odd-m": ["experiment", "--synth", "CFG", "--sigma", "0.1",
                         "--seed", "3", "--max-segments", "9"],
    "select-default-standard": ["select", "--synth", "default",
                                "--strategy", "standard"],
    "select-default-full-loo": ["select", "--synth", "default",
                                "--strategy", "full-loo"],
    # flagged documents: no finite-cost partition, a feasible basis whose
    # leave-one-out total is infinite, infeasible sweep rows, no finite score
    "acc9-fit-loo-infeasible": ["fit", "--synth", "ACC9", "--seed", "5",
                                "--segments", "17", "--cost", "loo"],
    "acc9-fit-sse-singletons": ["fit", "--synth", "ACC9", "--seed", "5",
                                "--segments", "32"],
    "acc9-select-full-loo-infeasible": ["select", "--synth", "ACC9",
                                        "--seed", "5", "--strategy",
                                        "full-loo", "--max-segments", "20"],
    "select-one-column-degenerate": ["select", "--input", "one-column.csv",
                                     "--strategy", "standard"],
    "csv-fit-linear-coefficients": ["fit", "--input", "multi-column.csv",
                                    "--grid-row", "--segments", "3",
                                    "--cost", "linear", "--emit-coefficients"],
    "csv-tied-select-standard": ["select", "--input", "tied.csv",
                                 "--strategy", "standard",
                                 "--max-segments", "8"],
    "csv-tied-select-full-loo": ["select", "--input", "tied.csv",
                                 "--strategy", "full-loo",
                                 "--max-segments", "8"],
}

# cases whose document is written with exit 2; every other case exits 0
EXIT_CODES = {"acc9-fit-loo-infeasible": 2, "select-one-column-degenerate": 2}


def _render(argv: list[str], workdir: Path, expected_code: int = 0) -> bytes:
    configs = {"CFG": ODD_M_CFG, "ACC9": ACC9_CFG, "SLABS": SLABS_CFG}
    for name, text in configs.items():
        (workdir / f"{name}.cfg").write_text(text)
    (workdir / "one-column.csv").write_text(ONE_COLUMN_CSV)
    (workdir / "multi-column.csv").write_bytes(MULTI_COLUMN_CSV.encode())
    (workdir / "tied.csv").write_text(TIED_CSV)
    out = workdir / "out.json"
    argv = [str(workdir / f"{a}.cfg") if a in configs else a for a in argv]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main([*argv, "--output", str(out)])
    finally:
        os.chdir(cwd)
    assert code == expected_code, f"{argv} exited {code}"
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert _render(CASES[name], tmp_path, EXIT_CODES.get(name, 0)) == expected


@pytest.mark.parametrize("loo", [False, True])
def test_slabs_fits_cut_their_upper_slabs(tmp_path, loo):
    # the slabs-fit-* cases pin a fit whose fill from the dataset builds
    # fewer entries than its whole row slabs hold
    cfg = tmp_path / "SLABS.cfg"
    cfg.write_text(SLABS_CFG)
    dataset = generate(parse_synth_config(str(cfg)), 0)
    m = dataset.m
    assert len(_slabs(m)) > 1
    whole = sum((e - s) * (m - s) for s, e in _slabs(m))
    cost = CostKind.LOO if loo else CostKind.SSE
    assert fill_dp(dataset, 24, cost).slab_cells < whole


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            doc = _render(argv, Path(tmp), EXIT_CODES.get(name, 0))
            (GOLDEN / f"{name}.json").write_bytes(doc)
            print(f"wrote {name}.json")
