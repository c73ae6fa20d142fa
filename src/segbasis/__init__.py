"""Optimal piecewise bases for sets of functions sampled on a common grid.

Given n functions on m grid points, find the partition of the grid into k
contiguous intervals minimizing the total squared error of the induced
piecewise approximation, exactly, by dynamic programming over an
interval-cost table built from prefix sums.  Includes leave-one-out model
selection of k, uniform and greedy baselines, a deterministic synthetic data
generator, and a CLI (``segbasis``).
"""

from .baselines import greedy_agglomerative, uniform_partition
from .cli import main
from .core import (
    CostKind,
    FunctionalDataset,
    PiecewiseModel,
    Segmentation,
    fit_model,
    new_dataset,
    reconstruct,
    segmentation_from_ends,
)
from .costs import (
    CostTable,
    build_linear_table,
    build_sse_table,
    partition_totals,
)
from .io import ResultDocument, read_csv, render_result, write_csv, write_result
from .selection import (
    SelectionRecord,
    SelectionReport,
    SelectionStrategy,
    default_k_max,
    select_k,
)
from .solver import (
    DPTable,
    InfeasiblePartitionError,
    SolveResult,
    fill_dp,
    solve,
    solve_all,
)
from .synth import DEFAULT_BUMPS, SynthSpec, add_noise, generate

__all__ = [
    "CostKind",
    "CostTable",
    "DEFAULT_BUMPS",
    "DPTable",
    "FunctionalDataset",
    "InfeasiblePartitionError",
    "PiecewiseModel",
    "ResultDocument",
    "Segmentation",
    "SelectionRecord",
    "SelectionReport",
    "SelectionStrategy",
    "SolveResult",
    "SynthSpec",
    "add_noise",
    "build_linear_table",
    "build_sse_table",
    "default_k_max",
    "fill_dp",
    "fit_model",
    "generate",
    "greedy_agglomerative",
    "main",
    "new_dataset",
    "partition_totals",
    "read_csv",
    "reconstruct",
    "render_result",
    "segmentation_from_ends",
    "select_k",
    "solve",
    "solve_all",
    "uniform_partition",
    "write_csv",
    "write_result",
]

__version__ = "0.1.0"
