"""The package's public names: each export resolves, and no test oracle or
removed wrapper is among them or defined in any package module."""

import segbasis

# defined in tests/oracles.py, not in the library
ORACLES = {"brute_force", "prefix_oracle_cost", "segment_cost", "SplitMix64",
           "loo_table", "per_row_read_csv", "partition_cost"}
# select_k takes the SSE table, the strategy and k_max instead;
# partition_totals(sse, [seg], CostKind.LOO) prices one leave-one-out total
WRAPPERS = {"select_k_standard", "select_k_full_loo", "loo_partition_cost"}


def test_every_exported_name_resolves():
    assert len(set(segbasis.__all__)) == len(segbasis.__all__)
    for name in segbasis.__all__:
        assert getattr(segbasis, name, None) is not None, name


def test_star_import_exposes_no_oracles():
    namespace: dict = {}
    exec("from segbasis import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(segbasis.__all__)
    assert not exported & (ORACLES | WRAPPERS)


def test_no_module_defines_an_oracle():
    modules = [segbasis] + [getattr(segbasis, name) for name in (
        "baselines", "cli", "core", "costs", "io", "selection", "solver", "synth")]
    for module in modules:
        assert not {name for name in ORACLES | WRAPPERS if hasattr(module, name)}
