"""Differential / metamorphic testing layer over the method registry.

* :mod:`repro.testing.invariants` -- the individual lawfulness checks
  (result contract, exact dominance, cell-bound consistency, serialization
  round-trips, permutation / rescaling metamorphics, executor and cache
  parity, the batched cell bounds against their scalar reference
  :func:`~repro.testing.invariants.cell_error_bounds_reference`, the
  one-pass MILP build against the per-pair
  :func:`~repro.testing.invariants.formulation_reference`, the LP solve
  against the ``linprog`` call of
  :func:`~repro.testing.invariants.lp_reference`), each
  returning :class:`~repro.testing.invariants.CheckResult` objects so
  callers can aggregate instead of stopping at the first raise; plus
  :func:`~repro.testing.invariants.simulate_lru`, the recency reference the
  result cache's eviction rule is measured against.
* :mod:`repro.testing.oracle` -- :class:`~repro.testing.oracle.DifferentialOracle`,
  which runs every registered method on a generated scenario and applies
  the full invariant battery, producing one assertable
  :class:`~repro.testing.oracle.OracleReport`.

The pytest suites under ``tests/scenarios/`` are thin parametrizations of
this package over :mod:`repro.scenarios`.
"""

from repro.testing.invariants import (
    CheckResult,
    check_cache_parity,
    check_cell_bound_consistency,
    check_exact_dominance,
    check_executor_parity,
    check_formulation_parity,
    check_incremental_parity,
    check_permutation_invariance,
    check_problem_roundtrip,
    check_rescaling_invariance,
    check_result_contract,
    check_serialization_roundtrip,
    check_streaming_parity,
    check_zero_error_witness,
    cell_error_bounds_reference,
    formulation_reference,
    lp_differences,
    lp_reference,
    lp_resolve_differences,
    model_differences,
    recorded_lps,
    results_equal,
    simulate_lru,
)
from repro.testing.oracle import (
    FAST_METHOD_OPTIONS,
    DifferentialOracle,
    OracleReport,
)

__all__ = [
    "CheckResult",
    "check_cache_parity",
    "check_cell_bound_consistency",
    "check_exact_dominance",
    "check_executor_parity",
    "check_formulation_parity",
    "check_incremental_parity",
    "check_permutation_invariance",
    "check_problem_roundtrip",
    "check_rescaling_invariance",
    "check_result_contract",
    "check_serialization_roundtrip",
    "check_streaming_parity",
    "check_zero_error_witness",
    "cell_error_bounds_reference",
    "formulation_reference",
    "lp_differences",
    "lp_reference",
    "lp_resolve_differences",
    "model_differences",
    "recorded_lps",
    "results_equal",
    "simulate_lru",
    "FAST_METHOD_OPTIONS",
    "DifferentialOracle",
    "OracleReport",
]
