"""The differential oracle: every registered method against every invariant.

:class:`DifferentialOracle` takes one generated
:class:`~repro.scenarios.generator.Scenario`, synthesizes with every method
in the :mod:`repro.api` registry (under fast, service-scale budgets), and
aggregates the invariant checkers of :mod:`repro.testing.invariants` into an
:class:`OracleReport`.  A report is the unit the parametrized pytest suites
assert on: one failed invariant anywhere in the scenario fails the test with
every violation spelled out.

The oracle is intentionally registry-driven: a method registered at runtime
is cross-checked by the very next oracle run with zero test changes -- the
executable form of the ROADMAP's "as many scenarios as you can imagine".
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.api.registry import GLOBAL_REGISTRY, get_method
from repro.api.request import SynthesisRequest
from repro.core.result import SynthesisResult
from repro.scenarios.generator import Scenario
from repro.testing.invariants import (
    CheckResult,
    check_cell_bound_consistency,
    check_exact_dominance,
    check_formulation_parity,
    check_incremental_parity,
    check_permutation_invariance,
    check_problem_roundtrip,
    check_rescaling_invariance,
    check_result_contract,
    check_serialization_roundtrip,
    check_streaming_parity,
    check_vectorized_cell_bounds,
    check_zero_error_witness,
)

__all__ = ["FAST_METHOD_OPTIONS", "OracleReport", "DifferentialOracle"]

#: Service-scale budgets so one oracle pass over all nine methods stays in
#: the low seconds per scenario even on one core.  Exactness is not the
#: point here -- lawfulness is: the invariants hold for truncated solves
#: exactly as they do for exhaustive ones (``optimal`` gates the dominance
#: check when the budget was too small to prove anything).
FAST_METHOD_OPTIONS: dict = {
    "rankhow": {
        "node_limit": 120,
        "time_limit": 5.0,
        "verify": False,
        "warm_start_strategy": "ordinal_regression",
    },
    "symgd": {
        "cell_size": 0.2,
        "max_iterations": 8,
        "time_limit": 3.0,
        "solver_options": {
            "node_limit": 60,
            "verify": False,
            "warm_start_strategy": "none",
        },
    },
    "symgd_adaptive": {
        "cell_size": 0.05,
        "max_iterations": 8,
        "time_limit": 3.0,
        "solver_options": {
            "node_limit": 60,
            "verify": False,
            "warm_start_strategy": "none",
        },
    },
    "sampling": {"num_samples": 150, "seed": 0},
    "ordinal_regression": {},
    "linear_regression": {},
    "adarank": {},
    "tree": {"node_limit": 4000, "time_limit": 2.0},
    "tree_naive": {"node_limit": 4000, "time_limit": 2.0},
}


@dataclass
class OracleReport:
    """Everything one oracle pass learned about one scenario."""

    scenario: str
    results: dict[str, SynthesisResult]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]

    def invariants_checked(self) -> tuple:
        """Distinct invariant names exercised (for coverage assertions)."""
        return tuple(dict.fromkeys(check.invariant for check in self.checks))

    def describe(self) -> str:
        """Multi-line human-readable summary (pytest failure payload)."""
        lines = [
            f"scenario {self.scenario}: "
            f"{len(self.checks)} checks over {len(self.results)} methods, "
            f"{len(self.failures)} failed"
        ]
        for method, result in sorted(self.results.items()):
            lines.append(
                f"  {method}: error={result.error} optimal={result.optimal}"
            )
        for failure in self.failures:
            lines.append(f"  {failure!r}")
        return "\n".join(lines)


class DifferentialOracle:
    """Cross-checks every registered method on generated scenarios.

    Args:
        methods: Method names to run (default: every registered method).
        options: Per-method wire options, merged over
            :data:`FAST_METHOD_OPTIONS`.
        mutation_seed: Seed for the metamorphic permutation draw.
    """

    def __init__(
        self,
        methods: Sequence[str] | None = None,
        options: Mapping[str, dict] | None = None,
        mutation_seed: int = 0,
    ) -> None:
        self.methods = (
            list(methods) if methods is not None else list(GLOBAL_REGISTRY.names())
        )
        self.options = {**FAST_METHOD_OPTIONS, **dict(options or {})}
        self.mutation_seed = mutation_seed

    def options_for(self, method: str) -> dict:
        return dict(self.options.get(method, {}))

    def solve_all(self, scenario: Scenario) -> dict[str, SynthesisResult]:
        """Run every configured method once on the scenario's problem."""
        return {
            method: get_method(method).synthesize(
                scenario.problem, self.options_for(method)
            )
            for method in self.methods
        }

    def run(self, scenario: Scenario) -> OracleReport:
        """Solve with every method, then apply the full invariant battery."""
        problem = scenario.problem
        results = self.solve_all(scenario)
        checks: list[CheckResult] = [check_problem_roundtrip(problem)]

        for method, result in results.items():
            checks.append(check_result_contract(problem, method, result))
            checks.append(check_cell_bound_consistency(problem, method, result))
            request = SynthesisRequest(problem, method, self.options_for(method))
            checks.extend(check_serialization_roundtrip(request, result))

        checks.extend(check_exact_dominance(problem, results))

        # The batched cell-bound classifier against its scalar reference:
        # bit-compatible with the loop it replaced, on every family.
        checks.append(check_vectorized_cell_bounds(problem, results))

        # The one-pass RankHow MILP build against its per-pair reference:
        # same variables, rows and pairs, bitwise-equal coefficients.
        checks.append(check_formulation_parity(problem, results))

        # The streaming cell-bound evaluator against the precomputed one: an
        # optimization for million-row relations, never a semantic fork.
        checks.append(check_streaming_parity(problem))

        # Incremental synthesis against the cold path: a session solving a
        # chain of mutate()-style edits must return, per edit, exactly what
        # a stateless cold solve of the edited problem returns.
        checks.extend(
            check_incremental_parity(problem, seed=self.mutation_seed)
        )

        witness = scenario.metadata.get("zero_error_weights")
        if witness is not None:
            checks.append(check_zero_error_witness(problem, witness))

        # Metamorphic checks replay every method's weights against a
        # permuted and a rescaled copy of the problem: the transforms are
        # semantics-preserving, so each error must reproduce exactly.
        for method, result in results.items():
            if result.error < 0:
                continue
            checks.append(
                check_permutation_invariance(
                    problem, result.weights, seed=self.mutation_seed, subject=method
                )
            )
            checks.append(
                check_rescaling_invariance(problem, result.weights, subject=method)
            )

        return OracleReport(scenario=scenario.name, results=results, checks=checks)

    def run_many(self, scenarios: Sequence[Scenario]) -> list[OracleReport]:
        return [self.run(scenario) for scenario in scenarios]
