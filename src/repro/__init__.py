"""RankHow reproduction: synthesizing linear scoring functions for rankings.

This package reproduces "Synthesizing Scoring Functions for Rankings Using
Symbolic Gradient Descent" (ICDE 2025).  Given a relation and a ranking of its
tuples -- but no information about the ranking function -- it synthesizes
simple linear scoring functions that approximate the ranking while honouring
user constraints on the weights.

Quick start::

    from repro import RankHow, RankingProblem, Ranking
    from repro.data import generate_uniform, ranking_from_scores

    relation = generate_uniform(num_tuples=200, num_attributes=4, seed=1)
    scores = relation.matrix() @ [0.4, 0.3, 0.2, 0.1]
    ranking = ranking_from_scores(scores, k=5)
    problem = RankingProblem(relation, ranking)
    result = RankHow().solve(problem)
    print(result.describe())

Sub-packages:

* :mod:`repro.core` -- the OPT problem, the RankHow MILP, SYM-GD, TREE.
* :mod:`repro.solvers` -- the MILP substrate (branch-and-bound on HiGHS LPs).
* :mod:`repro.data` -- the relational substrate and dataset generators.
* :mod:`repro.baselines` -- the competitors of Section VI.
* :mod:`repro.bench` -- the experiment harness reproducing every table/figure.
* :mod:`repro.engine` -- executors, fingerprints, and the result cache.
* :mod:`repro.service` -- the async, coalescing, batching query front-end.
* :mod:`repro.api` -- the method registry and the :class:`RankHowClient`
  facade: every solver and baseline behind one cached, serializable
  interface (``repro.list_methods()`` names them all).
* :mod:`repro.scenarios` -- the seeded workload generator: adversarial
  scenario families (ties, duplicates, tolerance boundaries, ...) plus a
  ``mutate()`` API, addressable through the request wire format.
* :mod:`repro.testing` -- the differential / metamorphic oracle that
  cross-checks every registered method on generated scenarios.
* :mod:`repro.obs` -- end-to-end observability: span tracing (service ->
  engine -> executor -> solver), a unified metrics registry with
  Prometheus/JSON exporters, and the workload profile recorder.

The api, engine, and service layers are exported lazily
(``repro.RankHowClient``, ``repro.SolveEngine``, ``repro.QueryServer``) so
that importing :mod:`repro` stays as light as the core algorithms.
"""

from repro.core import (
    ConstraintSet,
    LinearScoringFunction,
    PositionRangeConstraint,
    PrecedenceConstraint,
    RankHow,
    RankHowOptions,
    Ranking,
    RankingProblem,
    SymGD,
    SymGDOptions,
    SynthesisResult,
    ToleranceSettings,
    TreeOptions,
    TreeSolver,
    UNRANKED,
    WeightConstraint,
    fix_weight,
    group_weight_bound,
    max_weight,
    min_weight,
    position_error,
    verify_weights,
)

__version__ = "1.0.0"

__all__ = [
    "ConstraintSet",
    "LinearScoringFunction",
    "PositionRangeConstraint",
    "PrecedenceConstraint",
    "RankHow",
    "RankHowOptions",
    "Ranking",
    "RankingProblem",
    "SymGD",
    "SymGDOptions",
    "SynthesisResult",
    "ToleranceSettings",
    "TreeOptions",
    "TreeSolver",
    "UNRANKED",
    "WeightConstraint",
    "fix_weight",
    "group_weight_bound",
    "max_weight",
    "min_weight",
    "position_error",
    "verify_weights",
    "SolveEngine",
    "ResultCache",
    "QueryServer",
    "QueryServerOptions",
    "RankHowClient",
    "SynthesisRequest",
    "SynthesisSession",
    "SynthesisMethod",
    "MethodRegistry",
    "ProblemDelta",
    "register_method",
    "get_method",
    "list_methods",
    "method_capabilities",
    "Scenario",
    "generate_scenarios",
    "scenario_families",
    "DifferentialOracle",
    "OracleReport",
    "Observability",
    "Tracer",
    "MetricsRegistry",
    "WorkloadProfile",
    "WorkloadRecorder",
    "__version__",
]

#: Lazily resolved attributes -> (module, attribute).
_LAZY_EXPORTS = {
    "SolveEngine": ("repro.engine", "SolveEngine"),
    "ResultCache": ("repro.engine", "ResultCache"),
    "QueryServer": ("repro.service", "QueryServer"),
    "QueryServerOptions": ("repro.service", "QueryServerOptions"),
    "RankHowClient": ("repro.api", "RankHowClient"),
    "SynthesisRequest": ("repro.api", "SynthesisRequest"),
    "SynthesisSession": ("repro.api", "SynthesisSession"),
    "ProblemDelta": ("repro.core.delta", "ProblemDelta"),
    "SynthesisMethod": ("repro.api", "SynthesisMethod"),
    "MethodRegistry": ("repro.api", "MethodRegistry"),
    "register_method": ("repro.api", "register_method"),
    "get_method": ("repro.api", "get_method"),
    "list_methods": ("repro.api", "list_methods"),
    "method_capabilities": ("repro.api", "method_capabilities"),
    "Scenario": ("repro.scenarios", "Scenario"),
    "generate_scenarios": ("repro.scenarios", "generate"),
    "scenario_families": ("repro.scenarios", "list_families"),
    "DifferentialOracle": ("repro.testing", "DifferentialOracle"),
    "OracleReport": ("repro.testing", "OracleReport"),
    "Observability": ("repro.obs", "Observability"),
    "Tracer": ("repro.obs", "Tracer"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "WorkloadProfile": ("repro.obs", "WorkloadProfile"),
    "WorkloadRecorder": ("repro.obs", "WorkloadRecorder"),
}


def __getattr__(name: str):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value
