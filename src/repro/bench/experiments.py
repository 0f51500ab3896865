"""One entry point per table / figure of the paper's evaluation (Section VI).

Each ``experiment_*`` function builds the corresponding workload, runs the
relevant methods, and returns a list of
:class:`~repro.bench.reporting.ExperimentRecord` -- the same rows / series the
paper reports.  The pytest-benchmark wrappers in ``benchmarks/`` call these
functions and additionally assert the qualitative shapes described in
EXPERIMENTS.md.

All experiments accept explicit size parameters so tests can shrink them; the
defaults come from :class:`~repro.bench.harness.BenchmarkScale`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.api.registry import get_method
from repro.bench.harness import (
    BenchmarkScale,
    MethodBudget,
    csrankings_problem,
    nba_mvp_problem,
    nba_problem,
    run_method,
    synthetic_problem,
)
from repro.bench.reporting import ExperimentRecord
from repro.core.precision import verify_weights
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.symgd import SymGDOptions
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform

__all__ = [
    "experiment_case_study",
    "experiment_fig3a_big_picture",
    "experiment_fig3_vary_k",
    "experiment_fig3_vary_n",
    "experiment_fig3_vary_m",
    "experiment_table3_numerics",
    "experiment_fig3h_approximation",
    "experiment_fig3i_cell_size",
    "experiment_fig3jkl_scalability",
    "experiment_fig3mno_derived",
    "experiment_engine_throughput",
    "experiment_scenarios",
    "experiment_hotpaths",
    "experiment_incremental",
]

#: Methods compared in the exact-OPT figures (AdaRank is added for CSRankings,
#: following the paper which omits it from the NBA plots for readability).
_EXACT_FIGURE_METHODS = (
    "rankhow",
    "ordinal_regression",
    "linear_regression",
    "sampling",
)


def _record(
    experiment: str,
    dataset: str,
    method: str,
    params: dict,
    result,
) -> ExperimentRecord:
    k = int(result.diagnostics.get("k", params.get("k", 1)) or 1)
    return ExperimentRecord(
        experiment=experiment,
        dataset=dataset,
        method=method,
        params=dict(params),
        error=float(result.error),
        per_tuple_error=float(result.error) / max(k, 1),
        time_seconds=float(result.solve_time),
        extra={
            "optimal": result.optimal,
            "nodes": result.nodes,
            "verified": result.verified,
        },
    )


def _default_budget(scale: BenchmarkScale) -> MethodBudget:
    return MethodBudget(
        time_limit=scale.rankhow_time_limit, node_limit=150, samples=2000
    )


# -- E1: Section VI-B case study ----------------------------------------------------


def experiment_case_study(
    scale: BenchmarkScale | None = None,
    num_candidates: int = 13,
    methods: Sequence[str] = ("rankhow", "tree", "tree_naive"),
) -> list[ExperimentRecord]:
    """NBA MVP case study: RankHow vs the TREE baseline (with / without eps1).

    The paper reports RankHow solving the 13-candidate, 8-attribute instance in
    1.6 s with error 6 while TREE needs hours and lands on a worse function;
    the reproduction checks the same ordering of methods on the simulated MVP
    vote.
    """
    scale = scale or BenchmarkScale.from_environment()
    problem = nba_mvp_problem(
        num_tuples=scale.nba_tuples, num_candidates=num_candidates
    )
    records = []
    for method in methods:
        budget = MethodBudget(
            time_limit=(
                scale.tree_time_limit if method.startswith("tree") else scale.rankhow_time_limit
            ),
            node_limit=300,
        )
        result = run_method(method, problem, budget)
        records.append(
            _record(
                "case_study",
                "nba_mvp",
                method,
                {"k": problem.k, "m": problem.num_attributes},
                result,
            )
        )
    return records


# -- E2: Figure 3a ------------------------------------------------------------------


def experiment_fig3a_big_picture(
    scale: BenchmarkScale | None = None,
    num_attributes: int = 5,
    k: int = 6,
) -> list[ExperimentRecord]:
    """Error-vs-time snapshot of every method on the NBA data (m=5, k=6)."""
    scale = scale or BenchmarkScale.from_environment()
    problem = nba_problem(
        num_tuples=scale.nba_tuples, num_attributes=num_attributes, k=k
    )
    methods = (
        "rankhow",
        "symgd_adaptive",
        "ordinal_regression",
        "linear_regression",
        "adarank",
        "sampling",
    )
    budget = _default_budget(scale)
    results = _run_methods_on_problem(problem, methods, budget)
    return [
        _record("fig3a", "nba", method, {"k": k, "m": num_attributes}, results[method])
        for method in methods
    ]


# -- E3/E4/E5: Figures 3b-3g --------------------------------------------------------


def _run_methods_on_problem(
    problem: RankingProblem,
    methods: Sequence[str],
    budget: MethodBudget,
) -> dict[str, object]:
    """Run every method on one problem.

    The exact solver runs last, warm-started with the best competitor solution
    (its MIP start) -- the role the paper delegates to Gurobi's built-in
    primal heuristics.  The competitor solution is first tightened by a short
    adaptive SYM-GD descent: with the benchmark-scale node budgets the
    branch-and-bound often cannot close the gap between the raw competitor
    incumbent and the true optimum on small instances (the truncated search
    used to report a *higher* per-tuple error at k=2 than at k=5, inverting
    the paper's error-grows-with-k trend), while the descent reaches the
    optimum in a few local solves and can never return something worse than
    its seed.
    """
    ordered = [name for name in methods if name != "rankhow"]
    results: dict[str, object] = {}
    best_weights = None
    best_error = None
    for method in ordered:
        result = run_method(method, problem, budget)
        results[method] = result
        if result.error >= 0 and (best_error is None or result.error < best_error):
            best_error = result.error
            best_weights = result.weights
    if "rankhow" in methods:
        warm_start = best_weights
        refine_time = 0.0
        if best_weights is not None and best_error is not None and best_error > 0:
            refined = get_method("symgd_adaptive").synthesize(
                problem,
                {
                    "cell_size": 0.1,
                    "time_limit": min(6.0, budget.time_limit or 6.0),
                    "seed_point": best_weights,
                    "solver_options": {
                        "node_limit": max(budget.node_limit, 150),
                        "verify": False,
                        "warm_start_strategy": "none",
                    },
                },
            )
            refine_time = refined.solve_time
            if 0 <= refined.error <= best_error:
                warm_start = refined.weights
        exact_budget = replace(budget, warm_start=warm_start)
        result = run_method("rankhow", problem, exact_budget)
        # The refinement is part of rankhow's primal-heuristic cost (the role
        # Gurobi's heuristics play inside the paper's reported solve times),
        # so its wall clock is attributed to the rankhow record.
        results["rankhow"] = replace(result, solve_time=result.solve_time + refine_time)
    return results


def _sweep(
    experiment: str,
    dataset: str,
    problems: dict[object, RankingProblem],
    param_name: str,
    methods: Sequence[str],
    budget: MethodBudget,
) -> list[ExperimentRecord]:
    records = []
    for value, problem in problems.items():
        results = _run_methods_on_problem(problem, methods, budget)
        for method in methods:
            records.append(
                _record(
                    experiment,
                    dataset,
                    method,
                    {param_name: value, "k": problem.k, "m": problem.num_attributes},
                    results[method],
                )
            )
    return records


def experiment_fig3_vary_k(
    dataset: str = "nba",
    k_values: Sequence[int] | None = None,
    scale: BenchmarkScale | None = None,
    methods: Sequence[str] = _EXACT_FIGURE_METHODS,
) -> list[ExperimentRecord]:
    """Figures 3b (NBA) and 3e (CSRankings): error per tuple as k grows."""
    scale = scale or BenchmarkScale.from_environment()
    if dataset == "nba":
        k_values = list(k_values or (2, 3, 4, 5, 6))
        problems = {
            k: nba_problem(num_tuples=scale.nba_tuples, num_attributes=5, k=k)
            for k in k_values
        }
        experiment = "fig3b"
    elif dataset == "csrankings":
        k_values = list(k_values or (5, 10, 15, 20, 25))
        methods = tuple(methods) + ("adarank",)
        problems = {
            k: csrankings_problem(
                num_tuples=scale.csrankings_tuples, num_attributes=10, k=k
            )
            for k in k_values
        }
        experiment = "fig3e"
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return _sweep(experiment, dataset, problems, "k", methods, _default_budget(scale))


def experiment_fig3_vary_n(
    dataset: str = "nba",
    n_values: Sequence[int] | None = None,
    scale: BenchmarkScale | None = None,
    methods: Sequence[str] = _EXACT_FIGURE_METHODS,
) -> list[ExperimentRecord]:
    """Figures 3c (NBA) and 3f (CSRankings): error per tuple as n grows."""
    scale = scale or BenchmarkScale.from_environment()
    if dataset == "nba":
        base = scale.nba_tuples
        n_values = list(n_values or (base // 4, base // 2, 3 * base // 4, base))
        problems = {
            n: nba_problem(num_tuples=n, num_attributes=5, k=4) for n in n_values
        }
        experiment = "fig3c"
    elif dataset == "csrankings":
        base = scale.csrankings_tuples
        n_values = list(n_values or (base // 4, base // 2, 3 * base // 4, base))
        methods = tuple(methods) + ("adarank",)
        problems = {
            n: csrankings_problem(num_tuples=n, num_attributes=10, k=10)
            for n in n_values
        }
        experiment = "fig3f"
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return _sweep(experiment, dataset, problems, "n", methods, _default_budget(scale))


def experiment_fig3_vary_m(
    dataset: str = "nba",
    m_values: Sequence[int] | None = None,
    scale: BenchmarkScale | None = None,
    methods: Sequence[str] = _EXACT_FIGURE_METHODS,
) -> list[ExperimentRecord]:
    """Figures 3d (NBA) and 3g (CSRankings): error per tuple as m grows."""
    scale = scale or BenchmarkScale.from_environment()
    if dataset == "nba":
        m_values = list(m_values or (4, 5, 6, 7, 8))
        problems = {
            m: nba_problem(num_tuples=scale.nba_tuples, num_attributes=m, k=4)
            for m in m_values
        }
        experiment = "fig3d"
    elif dataset == "csrankings":
        m_values = list(m_values or (5, 10, 15, 20, 27))
        methods = tuple(methods) + ("adarank",)
        problems = {
            m: csrankings_problem(
                num_tuples=scale.csrankings_tuples, num_attributes=m, k=10
            )
            for m in m_values
        }
        experiment = "fig3g"
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return _sweep(experiment, dataset, problems, "m", methods, _default_budget(scale))


# -- E6: Table III ------------------------------------------------------------------


def experiment_table3_numerics(
    num_tuples: int = 10,
    num_attributes: int = 8,
    k_values: Sequence[int] | None = None,
    scale: BenchmarkScale | None = None,
) -> list[ExperimentRecord]:
    """Table III: verified position error with a sufficient vs a tiny eps1.

    Four method variants are reported, exactly as in the paper: RankHow+ / OR+
    use ``eps1 = 1e-4`` (the Section V-A construction), RankHow- / OR- use
    ``eps1 = 1e-10`` (numerics ignored).  The reported error is the *verified*
    error of the returned weights, recomputed with exact arithmetic.
    """
    scale = scale or BenchmarkScale.from_environment()
    k_values = list(k_values or range(1, num_tuples + 1))
    base = nba_problem(
        num_tuples=scale.nba_tuples, num_attributes=num_attributes, k=num_tuples
    )
    # Restrict to the 10 top-ranked tuples, as in the paper.
    top_indices = base.top_k_indices()[:num_tuples]
    relation = base.relation.take(top_indices)

    settings = {
        "plus": ToleranceSettings(tie_eps=5e-5, eps1=1e-4, eps2=0.0),
        "minus": ToleranceSettings(tie_eps=5e-5, eps1=1e-10, eps2=0.0),
    }
    records = []
    for k in k_values:
        for variant, tolerance in settings.items():
            # The given ranking keeps the subset's original MP*PER order:
            # tuple i of the subset sits at position i + 1.
            given_scores = np.arange(num_tuples, 0, -1, dtype=float)
            ranking = ranking_from_scores(given_scores, k=k)
            problem = RankingProblem(
                relation,
                ranking,
                attributes=base.attributes,
                tolerances=tolerance,
            )
            rankhow_result = get_method("rankhow").synthesize(
                problem,
                {"node_limit": 200, "time_limit": scale.rankhow_time_limit},
            )
            rankhow_exact = verify_weights(problem, rankhow_result.weights).exact_error
            records.append(
                ExperimentRecord(
                    experiment="table3",
                    dataset="nba_subset",
                    method=f"rankhow_{variant}",
                    params={"k": k, "eps1": tolerance.eps1},
                    error=float(rankhow_exact),
                    per_tuple_error=float(rankhow_exact) / k,
                    time_seconds=rankhow_result.solve_time,
                    extra={"claimed": rankhow_result.objective},
                )
            )
            ordinal = get_method("ordinal_regression").synthesize(
                problem, {"separation_margin": tolerance.eps1}
            )
            ordinal_exact = verify_weights(problem, ordinal.weights).exact_error
            records.append(
                ExperimentRecord(
                    experiment="table3",
                    dataset="nba_subset",
                    method=f"ordinal_regression_{variant}",
                    params={"k": k, "eps1": tolerance.eps1},
                    error=float(ordinal_exact),
                    per_tuple_error=float(ordinal_exact) / k,
                    time_seconds=ordinal.solve_time,
                    extra={"claimed": ordinal.objective},
                )
            )
    return records


# -- E7: Figure 3h ------------------------------------------------------------------


def experiment_fig3h_approximation(
    scale: BenchmarkScale | None = None,
    k_values: Sequence[int] = (3, 4, 5),
    m_values: Sequence[int] = (5, 6, 7),
    n_values: Sequence[int] | None = None,
) -> list[ExperimentRecord]:
    """Figure 3h: SYM-GD time ratio vs extra error relative to global RankHow.

    Every point re-runs one configuration from the vary-k / vary-n / vary-m
    sweeps with SYM-GD (fixed cell 0.1) and with global RankHow; the record
    stores the time ratio and the extra per-tuple error.
    """
    scale = scale or BenchmarkScale.from_environment()
    if n_values is None:
        n_values = (scale.nba_tuples // 2, scale.nba_tuples)
    budget = _default_budget(scale)
    configurations = (
        [("k", {"k": k, "m": 5, "n": scale.nba_tuples}) for k in k_values]
        + [("m", {"k": 4, "m": m, "n": scale.nba_tuples}) for m in m_values]
        + [("n", {"k": 4, "m": 5, "n": n}) for n in n_values]
    )
    records = []
    for varied, config in configurations:
        problem = nba_problem(
            num_tuples=int(config["n"]),
            num_attributes=int(config["m"]),
            k=int(config["k"]),
        )
        global_result = run_method("rankhow", problem, budget)
        local_result = run_method("symgd", problem, budget)
        time_ratio = local_result.solve_time / max(global_result.solve_time, 1e-9)
        extra_error = (local_result.error - global_result.error) / max(problem.k, 1)
        records.append(
            ExperimentRecord(
                experiment="fig3h",
                dataset="nba",
                method="symgd_vs_global",
                params={"varied": varied, **config},
                error=float(local_result.error),
                per_tuple_error=float(local_result.error) / max(problem.k, 1),
                time_seconds=local_result.solve_time,
                extra={
                    "time_ratio": time_ratio,
                    "extra_error_per_tuple": extra_error,
                    "global_error": global_result.error,
                    "global_time": global_result.solve_time,
                },
            )
        )
    return records


# -- E8: Figure 3i ------------------------------------------------------------------


def experiment_fig3i_cell_size(
    scale: BenchmarkScale | None = None,
    cell_sizes: Sequence[float] = (0.001, 0.002, 0.004, 0.006, 0.008, 0.01),
    num_attributes: int = 8,
    k: int = 10,
) -> list[ExperimentRecord]:
    """Figure 3i: error and execution time as the SYM-GD cell size grows."""
    scale = scale or BenchmarkScale.from_environment()
    problem = nba_problem(
        num_tuples=scale.nba_tuples, num_attributes=num_attributes, k=k
    )
    records = []
    for cell_size in cell_sizes:
        result = get_method("symgd").synthesize(
            problem,
            {
                "cell_size": cell_size,
                "time_limit": scale.symgd_time_limit,
                "solver_options": {
                    "node_limit": 100,
                    "verify": False,
                    "warm_start_strategy": "none",
                },
            },
        )
        records.append(
            _record(
                "fig3i",
                "nba",
                "symgd",
                {"cell_size": cell_size, "k": k, "m": num_attributes},
                result,
            )
        )
    return records


# -- E9: Figures 3j-3l --------------------------------------------------------------


def experiment_fig3jkl_scalability(
    scale: BenchmarkScale | None = None,
    distributions: Sequence[str] = ("uniform", "correlated", "anticorrelated"),
    k_values: Sequence[int] = (5, 10, 15, 20, 25),
    num_attributes: int = 5,
) -> list[ExperimentRecord]:
    """Figures 3j-3l: SYM-GD error and time on large synthetic data, by k."""
    scale = scale or BenchmarkScale.from_environment()
    records = []
    for distribution in distributions:
        for k in k_values:
            problem = synthetic_problem(
                distribution,
                num_tuples=scale.synthetic_tuples,
                num_attributes=num_attributes,
                k=k,
                exponent=3.0,
            )
            result = get_method("symgd").synthesize(
                problem,
                {
                    "cell_size": 0.01,
                    "time_limit": scale.symgd_time_limit,
                    "solver_options": {
                        "node_limit": 100,
                        "verify": False,
                        "warm_start_strategy": "none",
                    },
                },
            )
            records.append(
                _record(
                    f"fig3jkl_{distribution}",
                    distribution,
                    "symgd",
                    {"k": k, "m": num_attributes},
                    result,
                )
            )
    return records


# -- E11: engine throughput / latency ----------------------------------------------


def experiment_engine_throughput(
    scale: BenchmarkScale | None = None,
    backends: Sequence[str] = ("serial", "process"),
    num_seeds: int = 6,
    num_queries: int = 12,
    distinct_queries: int = 3,
    num_tuples: int | None = None,
) -> list[ExperimentRecord]:
    """Throughput of the execution substrate (not a figure of the paper).

    Three workloads per backend:

    * ``multiseed`` -- one multi-seed SYM-GD run (``num_seeds`` independent
      descents); the per-seed descents are what the executor parallelizes, so
      ``serial`` vs ``process`` wall-clock is the speedup of interest.
    * ``sampling`` -- one chunked sampling-baseline run (20,000 samples in 8
      chunks); the chunks are what the executor parallelizes.
    * ``queries_cold`` / ``queries_warm`` -- the same batch of how-to-rank
      requests solved twice through one :class:`~repro.engine.SolveEngine`;
      the warm pass must be answered entirely from the result cache without
      invoking any solver.

    Every record carries the achieved error (and the solve records their
    weights) so backend parity -- identical results regardless of backend --
    can be asserted by the benchmark wrapper.
    """
    from repro.baselines.sampling import SamplingBaseline, SamplingOptions
    from repro.engine import SolveEngine, SolveRequest, available_cpu_count

    scale = scale or BenchmarkScale.from_environment()
    if num_tuples is None:
        num_tuples = max(scale.nba_tuples // 2, 60)
    problem = nba_problem(num_tuples=num_tuples, num_attributes=5, k=5)
    symgd_options = SymGDOptions(
        cell_size=0.1,
        adaptive=False,
        max_iterations=12,
        solver_options=RankHowOptions(
            node_limit=200, verify=False, warm_start_strategy="none"
        ),
    )
    sampling_options = SamplingOptions(num_samples=20_000, chunk_size=2_500, seed=7)
    query_params = {
        "cell_size": 0.1,
        "max_iterations": 8,
        "solver_options": {
            "node_limit": 150,
            "verify": False,
            "warm_start_strategy": "none",
        },
    }
    query_problems = [
        nba_problem(num_tuples=num_tuples, num_attributes=5, k=3 + index)
        for index in range(distinct_queries)
    ]
    requests = [
        SolveRequest(query_problems[index % distinct_queries], "symgd", query_params)
        for index in range(num_queries)
    ]

    records = []
    for backend in backends:
        with SolveEngine(backend=backend) as engine:
            start = time.perf_counter()
            multiseed = engine.multi_seed_symgd(
                problem, options=symgd_options, num_seeds=num_seeds
            )
            multiseed_wall = time.perf_counter() - start
            records.append(
                ExperimentRecord(
                    experiment="engine",
                    dataset="nba",
                    method=f"multiseed[{backend}]",
                    params={"num_seeds": num_seeds, "backend": backend},
                    error=float(multiseed.error),
                    per_tuple_error=float(multiseed.error) / max(problem.k, 1),
                    time_seconds=multiseed_wall,
                    extra={
                        "workers": engine.executor.max_workers,
                        "cpus": available_cpu_count(),
                        "per_seed_errors": multiseed.diagnostics["per_seed_errors"],
                        "weights": [float(w) for w in multiseed.weights],
                    },
                )
            )

            start = time.perf_counter()
            sampled = SamplingBaseline(
                sampling_options, executor=engine.executor
            ).solve(problem)
            records.append(
                ExperimentRecord(
                    experiment="engine",
                    dataset="nba",
                    method=f"sampling[{backend}]",
                    params={
                        "samples": sampling_options.num_samples,
                        "chunks": sampled.diagnostics["chunks"],
                        "backend": backend,
                    },
                    error=float(sampled.error),
                    per_tuple_error=float(sampled.error) / max(problem.k, 1),
                    time_seconds=time.perf_counter() - start,
                    extra={
                        "workers": engine.executor.max_workers,
                        "weights": [float(w) for w in sampled.weights],
                    },
                )
            )

            for phase in ("queries_cold", "queries_warm"):
                start = time.perf_counter()
                outcomes = engine.solve_batch(requests)
                wall = time.perf_counter() - start
                records.append(
                    ExperimentRecord(
                        experiment="engine",
                        dataset="nba",
                        method=f"{phase}[{backend}]",
                        params={
                            "queries": num_queries,
                            "distinct": distinct_queries,
                            "backend": backend,
                        },
                        error=float(max(o.result.error for o in outcomes)),
                        per_tuple_error=0.0,
                        time_seconds=wall,
                        extra={
                            "cache_hits": sum(o.cache_hit for o in outcomes),
                            "solver_invocations": engine.solver_invocations,
                            "throughput": num_queries / wall if wall > 0 else 0.0,
                        },
                    )
                )
    return records


# -- E12: generated adversarial scenarios -------------------------------------------


def experiment_scenarios(
    families: Sequence[str] | None = None,
    seed: int = 20260730,
    per_family: int = 1,
    methods: Sequence[str] = ("symgd", "ordinal_regression", "sampling"),
    budget: MethodBudget | None = None,
) -> list[ExperimentRecord]:
    """The ``scenario`` experiment source (not a figure of the paper).

    Runs the given methods over the :mod:`repro.scenarios` workload
    generator's adversarial families -- tie groups, duplicate tuples,
    degenerate corners, tolerance boundaries, heavy tails, large-k, wide-m,
    constrained instances -- producing one record per (scenario, method).
    Everything is keyed by the master ``seed``, so a record set is
    reproducible byte-for-byte; the benchmark wrapper asserts exactly that,
    plus basic lawfulness of every error (the full invariant battery lives
    in ``tests/scenarios``).
    """
    from repro.scenarios import generate

    budget = budget or MethodBudget(time_limit=3.0, node_limit=60, samples=200)
    records = []
    for scenario in generate(families, seed=seed, per_family=per_family):
        problem = scenario.problem
        for method in methods:
            result = run_method(method, problem, budget)
            records.append(
                _record(
                    "scenario",
                    scenario.family,
                    method,
                    {
                        "scenario": scenario.name,
                        "n": problem.num_tuples,
                        "m": problem.num_attributes,
                        "k": problem.k,
                    },
                    result,
                )
            )
    return records


# -- E10: Figures 3m-3o -------------------------------------------------------------


def experiment_fig3mno_derived(
    scale: BenchmarkScale | None = None,
    distributions: Sequence[str] = ("uniform", "correlated", "anticorrelated"),
    exponents: Sequence[float] = (2.0, 3.0, 4.0, 5.0),
    num_attributes: int = 5,
    k: int = 10,
) -> list[ExperimentRecord]:
    """Figures 3m-3o: effect of derived attributes ``A_i^2`` on SYM-GD error."""
    scale = scale or BenchmarkScale.from_environment()
    records = []
    for distribution in distributions:
        for exponent in exponents:
            for with_derived in (False, True):
                problem = synthetic_problem(
                    distribution,
                    num_tuples=scale.synthetic_tuples,
                    num_attributes=num_attributes,
                    k=k,
                    exponent=exponent,
                    with_derived=with_derived,
                )
                result = get_method("symgd").synthesize(
                    problem,
                    {
                        "cell_size": 0.05,
                        "time_limit": scale.symgd_time_limit,
                        "solver_options": {
                            "node_limit": 100,
                            "verify": False,
                            "warm_start_strategy": "none",
                        },
                    },
                )
                records.append(
                    _record(
                        f"fig3mno_{distribution}",
                        distribution,
                        "symgd_derived" if with_derived else "symgd_original",
                        {"exponent": exponent, "k": k, "m": problem.num_attributes},
                        result,
                    )
                )
    return records


# -- E11: solver hot-path micro-benchmarks ------------------------------------------


def experiment_hotpaths(
    scale: BenchmarkScale | None = None,
    cells_tuples: int = 800,
    cells_max: int = 256,
) -> list[ExperimentRecord]:
    """Micro-benchmarks of the cell-bound, MILP-build and node-LP hot paths.

    ``hotpaths_cells`` classifies a simplex-covering grid twice: with the
    scalar reference loop of :mod:`repro.testing` and with the batched
    matrix-program classifier (``extra["cells_per_second"]``).
    ``hotpaths_formulation`` builds the RankHow MILP of the grid's first 8
    cells twice: with the per-pair reference loop of
    :mod:`repro.testing` and with the one-pass build
    (``extra["builds_per_second"]``); ``extra["matches_reference"]`` records
    that every variable, row and big-M is identical.  ``hotpaths_lp``
    replays the node LPs of one n=10 branch-and-bound solve over the full
    weight box and one n=1000 SYM-GD cell, best of three passes, through the
    ``linprog`` reference of :mod:`repro.testing` and through
    :meth:`LinearProgram.solve` (``extra["lps_per_second"]``).  The direct
    leg replays each relaxation's solves in order on one copy of it, so it
    repeats the branch-and-bound's cold first solves and warm re-solves;
    ``extra["matches_reference"]`` records that the replay is bit-identical
    to the recorded solves, that every cold solve is bit-identical to the
    reference (status, ``x``, objective, iteration count) and that every
    warm one meets :func:`repro.testing.lp_resolve_differences`'s contract
    with it.  ``lp[seed]`` builds and solves the ordinal-regression seed LP
    of that n=1000 SYM-GD relation, best of three (one row per ordered pair,
    held sparse all the way into HiGHS); ``extra["matches_reference"]``
    compares its solution with the ``linprog`` reference.
    """
    from repro.baselines.ordinal_regression import OrdinalRegressionBaseline
    from repro.core.cells import cell_error_bounds_many, grid_cells
    from repro.core.formulation import RankHowFormulation
    from repro.solvers.lp import LinearProgram
    from repro.testing import (
        cell_error_bounds_reference,
        formulation_reference,
        lp_differences,
        lp_reference,
        lp_resolve_differences,
        model_differences,
        recorded_lps,
    )

    records: list[ExperimentRecord] = []
    problem = synthetic_problem("uniform", num_tuples=cells_tuples, k=10, seed=0)
    cells = grid_cells(problem.num_attributes, 0.2, max_cells=cells_max)
    start = time.perf_counter()
    reference = [cell_error_bounds_reference(problem, cell) for cell in cells]
    reference_wall = time.perf_counter() - start
    start = time.perf_counter()
    batched = cell_error_bounds_many(problem, cells)
    batched_wall = time.perf_counter() - start
    for label, wall, bounds in (
        ("cell_bounds[reference]", reference_wall, reference),
        ("cell_bounds[batched]", batched_wall, batched),
    ):
        records.append(
            ExperimentRecord(
                experiment="hotpaths_cells",
                dataset="uniform",
                method=label,
                params={"n": cells_tuples, "cells": len(cells)},
                error=float(sum(low for low, _ in bounds)),
                time_seconds=wall,
                extra={
                    "cells_per_second": len(cells) / max(wall, 1e-9),
                    "matches_reference": bounds == reference,
                },
            )
        )

    boxes = [(cell.lower, cell.upper) for cell in cells[:8]]
    models = {}
    for label, build in (
        ("formulation[reference]", formulation_reference),
        ("formulation[vectorized]", RankHowFormulation),
    ):
        start = time.perf_counter()
        models[label] = [build(problem, cell_bounds=box).model for box in boxes]
        wall = time.perf_counter() - start
        same = [
            not model_differences(ours, ref) and ours.variable_names == ref.variable_names
            for ours, ref in zip(models[label], models["formulation[reference]"])
        ]
        records.append(
            ExperimentRecord(
                experiment="hotpaths_formulation",
                dataset="uniform",
                method=label,
                params={"n": cells_tuples, "cells": len(boxes)},
                time_seconds=wall,
                extra={
                    "builds_per_second": len(boxes) / max(wall, 1e-9),
                    "binaries": sum(int(m.binary_mask().sum()) for m in models[label]),
                    "matches_reference": all(same),
                },
            )
        )

    exact = synthetic_problem("uniform", 10, num_attributes=3, k=6, exponent=2.0, seed=1)
    cell = synthetic_problem("uniform", 1000, num_attributes=4, k=10, seed=0)
    with recorded_lps() as node_lps:
        RankHow(RankHowOptions(node_limit=60)).solve(exact, cell_bounds=(np.zeros(3), np.ones(3)))
        get_method("symgd").synthesize(
            cell, {"max_iterations": 1, "solver_options": {"node_limit": 20}}
        )
    legs = {}
    for label, solve in (("lp[linprog]", lp_reference), ("lp[direct]", LinearProgram.solve)):
        walls = []
        for _ in range(3):
            models = {id(lp): lp.copy() for lp, *_ in node_lps}
            start = time.perf_counter()
            solved = []
            for lp, objective, lower, upper, *_ in node_lps:
                model = models[id(lp)]
                model.objective, model.lower_bounds, model.upper_bounds = objective, lower, upper
                solved.append(solve(model))
            walls.append(time.perf_counter() - start)
        legs[label] = (solved, min(walls))
    reference = legs["lp[linprog]"][0]
    problems = []
    for (lp, objective, lower, upper, warm, recorded), ours, cold in zip(
        node_lps, legs["lp[direct]"][0], reference
    ):
        lp.objective, lp.lower_bounds, lp.upper_bounds = objective, lower, upper
        problems += lp_differences(ours, recorded)
        problems += lp_resolve_differences(lp, ours, cold) if warm else lp_differences(ours, cold)
    for label, (solved, wall) in legs.items():
        records.append(
            ExperimentRecord(
                experiment="hotpaths_lp",
                dataset="uniform",
                method=label,
                params={"lps": len(node_lps), "models": len(models)},
                time_seconds=wall,
                extra={
                    "lps_per_second": len(node_lps) / max(wall, 1e-9),
                    "iterations": sum(solution.iterations for solution in solved),
                    "matches_reference": solved is reference or not problems,
                },
            )
        )

    walls = []
    for _ in range(3):
        start = time.perf_counter()
        seed_lp, _ = OrdinalRegressionBaseline().build_lp(cell)
        solution = seed_lp.solve()
        walls.append(time.perf_counter() - start)
    records.append(
        ExperimentRecord(
            experiment="hotpaths_lp",
            dataset="uniform",
            method="lp[seed]",
            params={
                "n": cell.num_tuples,
                "rows": seed_lp.num_constraints,
                "columns": seed_lp.num_vars,
            },
            time_seconds=min(walls),
            extra={
                "iterations": solution.iterations,
                "matches_reference": not lp_differences(solution, lp_reference(seed_lp)),
            },
        )
    )
    return records


# -- E10: incremental synthesis (delta-aware sessions) ------------------------------


def experiment_incremental(
    scale: BenchmarkScale | None = None,
    num_tuples: int = 24,
    num_attributes: int = 3,
    k: int = 4,
    node_limit: int = 40,
    seed: int = 11,
) -> list[ExperimentRecord]:
    """Cold vs. incremental re-solve of an interactive edit chain.

    Models the analyst loop the delta layer exists for: a base problem is
    edited through ``scenarios.mutate()``-style deltas (jitter, tolerance
    tightening), inspected, partially undone (:meth:`SynthesisSession.rewind`),
    and re-solved -- six visited states, one of them a revisit.  Two legs
    run the same visit sequence:

    * ``cold`` -- every visited state solved from scratch through the
      registry, exactly as a stateless caller would;
    * ``incremental`` -- one session: composed fingerprints dedupe the
      revisited state into a cache hit (zero LP iterations) and every other
      state solves bitwise-identically to cold.

    The exact solver runs with a weak (``uniform``) warm-start strategy so
    every solve does real LP work -- with the default seeding the
    incumbent-cutoff presolve prunes these sizes at the root and there
    would be no iterations to compare.  ``extra["lp_iterations"]`` counts
    HiGHS iterations actually performed in that leg (zero for a cache hit),
    so the totals the bench asserts on are work done, not work remembered.
    ``extra["cache_hit"]`` marks each visit, and a closing
    ``incremental_cache`` record holds the session engine's cache hits and
    misses.
    """
    from repro.api.client import RankHowClient
    from repro.scenarios.generator import mutation_delta

    scale = scale or BenchmarkScale.from_environment()
    relation = generate_uniform(
        num_tuples=num_tuples, num_attributes=num_attributes, seed=seed
    )
    weights = np.linspace(0.5, 0.2, num_attributes)
    weights = weights / weights.sum()
    base = RankingProblem(
        relation, ranking_from_scores(relation.matrix() @ weights, k=k)
    )
    options = {
        "node_limit": node_limit,
        "time_limit": scale.rankhow_time_limit,
        "verify": False,
        "warm_start_strategy": "uniform",
    }

    # The edit script: (kind, seed) pairs applied in order, with a rewind in
    # the middle.  None = rewind two edits (back to the first jitter state).
    script = [
        ("jitter", 101),
        ("tighten_tolerance", 102),
        ("jitter", 103),
        None,
        ("jitter", 104),
    ]

    # Materialize the visited problems once (cold leg + parity reference).
    visited = [base]
    stack = [base]
    for step in script:
        if step is None:
            stack = stack[:-2]
            visited.append(stack[-1])
            continue
        kind, mutation_seed = step
        deltas, _ = mutation_delta(stack[-1], kind, seed=mutation_seed)
        head = stack[-1]
        for delta in deltas:
            head = delta.apply(head)
        stack.append(head)
        visited.append(head)

    records: list[ExperimentRecord] = []

    def _visit_record(mode, index, result, lp_iterations, cache_hit, wall):
        return ExperimentRecord(
            experiment="incremental_chain",
            dataset="uniform",
            method=mode,
            params={"visit": index, "n": num_tuples, "k": k},
            error=float(result.error),
            per_tuple_error=float(result.error) / max(k, 1),
            time_seconds=wall,
            extra={
                "lp_iterations": int(lp_iterations),
                "cache_hit": cache_hit,
                "status": result.diagnostics.get("status"),
                # Exact float values (not rounded): the bench asserts the
                # incremental leg's weights are bitwise the cold leg's.
                "weights": [float(w) for w in result.weights],
            },
        )

    # -- cold leg: every visited state from scratch ---------------------------
    adapter = get_method("rankhow")
    for index, problem in enumerate(visited):
        start = time.perf_counter()
        result = adapter.synthesize(problem, options)
        wall = time.perf_counter() - start
        records.append(
            _visit_record(
                "cold", index, result, result.diagnostics["lp_iterations"], False, wall
            )
        )

    # -- incremental leg: one session ------------------------------------------
    with RankHowClient() as client:
        session = client.session(base, method="rankhow", options=options)

        def _solve_and_record(index):
            start = time.perf_counter()
            outcome = session.solve()
            wall = time.perf_counter() - start
            performed = (
                0
                if outcome.cache_hit
                else outcome.result.diagnostics["lp_iterations"]
            )
            records.append(
                _visit_record(
                    "incremental",
                    index,
                    outcome.result,
                    performed,
                    outcome.cache_hit,
                    wall,
                )
            )

        _solve_and_record(0)
        for index, step in enumerate(script, start=1):
            if step is None:
                session.rewind(2)
            else:
                kind, mutation_seed = step
                deltas, _ = mutation_delta(session.problem, kind, seed=mutation_seed)
                session.edit(*deltas)
            _solve_and_record(index)
        cache = client.stats()["cache"]
        records.append(
            ExperimentRecord(
                experiment="incremental_cache",
                dataset="uniform",
                method="incremental",
                params={"n": num_tuples, "k": k},
                extra={"hits": cache["hits"], "misses": cache["misses"]},
            )
        )
    return records


def experiment_dataplane(
    num_tuples: int = 1_000_000,
    sweep_candidates: int = 24,
    milp_tuples: int = 2_000,
    milp_k: int = 10,
    seed: int = 20260730,
) -> list[ExperimentRecord]:
    """The million-row data plane: build, prune, and evaluate under budget.

    * ``dataplane_massive`` -- the heavy ``massive`` scenario at
      ``num_tuples`` rows (float32 memmap columns, streamed generation):
      build the relation and ranking, run the rank-dominance prune, and
      sweep ``sweep_candidates`` simplex weight vectors through
      :meth:`~repro.core.problem.RankingProblem.error_of`, one call per
      candidate.  Each leg records wall-clock and its ``tracemalloc`` peak
      -- the resident-transient figure the bench asserts stays bounded
      while the relation itself lives in file-backed pages.
    * ``dataplane_parity`` -- every (non-heavy) scenario family: the prune
      ratio, and whether the MILP built on the pruned problem equals the
      full one (``extra["model_equal"]``), which is what makes RankHow's
      always-on prune answer-neutral.
    * ``dataplane_milp`` -- the naive (no dominance elimination) MILP at
      ``milp_tuples`` correlated rows, full vs. pruned: indicator/variable
      counts, the reduction ratio pruning buys before the solver ever
      runs, and each build's ``tracemalloc`` peak (the model stores its
      rows sparse, so the peak follows the nonzeros, not rows x variables).

    Each leg that draws random data has its own generator, derived from
    ``(seed, leg)``, so one leg's draws never shift another's.
    """
    import tracemalloc

    from repro.core.formulation import RankHowFormulation
    from repro.core.prune import prune_problem
    from repro.data.relation import Relation
    from repro.data.rng import derive_rng
    from repro.scenarios import generate_one, list_families
    from repro.testing import model_differences

    records: list[ExperimentRecord] = []

    # -- million-row end-to-end, bounded transients ---------------------------
    index = 1 if num_tuples >= 1_000_000 else 0

    def _timed(fn):
        tracemalloc.start()
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return value, wall, peak

    scenario, build_wall, build_peak = _timed(
        lambda: generate_one("massive", index, seed)
    )
    problem = scenario.problem
    records.append(
        ExperimentRecord(
            experiment="dataplane_massive",
            dataset="massive",
            method="build",
            params={"n": problem.num_tuples, "index": index},
            time_seconds=build_wall,
            extra={
                "peak_bytes": int(build_peak),
                "backend": scenario.metadata["backend"],
                "dtype": scenario.metadata["dtype"],
            },
        )
    )

    info, prune_wall, prune_peak = _timed(lambda: prune_problem(problem))
    records.append(
        ExperimentRecord(
            experiment="dataplane_massive",
            dataset="massive",
            method="prune",
            params={"n": problem.num_tuples},
            time_seconds=prune_wall,
            extra={
                "peak_bytes": int(prune_peak),
                "pruned_tuples": info.num_pruned,
                "kept_tuples": int(info.kept.shape[0]),
                "prune_ratio": round(info.ratio, 6),
            },
        )
    )

    hidden = np.asarray(scenario.metadata["hidden_weights"], dtype=float)
    rng = derive_rng(seed, "error_sweep")
    candidates = np.vstack(
        [hidden, rng.dirichlet(np.ones(problem.num_attributes), sweep_candidates - 1)]
    )
    errors, sweep_wall, sweep_peak = _timed(
        lambda: [problem.error_of(weights) for weights in candidates]
    )
    records.append(
        ExperimentRecord(
            experiment="dataplane_massive",
            dataset="massive",
            method="error_sweep",
            params={"n": problem.num_tuples, "candidates": len(candidates)},
            error=float(min(errors)),
            time_seconds=sweep_wall,
            extra={"peak_bytes": int(sweep_peak), "hidden_error": int(errors[0])},
        )
    )

    # -- the pruned model is the full model, per family -----------------------
    for family in list_families():
        fam_problem = generate_one(family, 0, seed).problem
        start = time.perf_counter()
        fam_info = prune_problem(fam_problem)
        full = RankHowFormulation(fam_problem)
        pruned = RankHowFormulation(fam_info.problem)
        wall = time.perf_counter() - start
        records.append(
            ExperimentRecord(
                experiment="dataplane_parity",
                dataset=family,
                method="prune",
                params={"n": fam_problem.num_tuples, "k": fam_problem.k},
                time_seconds=wall,
                extra={
                    "model_equal": not model_differences(full.model, pruned.model),
                    "prune_ratio": round(fam_info.ratio, 6),
                    "pruned_tuples": fam_info.num_pruned,
                },
            )
        )

    # -- MILP size with and without the presolve ------------------------------
    rng = derive_rng(seed, "milp")
    quality = rng.uniform(0.0, 1.0, size=(milp_tuples, 1))
    noise = rng.uniform(0.0, 1.0, size=(milp_tuples, 4))
    matrix = np.clip(0.85 * quality + 0.15 * noise, 0.0, 1.0)
    relation = Relation.from_matrix(matrix, [f"A{j + 1}" for j in range(4)])
    scores = matrix @ np.array([0.4, 0.3, 0.2, 0.1])
    milp_problem = RankingProblem(relation, ranking_from_scores(scores, k=milp_k))
    milp_info = prune_problem(milp_problem)
    for label, target in (("full", milp_problem), ("pruned", milp_info.problem)):
        formulation, wall, peak = _timed(
            lambda: RankHowFormulation(target, eliminate_dominated=False)
        )
        records.append(
            ExperimentRecord(
                experiment="dataplane_milp",
                dataset="correlated",
                method=f"formulation[{label}]",
                params={"n": target.num_tuples, "k": milp_k},
                time_seconds=wall,
                extra={
                    "indicators": formulation.num_indicator_variables,
                    "variables": formulation.model.num_vars,
                    "peak_bytes": int(peak),
                    "naive_pairs": milp_k * (milp_tuples - 1),
                    "prune_ratio": round(milp_info.ratio, 6),
                },
            )
        )
    return records
