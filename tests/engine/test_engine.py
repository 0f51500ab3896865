"""SolveEngine: batch dedup, cache integration, backend parity, telemetry."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine import ResultCache, SolveEngine, SolveRequest

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_problem(k: int = 4, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(30, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def test_identical_content_hits_the_cache():
    with SolveEngine(backend="serial") as engine:
        first = engine.solve(build_problem(), "symgd", FAST_PARAMS)
        # A problem built independently from the same data must hit.
        second = engine.solve(build_problem(), "symgd", FAST_PARAMS)
        assert not first.cache_hit
        assert second.cache_hit
        assert engine.solver_invocations == 1
        assert second.result.error == first.result.error


def test_batch_dedup_collapses_duplicates():
    problem = build_problem()
    requests = [
        SolveRequest(problem, "symgd", FAST_PARAMS),
        SolveRequest(problem, "symgd", FAST_PARAMS),
        SolveRequest(build_problem(k=5), "symgd", FAST_PARAMS),
    ]
    with SolveEngine(backend="serial") as engine:
        outcomes = engine.solve_batch(requests)
        assert engine.solver_invocations == 2
        assert outcomes[0].fingerprint == outcomes[1].fingerprint
        assert outcomes[0].result.error == outcomes[1].result.error
        assert outcomes[2].fingerprint != outcomes[0].fingerprint


def test_solve_batch_counts_invocations_under_the_stats_lock():
    # The query server runs batch and session solves concurrently on its
    # default-pool threads, so every counter bump must take the lock.
    request = SolveRequest(build_problem(), "linear_regression", {})
    with SolveEngine(backend="serial") as engine:
        with engine._stats_lock:
            worker = threading.Thread(target=engine.solve_batch, args=([request],))
            worker.start()
            worker.join(timeout=0.5)
            assert engine.solver_invocations == 0
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert engine.solver_invocations == 1


def test_backend_parity_on_solve_batch():
    requests = [
        SolveRequest(build_problem(k=k), "symgd", FAST_PARAMS) for k in (3, 4, 5)
    ]
    errors = {}
    for backend in ("serial", "process"):
        with SolveEngine(backend=backend, max_workers=2) as engine:
            outcomes = engine.solve_batch(requests)
            errors[backend] = [outcome.result.error for outcome in outcomes]
    assert errors["serial"] == errors["process"]


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError):
        SolveRequest(build_problem(), "gradient_descent")


def test_unknown_params_are_rejected_not_ignored():
    # A misplaced key would fragment the fingerprint space while silently
    # having no effect on the solve; it must fail at request construction.
    with pytest.raises(ValueError, match="node_limit"):
        SolveRequest(build_problem(), "symgd", {"node_limit": 50})
    with pytest.raises(ValueError, match="adaptive"):
        SolveRequest(build_problem(), "symgd", {"adaptive": True})
    with pytest.raises(ValueError, match="num_samples"):
        SolveRequest(build_problem(), "ordinal_regression", {"num_samples": 10})
    # Typos nested inside solver_options must fail too.
    with pytest.raises(ValueError, match="nodelimit"):
        SolveRequest(
            build_problem(), "symgd", {"solver_options": {"nodelimit": 100}}
        )
    # chunk_size cannot affect a service-path sampling solve; rejecting it
    # keeps it from fragmenting the fingerprint space.
    with pytest.raises(ValueError, match="chunk_size"):
        SolveRequest(build_problem(), "sampling", {"chunk_size": 100})


def test_explicit_defaults_share_a_cache_entry():
    problem = build_problem()
    with SolveEngine(backend="serial") as engine:
        first = engine.solve(problem, "symgd", FAST_PARAMS)
        # The same request with a default spelled out explicitly must hit.
        second = engine.solve(
            problem, "symgd", {**FAST_PARAMS, "seed_strategy": "ordinal_regression"}
        )
        assert second.cache_hit
        assert second.fingerprint == first.fingerprint
        assert engine.solver_invocations == 1


def test_batch_duplicates_get_private_result_copies():
    problem = build_problem()
    requests = [
        SolveRequest(problem, "symgd", FAST_PARAMS),
        SolveRequest(problem, "symgd", FAST_PARAMS),
    ]
    with SolveEngine(backend="serial") as engine:
        outcomes = engine.solve_batch(requests)
    outcomes[0].result.weights[:] = -1.0
    assert np.all(outcomes[1].result.weights >= 0.0)


def test_cache_hits_do_not_alias_mutable_state():
    problem = build_problem()
    with SolveEngine(backend="serial") as engine:
        first = engine.solve(problem, "symgd", FAST_PARAMS)
        first.result.weights[:] = -1.0  # caller mutates its copy
        first.result.diagnostics["k"] = "corrupted"
        second = engine.solve(problem, "symgd", FAST_PARAMS)
        assert second.cache_hit
        assert np.all(second.result.weights >= 0.0)
        assert second.result.diagnostics["k"] != "corrupted"


def test_method_build_merges_partial_solver_options():
    from repro.api.registry import get_method

    adapter = get_method("symgd")
    solver = adapter.build(
        adapter.resolve_options({"solver_options": {"node_limit": 100}})
    )
    options = solver.options
    # Tweaking one nested knob must keep the service-friendly defaults.
    assert options.solver_options.node_limit == 100
    assert options.solver_options.verify is False
    assert options.solver_options.warm_start_strategy == "none"


def test_shared_cache_and_stats(tmp_path):
    cache = ResultCache(capacity=8, disk_path=tmp_path)
    problem = build_problem()
    with SolveEngine(backend="serial", cache=cache) as engine:
        engine.solve(problem, "ordinal_regression")
    # A second engine sharing the cache (or just the disk tier) never solves.
    with SolveEngine(backend="serial", cache=cache) as engine:
        outcome = engine.solve(problem, "ordinal_regression")
        assert outcome.cache_hit
        assert engine.solver_invocations == 0
        stats = engine.stats()
        assert stats["backend"] == "serial"
        assert stats["cache"]["hits"] >= 1
        assert stats["solver_invocations"] == 0


def test_outcome_wire_format():
    import json

    with SolveEngine(backend="serial") as engine:
        outcome = engine.solve(build_problem(), "linear_regression")
    wire = outcome.to_dict()
    json.dumps(wire)
    assert wire["fingerprint"] == outcome.fingerprint
    assert wire["result"]["method"] == outcome.result.method


def test_method_build_honors_rankhow_warm_start():
    """warm_start is part of the resolved options; the built solver must use it."""
    from repro.api.registry import get_method

    problem = build_problem()
    warm = [0.4, 0.35, 0.25]
    adapter = get_method("rankhow")
    solver = adapter.build(
        adapter.resolve_options(
            {
                "node_limit": 0,
                "verify": False,
                "warm_start_strategy": "none",
                "warm_start": warm,
            }
        )
    )
    result = solver.solve(problem)
    # With no nodes and no heuristic, the warm start is the only incumbent:
    # the result can never be worse than it.
    assert 0 <= result.error <= problem.error_of(np.asarray(warm))


def test_engine_multi_seed_matches_in_process_loop():
    from repro.core.symgd import SymGD, SymGDOptions, default_seed_points
    from repro.core.rankhow import RankHowOptions

    problem = build_problem(k=4, seed=5)
    options = SymGDOptions(
        cell_size=0.25,
        max_iterations=3,
        solver_options=RankHowOptions(
            node_limit=40, verify=False, warm_start_strategy="none"
        ),
    )
    seeds = default_seed_points(problem, 3)
    with SolveEngine(backend="serial") as engine:
        pooled = engine.multi_seed_symgd(problem, options=options, seeds=seeds)
    in_process = SymGD(options).solve_multi_seed(problem, seeds=seeds)
    assert in_process.error == pooled.error
    assert np.array_equal(in_process.weights, pooled.weights)
    assert (
        in_process.diagnostics["per_seed_errors"]
        == pooled.diagnostics["per_seed_errors"]
    )
