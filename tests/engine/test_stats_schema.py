"""SolveEngine.stats(): stable schema, monotonic counters, reset_stats()."""

from __future__ import annotations

import numpy as np

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveEngine, SolveRequest

FAST_PARAMS = {
    "cell_size": 0.25,
    "max_iterations": 2,
    "solver_options": {
        "node_limit": 40,
        "verify": False,
        "warm_start_strategy": "none",
    },
}

# The documented stats() schema: consumers (CLI JSON, bench harness, the
# metrics collectors) rely on these keys and types staying put.
TOP_LEVEL = {
    "backend": str,
    "max_workers": int,
    "solver_invocations": int,
    "executor": dict,
    "cache": dict,
    "dataplane": dict,
}
EXECUTOR_KEYS = {"tasks", "batches"}
CACHE_KEYS = {
    "hits",
    "misses",
    "stores",
    "evictions",
    "disk_hits",
    "promotions",
    "hit_rate",
}
DATAPLANE_KEYS = {
    "pruned_tuples_total",
    "chunked_evals_total",
    "peak_chunk_bytes",
    "memory_budget_bytes",
}


def build_problem(k: int = 3, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(16, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def request(seed: int) -> SolveRequest:
    return SolveRequest(build_problem(seed=seed), "symgd", dict(FAST_PARAMS))


def assert_schema(stats: dict) -> None:
    assert set(stats) == set(TOP_LEVEL)
    for key, expected_type in TOP_LEVEL.items():
        assert isinstance(stats[key], expected_type), (key, stats[key])
    assert EXECUTOR_KEYS <= set(stats["executor"])
    assert CACHE_KEYS <= set(stats["cache"])
    assert set(stats["dataplane"]) == DATAPLANE_KEYS


def test_stats_schema_is_stable():
    engine = SolveEngine(backend="serial")
    assert_schema(engine.stats())
    engine.solve_batch([request(1)])
    engine.solve_batch([request(2), request(2)])
    after = engine.stats()
    assert_schema(after)
    engine.close()


def test_counters_are_monotonic_across_solves():
    engine = SolveEngine(backend="serial")

    def counters() -> list[float]:
        stats = engine.stats()
        return [
            stats["solver_invocations"],
            stats["executor"]["tasks"],
            stats["executor"]["batches"],
            stats["cache"]["hits"],
            stats["cache"]["misses"],
            stats["cache"]["stores"],
        ]

    previous = counters()
    for step in (
        lambda: engine.solve_batch([request(1)]),
        lambda: engine.solve_batch([request(1)]),  # cache hit
        lambda: engine.solve_batch([request(3)]),
        lambda: engine.solve_batch([request(3)]),  # cache hit
    ):
        step()
        current = counters()
        assert all(c >= p for c, p in zip(current, previous)), (previous, current)
        assert current != previous  # every solve moves at least one counter
        previous = current

    assert engine.stats()["solver_invocations"] == 2
    engine.close()


def test_reset_stats_zeroes_every_counter():
    engine = SolveEngine(backend="serial")
    engine.solve_batch([request(1), request(2)])
    engine.solve_batch([request(4)])
    engine.solve_batch([request(4)])
    before = engine.stats()
    assert before["solver_invocations"] == 3
    assert before["cache"]["hits"] == 1

    engine.reset_stats()
    stats = engine.stats()
    assert_schema(stats)
    assert stats["solver_invocations"] == 0
    assert stats["executor"]["tasks"] == 0
    assert stats["executor"]["batches"] == 0
    assert stats["cache"]["hits"] == 0
    assert stats["cache"]["misses"] == 0
    assert stats["dataplane"]["pruned_tuples_total"] == 0
    assert stats["dataplane"]["chunked_evals_total"] == 0
    assert stats["dataplane"]["peak_chunk_bytes"] == 0

    # The engine keeps working (and counting) after a reset -- and the
    # cached results themselves survive: only telemetry was cleared.
    outcome = engine.solve_batch([request(1)])[0]
    assert outcome.cache_hit
    after = engine.stats()
    assert after["solver_invocations"] == 0
    assert after["cache"]["hits"] == 1
    engine.close()
