"""Observability overhead benchmark: the no-op path must cost (about) nothing.

Guards the contract of the ``repro.obs`` subsystem: instrumentation is
threaded through the service, the engine dispatch loop, and every solver,
but when no tracer is attached each probe collapses to a single ``None``
check (engine) or the shared ``NOOP_SPAN`` singleton (solvers), so the hot
path must not regress.  Every run writes the measured numbers to
``.bench/BENCH_obs.json`` (see ``conftest.write_baseline``).

The workload is the engine hot path at its fastest -- repeated
``solve_batch`` passes over an already-warm cache, where every request is a
fingerprint + cache lookup and any per-request instrumentation cost would be
proportionally largest.  Three legs, each on a fresh engine:

* ``off`` -- no :class:`~repro.obs.Observability` bundle at all;
* ``metrics`` -- metrics-only bundle (export-time collectors, no tracer):
  this is the default ``QueryServer`` configuration, and must ride the same
  no-tracer fast path as ``off``;
* ``tracing`` -- full tracer, spans from dispatch down to the solvers.

Assertions are correctness-first and deliberately tolerant on wall-clock
(CI containers are noisy; each leg is timed min-of-repeats):

* with no tracer, the span helpers return the ``NOOP_SPAN`` singleton and
  record nothing (asserted on identity, which is noise-free);
* the ``metrics`` leg is not measurably slower than ``off`` (loose ratio
  plus an absolute per-request epsilon);
* the ``tracing`` leg is recorded -- per-request overhead lands in
  ``BENCH_obs.json`` -- and its spans really were captured, but its cost is
  not perf-asserted beyond a very loose sanity ceiling.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_baseline

from repro.bench.reporting import ExperimentRecord, ascii_table
from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveEngine, SolveRequest
from repro.obs import Observability, MetricsRegistry
from repro.obs.trace import NOOP_SPAN, span

FAST_PARAMS = {
    "cell_size": 0.25,
    "max_iterations": 2,
    "solver_options": {
        "node_limit": 40,
        "verify": False,
        "warm_start_strategy": "none",
    },
}

N_PROBLEMS = 6
WARM_PASSES = 20
REPEATS = 5


def _problems() -> list[RankingProblem]:
    problems = []
    for seed in range(N_PROBLEMS):
        relation = generate_uniform(16, 3, seed=seed + 1)
        scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
        problems.append(RankingProblem(relation, ranking_from_scores(scores, k=3)))
    return problems


def _requests(problems) -> list[SolveRequest]:
    return [
        SolveRequest(problem, "symgd", dict(FAST_PARAMS)) for problem in problems
    ]


def _bundle(mode: str) -> Observability | None:
    if mode == "off":
        return None
    if mode == "metrics":
        return Observability(metrics=MetricsRegistry())
    return Observability.enabled(max_traces=8)


def _run_leg(mode: str, problems) -> dict:
    """Cold-fill the cache once, then time warm (all-hit) batch passes.

    Requests are rebuilt every pass so each timed iteration pays the full
    per-request hot path (validation, option resolution, fingerprinting,
    cache lookup) -- the same work on every leg, instrumented or not.
    """
    obs = _bundle(mode)
    engine = SolveEngine(backend="serial", obs=obs)
    try:
        start = time.perf_counter()
        cold = engine.solve_batch(_requests(problems))
        cold_seconds = time.perf_counter() - start
        assert not any(outcome.cache_hit for outcome in cold)

        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(WARM_PASSES):
                outcomes = engine.solve_batch(_requests(problems))
            best = min(best, time.perf_counter() - start)
        assert all(outcome.cache_hit for outcome in outcomes)
        stats = engine.stats()
    finally:
        engine.close()

    requests_timed = WARM_PASSES * len(problems)
    leg = {
        "mode": mode,
        "cold_seconds": cold_seconds,
        "warm_seconds": best,
        "per_request_us": best / requests_timed * 1e6,
        "solver_invocations": stats["solver_invocations"],
        "cache_hits": stats["cache"]["hits"],
    }
    if obs is not None and obs.tracer is not None:
        leg["spans_recorded"] = obs.tracer.spans_recorded
        leg["traces_retained"] = len(obs.tracer.trace_ids())
    return leg


def _time_noop_span(calls: int = 50_000) -> float:
    """Nanoseconds per ``span()`` call with no tracer installed anywhere."""
    start = time.perf_counter()
    for _ in range(calls):
        with span("solver.branch_and_bound", nodes=1):
            pass
    return (time.perf_counter() - start) / calls * 1e9


def test_observability_overhead(benchmark):
    problems = _problems()

    def experiment():
        legs = {mode: _run_leg(mode, problems) for mode in ("off", "metrics", "tracing")}
        return legs, _time_noop_span()

    legs, noop_ns = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # -- the disabled path really is the no-op singleton ----------------------
    probe = span("engine.dispatch", outcome="hit")
    assert probe is NOOP_SPAN
    assert span("anything") is probe  # one shared object, no allocation

    records = [
        ExperimentRecord(
            experiment="obs_overhead",
            dataset="uniform",
            method=leg["mode"],
            params={"n_problems": N_PROBLEMS, "warm_passes": WARM_PASSES},
            time_seconds=leg["warm_seconds"],
            extra={
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in leg.items()
                if key != "mode"
            },
        )
        for leg in legs.values()
    ]
    records.append(
        ExperimentRecord(
            experiment="obs_noop_span",
            dataset="-",
            method="noop_span",
            params={"calls": 50_000},
            time_seconds=noop_ns * 1e-9 * 50_000,
            extra={"ns_per_call": round(noop_ns, 1)},
        )
    )
    print()
    print(ascii_table(records, title="Observability overhead: off vs metrics vs tracing"))
    write_baseline("obs", records)

    off, metrics, tracing = (legs[m] for m in ("off", "metrics", "tracing"))

    # -- every leg did identical solve work -----------------------------------
    for leg in (off, metrics, tracing):
        assert leg["solver_invocations"] == N_PROBLEMS
        assert leg["cache_hits"] >= WARM_PASSES * N_PROBLEMS

    # -- tracing-disabled overhead ~ 0 ----------------------------------------
    # The metrics-only bundle must take the same no-tracer fast path as the
    # bare engine.  Loose ratio + absolute epsilon: the warm pass is already
    # only fingerprint + dict lookup, so even a CI container's noise floor
    # stays well inside 1.5x + 100us/request.
    per_request_slack = 100e-6 * WARM_PASSES * N_PROBLEMS
    assert metrics["warm_seconds"] <= off["warm_seconds"] * 1.5 + per_request_slack, (
        f"metrics-only leg regressed the hot path: {metrics['warm_seconds']:.4f}s "
        f"vs off {off['warm_seconds']:.4f}s"
    )

    # -- tracing leg: recorded, bounded, and sane -----------------------------
    assert tracing["spans_recorded"] > 0, "tracing leg captured no spans"
    assert tracing["traces_retained"] <= 8, "trace retention is not LRU-bounded"
    # Very loose ceiling: a hit-path span is one object + one OrderedDict
    # append.  50x leaves room for pathological schedulers while still
    # catching an accidentally quadratic tracer.
    assert tracing["warm_seconds"] <= off["warm_seconds"] * 50 + per_request_slack, (
        f"tracing leg is implausibly slow: {tracing['warm_seconds']:.4f}s "
        f"vs off {off['warm_seconds']:.4f}s"
    )
