"""End-to-end observability through the QueryServer.

The acceptance path of the obs subsystem: one traced request yields a single
trace from service intake through the engine's cache decision and executor
timing down to solver counters; coalesced submits share one solve span;
metrics export covers every layer; the workload profile round-trips.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine import SolveEngine
from repro.obs import Observability, WorkloadProfile
from repro.obs.export import parse_prometheus
from repro.obs.trace import NOOP_SPAN
from repro.service import QueryServer, QueryServerOptions

FAST_PARAMS = {
    "cell_size": 0.25,
    "max_iterations": 3,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_problem(k: int = 4, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(24, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def span_names(tree: dict) -> list[str]:
    names = []

    def visit(node):
        names.append(node["name"])
        for child in node["children"]:
            visit(child)

    for root in tree["roots"]:
        visit(root)
    return names


def test_single_request_traces_service_to_solver():
    problem = build_problem()
    obs = Observability.enabled()

    async def scenario():
        async with QueryServer(obs=obs) as server:
            return await server.submit(problem, "symgd", FAST_PARAMS)

    response = asyncio.run(scenario())
    assert not response.cache_hit

    [trace_id] = obs.tracer.trace_ids()
    tree = obs.tracer.export_trace(trace_id)
    names = span_names(tree)
    # One trace spans every layer, in nesting order.
    for expected in (
        "service.request",
        "engine.dispatch",
        "engine.task",
        "solver.symgd",
        "solver.rankhow",
        "solver.branch_and_bound",
    ):
        assert expected in names, names
    assert names[0] == "service.request"

    records = {r["name"]: r for r in obs.tracer.spans(trace_id)}
    assert records["engine.dispatch"]["attributes"]["outcome"] == "miss"
    assert records["engine.task"]["attributes"]["queue_wait"] >= 0.0
    bb = records["solver.branch_and_bound"]["attributes"]
    assert bb["nodes"] >= 1
    assert bb["lp_iterations"] >= 0
    assert {"status", "best_bound", "gap"} <= set(bb)
    request = records["service.request"]["attributes"]
    assert request["cache_hit"] is False
    assert request["latency"] > 0

    # The whole tree is JSON-exportable.
    assert json.loads(json.dumps(tree))["spans"] == len(records)


def test_rankhow_request_traces_the_highs_milp_solve():
    problem = build_problem()
    obs = Observability.enabled()

    async def scenario():
        async with QueryServer(obs=obs) as server:
            return await server.submit(problem, "rankhow", {"node_limit": 60})

    response = asyncio.run(scenario())
    assert not response.cache_hit

    [trace_id] = obs.tracer.trace_ids()
    names = span_names(obs.tracer.export_trace(trace_id))
    for expected in ("service.request", "engine.task", "solver.rankhow", "solver.highs_milp"):
        assert expected in names, names
    # A whole-simplex solve runs no in-repo branch-and-bound.
    assert "solver.branch_and_bound" not in names
    records = {r["name"]: r for r in obs.tracer.spans(trace_id)}
    milp = records["solver.highs_milp"]["attributes"]
    assert milp["status"] == "OPTIMAL"
    assert milp["nodes"] >= 0
    assert milp["lp_iterations"] >= 0
    assert {"best_bound", "gap"} <= set(milp)
    assert records["solver.rankhow"]["attributes"]["optimal"] is True


def test_coalesced_requests_share_one_solve_trace():
    problem = build_problem(seed=2)
    obs = Observability.enabled()

    async def scenario():
        async with QueryServer(obs=obs) as server:
            return await asyncio.gather(
                *[server.submit(problem, "symgd", FAST_PARAMS) for _ in range(4)]
            )

    responses = asyncio.run(scenario())
    assert sum(r.coalesced for r in responses) == 3

    trees = {tid: obs.tracer.export_trace(tid) for tid in obs.tracer.trace_ids()}
    assert len(trees) == 4
    solver_traces = [
        tid for tid, tree in trees.items() if "engine.dispatch" in span_names(tree)
    ]
    # Exactly one trace carries the solve; the engine's work is never
    # attributed twice.
    assert len(solver_traces) == 1
    primary = solver_traces[0]
    for tid, tree in trees.items():
        if tid == primary:
            continue
        assert span_names(tree) == ["service.request"]
        [record] = obs.tracer.spans(tid)
        assert record["attributes"]["coalesced"] is True
        assert record["attributes"]["primary_trace"] == primary


def test_session_requests_trace_incremental_tiers():
    problem = build_problem(seed=3)
    obs = Observability.enabled()

    async def scenario():
        async with QueryServer(obs=obs) as server:
            session = await server.open_session(problem, "symgd", FAST_PARAMS)
            first = await server.submit_session(session)
            again = await server.submit_session(session)
            return session, first, again

    session, first, again = asyncio.run(scenario())
    assert (first.cache_hit, again.cache_hit) == (False, True)

    # Session requests reach the engine with their span context, so each
    # request's own trace records its cache decision.
    traced = []
    for tid in obs.tracer.trace_ids():
        records = obs.tracer.spans(tid)
        [request] = [r for r in records if r["name"] == "service.request"]
        outcomes = [
            r["attributes"]["outcome"]
            for r in records
            if r["name"] == "engine.dispatch"
        ]
        traced.append((request["attributes"]["session_id"], outcomes))
    assert traced == [(session, ["miss"]), (session, ["hit"])]


def test_metrics_export_covers_every_layer():
    problem = build_problem(seed=4)
    obs = Observability.enabled()

    async def scenario():
        async with QueryServer(obs=obs) as server:
            await asyncio.gather(
                server.submit(problem, "symgd", FAST_PARAMS),
                server.submit(problem, "symgd", FAST_PARAMS),
            )
            await server.submit(problem, "symgd", FAST_PARAMS)
            prom = server.export_metrics_prometheus()
            payload = json.loads(server.export_metrics_json())
            return prom, payload

    prom, payload = asyncio.run(scenario())
    samples = parse_prometheus(prom)
    flat = {name for name, _ in samples}
    for expected in (
        "repro_service_requests_total",
        "repro_service_coalesced_total",
        "repro_service_cache_hits_total",
        "repro_service_request_latency_seconds_count",
        "repro_engine_solver_invocations_total",
        "repro_engine_cache_hits_total",
        "repro_engine_cache_misses_total",
    ):
        assert expected in flat, sorted(flat)
    assert samples[("repro_service_requests_total", ())] == 3
    assert samples[("repro_service_coalesced_total", ())] == 1
    assert samples[("repro_engine_solver_invocations_total", ())] == 1
    assert samples[("repro_service_request_latency_seconds_count", ())] == 3
    assert payload["repro_service_requests_total"]["value"] == 3


def test_stats_percentiles_cover_full_run_not_window():
    problem = build_problem(seed=5)

    async def scenario():
        # history_limit=2 keeps only the last two records, but the streaming
        # histogram still aggregates all requests.
        options = QueryServerOptions(history_limit=2)
        async with QueryServer(options=options) as server:
            for index in range(4):
                await server.submit(
                    build_problem(seed=10 + index), "symgd", FAST_PARAMS
                )
            return server.stats(), server.records

    stats, records = asyncio.run(scenario())
    assert stats.requests == 4
    assert len(records) == 2
    assert stats.history_window == 2
    assert stats.p50_latency > 0
    assert stats.p95_latency >= stats.p50_latency
    assert stats.p99_latency >= stats.p95_latency
    assert stats.max_latency >= stats.p99_latency * 0.99
    assert "record window=2" in stats.describe()


def test_profile_records_round_trip_and_replay(tmp_path):
    path = tmp_path / "workload.jsonl"
    obs = Observability.enabled(profile_path=path)
    problems = [build_problem(seed=20 + i) for i in range(2)]

    async def scenario():
        async with QueryServer(obs=obs) as server:
            session = await server.open_session(problems[0], "symgd", FAST_PARAMS)
            await server.submit(problems[0], "symgd", FAST_PARAMS)
            await server.submit(problems[1], "symgd", FAST_PARAMS)
            await server.submit(problems[0], "symgd", FAST_PARAMS)
            await server.submit_session(
                session,
                deltas=[{"kind": "tolerance", "eps1": 0.05, "eps2": 0.0125}],
            )
    asyncio.run(scenario())
    obs.close()

    profile = WorkloadProfile.load(path)
    assert len(profile) == 4
    assert profile.hit_sequence() == [False, False, True, False]
    assert profile.records[3].delta_kinds == ["tolerance"]
    assert not profile.records[3].cache_hit
    assert all(r.gap >= 0.0 for r in profile.records)
    # Misses record their recompute cost; the hit costs (near) nothing.
    assert profile.records[0].cost > 0.0
    assert profile.records[2].cost == 0.0


def test_server_without_obs_keeps_tracing_off():
    problem = build_problem(seed=6)

    async def scenario():
        async with QueryServer() as server:
            response = await server.submit(problem, "symgd", FAST_PARAMS)
            return server, response

    server, response = asyncio.run(scenario())
    assert not response.cache_hit
    # The default bundle is metrics-only: exports work, tracing stays off
    # (the no-op singleton path) and no profile is recorded.
    assert server.obs.tracer is None
    assert server.obs.profile is None
    assert server._request_span("service.request") is NOOP_SPAN
    samples = parse_prometheus(server.export_metrics_prometheus())
    assert samples[("repro_service_requests_total", ())] == 1


def test_engine_with_obs_shares_bundle_with_server():
    problem = build_problem(seed=7)
    obs = Observability.enabled()
    engine = SolveEngine(backend="serial", obs=obs)

    async def scenario():
        async with QueryServer(engine=engine) as server:
            assert server.obs is obs
            await server.submit(problem, "symgd", FAST_PARAMS)

    asyncio.run(scenario())
    engine.close()
    names = set()
    for tid in obs.tracer.trace_ids():
        names.update(r["name"] for r in obs.tracer.spans(tid))
    assert "service.request" in names
    assert "solver.branch_and_bound" in names
