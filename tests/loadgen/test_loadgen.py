"""Load harness: plan determinism, loop semantics, reports, replay."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import ClusterOptions, ClusterRouter
from repro.loadgen import (
    LoadReport,
    QueryMixUser,
    ReplayUser,
    SessionEditUser,
    answer_digest,
    build_plan,
    build_report,
    percentile,
    run_closed_loop,
    run_open_loop,
)
from repro.service import QueryServer

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def small_users(ops: int = 6, edits: int = 2) -> list:
    return [
        QueryMixUser(
            "queries-0",
            count=ops,
            pool_size=3,
            params=dict(FAST_PARAMS),
            mean_gap=0.002,
        ),
        SessionEditUser(
            "editor-0",
            family="tied_scores",
            index=0,
            edits=edits,
            params=dict(FAST_PARAMS),
            mean_gap=0.002,
        ),
    ]


def plan_signature(plan) -> list:
    return [
        (lane, op.kind, op.problem.fingerprint() if op.problem else None,
         op.method, round(op.gap, 12))
        for lane, ops in sorted(plan.items())
        for op in ops
    ]


def test_build_plan_is_seed_deterministic():
    sig_a = plan_signature(build_plan(small_users(), seed=7))
    sig_b = plan_signature(build_plan(small_users(), seed=7))
    sig_c = plan_signature(build_plan(small_users(), seed=8))
    assert sig_a == sig_b
    assert sig_a != sig_c
    # Session lanes open first, then chain edits in order.
    plan = build_plan(small_users(edits=3), seed=7)
    kinds = [op.kind for op in plan["editor-0"]]
    assert kinds == ["session_open"] + ["session_edit"] * 3


def test_build_plan_rejects_duplicate_lane_names():
    users = [
        QueryMixUser("dup", count=1, params=dict(FAST_PARAMS)),
        QueryMixUser("dup", count=1, params=dict(FAST_PARAMS)),
    ]
    with pytest.raises(ValueError, match="dup"):
        build_plan(users, seed=1)


def test_percentile_is_exact_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile([5.0], 0.99) == 5.0
    assert percentile([], 0.50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 50)


def test_closed_loop_digests_match_single_server():
    plan = build_plan(small_users(), seed=13)

    async def against_cluster():
        options = ClusterOptions(num_shards=2)
        async with ClusterRouter(options) as cluster:
            results, wall = await run_closed_loop(cluster, plan)
            stats = await cluster.stats()
        return results, wall, stats

    async def against_single():
        async with QueryServer() as server:
            results, wall = await run_closed_loop(server, plan)
        return results

    cluster_results, wall, stats = asyncio.run(against_cluster())
    single_results = asyncio.run(against_single())

    by_key = {r.key: r for r in single_results}
    assert len(cluster_results) == len(single_results)
    for result in cluster_results:
        assert result.ok and not result.shed
        assert result.digest == by_key[result.key].digest

    report = build_report("closed", cluster_results, wall, stats)
    assert isinstance(report, LoadReport)
    assert report.completed == report.operations
    assert report.errors == 0 and report.shed == 0
    assert report.qps > 0
    assert report.latency["p50"] <= report.latency["p99"] <= report.latency["max"]
    assert sum(report.per_shard.values()) == stats.totals.requests
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["mode"] == "closed"
    assert "digests" not in payload  # wire report stays compact


def test_open_loop_overload_sheds_without_retrying():
    plan = build_plan(small_users(ops=10, edits=2), seed=3)

    async def scenario():
        options = ClusterOptions(
            num_shards=2,
            queue_limit=1,
            retry_after=0.01,
        )
        async with ClusterRouter(options) as cluster:
            results, wall = await run_open_loop(cluster, plan, rate=500.0)
            stats = await cluster.stats()
        return results, wall, stats

    results, wall, stats = asyncio.run(scenario())
    shed = [r for r in results if r.shed]
    served = [r for r in results if r.ok]
    # Firehose arrivals against queue_limit=1 must shed, but sessions are
    # pinned past admission so every session op still lands.
    assert shed and served
    assert all(r.kind == "query" for r in shed)
    assert all(r.retries == 0 for r in results)  # open loop never retries
    assert stats.totals.shed == len(shed)
    # Depth stays bounded: the admission limit plus at most one in-flight
    # pinned session op per session lane (sessions bypass admission but
    # still count toward pending depth).
    assert all(depth <= 1 + 1 for depth in stats.peak_queue_depth)

    report = build_report("open", results, wall, stats)
    assert report.shed == len(shed)
    assert max(report.peak_queue_depth) <= 2


def test_replay_user_preserves_repeat_structure(tmp_path):
    profile = tmp_path / "workload.jsonl"
    recorded = [
        {"timestamp": float(i), "fingerprint": fp, "method": "symgd", "gap": gap}
        for i, (fp, gap) in enumerate(
            [("aa", 0.0), ("bb", 0.001), ("aa", 0.002), ("cc", 0.0),
             ("bb", 0.004)]
        )
    ]
    with profile.open("w", encoding="utf-8") as handle:
        for record in recorded:
            handle.write(json.dumps(record) + "\n")

    user = ReplayUser("replay", profile=profile, params=dict(FAST_PARAMS))
    plan = build_plan([user], seed=5)
    ops = plan["replay"]
    assert len(ops) == len(recorded)
    fingerprints = [op.problem.fingerprint() for op in ops]
    # Distinct recorded keys map to distinct problems; repeats stay repeats,
    # in the recorded positions (aa at 0 and 2, bb at 1 and 4).
    assert fingerprints[0] == fingerprints[2]
    assert fingerprints[1] == fingerprints[4]
    assert len(set(fingerprints)) == 3
    assert [op.gap for op in ops] == [r["gap"] for r in recorded]

    # A capped replay truncates but keeps the prefix structure.
    capped = ReplayUser(
        "short", profile=profile, params=dict(FAST_PARAMS), limit=3
    )
    short_ops = build_plan([capped], seed=5)["short"]
    assert len(short_ops) == 3


def test_answer_digest_ignores_wall_clock_only():
    plan = build_plan(small_users(ops=2, edits=0), seed=2)
    op = plan["queries-0"][0]

    async def solve():
        async with QueryServer() as server:
            return await server.submit(op.problem, op.method, op.params)

    response = asyncio.run(solve())
    # The digest is insensitive to solve_time -- and to nothing else.
    as_dict = response.result.to_dict()
    as_dict["solve_time"] = 123.456
    assert answer_digest(as_dict) == answer_digest(response.result)
    as_dict["status"] = "tampered"
    assert answer_digest(as_dict) != answer_digest(response.result)
