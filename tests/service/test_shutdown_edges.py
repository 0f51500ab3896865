"""Shutdown edges: double-stop idempotence."""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster import ClusterOptions, ClusterRouter
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.relation import Relation
from repro.service import QueryServer

FAST = {
    "cell_size": 0.25,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 40,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def make_problem(seed: int = 3, n: int = 12) -> RankingProblem:
    rng = np.random.default_rng(seed)
    relation = Relation.from_matrix(rng.uniform(size=(n, 3)))
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    order = np.argsort(-scores)[:4]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, n))


def test_query_server_double_stop_is_idempotent():
    async def scenario():
        problem = make_problem()
        server = QueryServer()
        await server.start()
        await server.submit(problem, "symgd", FAST)
        await server.stop()
        await server.stop()  # second stop: clean no-op
        return server.stats()

    stats = asyncio.run(scenario())
    assert stats.requests == 1


def test_cluster_router_double_stop_is_idempotent():
    async def scenario():
        problem = make_problem()
        options = ClusterOptions(num_shards=2)
        router = ClusterRouter(options)
        await router.start()
        await router.submit(problem, "symgd", FAST)
        await router.stop()
        await router.stop()

    asyncio.run(scenario())


def test_cluster_stop_with_a_dead_shard_does_not_hang():
    async def scenario():
        problem = make_problem()
        router = ClusterRouter(ClusterOptions(num_shards=2))
        await router.start()
        await router.submit(problem, "symgd", FAST)
        router.kill_shard(0)
        restart = router._restart_tasks[0]
        assert not restart.done()  # the restart is still pending at stop()
        # stop() lets the bounded in-flight recovery settle, then tears
        # everything down -- no hang, and a second stop is a no-op.
        await asyncio.wait_for(router.stop(), timeout=15)
        await router.stop()
        assert restart.done()

    asyncio.run(scenario())
