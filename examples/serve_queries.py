"""Demo: serve a burst of concurrent NBA how-to-rank queries in-process.

Starts a :class:`~repro.service.QueryServer`, fires a burst of concurrent
queries (a few distinct problems, each repeated several times -- the shape of
real ranking traffic, where popular rankings are queried again and again),
then repeats the whole burst so the result cache gets to show off, and prints
throughput, latency, and cache-hit numbers.

Run with::

    PYTHONPATH=src python examples/serve_queries.py
"""

from __future__ import annotations

import asyncio

from repro.bench.harness import nba_problem
from repro.service import QueryServer, QueryServerOptions

NUM_DISTINCT = 4  # distinct how-to-rank questions
REPEATS = 6  # times each question is asked per burst
SYMGD_PARAMS = {
    "cell_size": 0.1,
    "max_iterations": 8,
    "solver_options": {
        "node_limit": 200,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


async def fire_burst(server: QueryServer, problems) -> list:
    queries = [
        server.submit(problems[index % len(problems)], "symgd", SYMGD_PARAMS)
        for index in range(len(problems) * REPEATS)
    ]
    return await asyncio.gather(*queries)


async def main() -> None:
    print(f"Building {NUM_DISTINCT} distinct NBA how-to-rank problems ...")
    problems = [
        nba_problem(num_tuples=150, num_attributes=5, k=3 + index)
        for index in range(NUM_DISTINCT)
    ]

    options = QueryServerOptions(backend="auto")
    async with QueryServer(options=options) as server:
        print(
            f"Burst 1: {NUM_DISTINCT * REPEATS} concurrent queries "
            f"({NUM_DISTINCT} distinct x {REPEATS} repeats, "
            f"{server.engine.executor.name} backend) ..."
        )
        responses = await fire_burst(server, problems)
        print("  " + server.stats().describe())
        for response in responses[:NUM_DISTINCT]:
            print(
                f"  {response.request_id}: error={response.result.error} "
                f"coalesced={response.coalesced} "
                f"latency={response.latency * 1e3:.0f}ms"
            )

        print("Burst 2: same queries again (cache should answer everything) ...")
        await fire_burst(server, problems)
        print("  " + server.stats().describe())

        # The server serves ANY registered method: the payload names it.
        print("Burst 3: mixed methods on one problem (baselines share the "
              "same cache and batching path) ...")
        mixed = await asyncio.gather(
            server.submit(problems[0], "linear_regression"),
            server.submit(problems[0], "ordinal_regression"),
            server.submit(problems[0], "adarank", {"num_rounds": 10}),
            server.submit(problems[0], "sampling", {"num_samples": 300}),
        )
        for response in mixed:
            print(
                f"  {response.result.method}: error={response.result.error} "
                f"cache_hit={response.cache_hit}"
            )
        stats = server.stats()
        print(
            f"\nTotals: {stats.requests} requests answered by "
            f"{stats.solver_invocations} solver invocations "
            f"(coalesced={stats.coalesced}, cache hits={stats.cache_hits}, "
            f"cache hit rate={stats.cache['hit_rate']:.0%})"
        )


if __name__ == "__main__":
    asyncio.run(main())
