"""CLI demo of the query service: ``python -m repro.service``.

Builds a pool of distinct how-to-rank queries over one of the benchmark
datasets, fires them at a :class:`~repro.service.server.QueryServer` as a
concurrent burst (repeating the pool so coalescing and the result cache have
work to do), and prints the throughput / latency / cache report.

With ``--session`` the demo runs the *stateful* path instead: it opens one
edit session, drives a chain of ``scenarios.mutate()`` edits through
:meth:`~repro.service.server.QueryServer.submit_session` (tolerance
tightening, attribute jitter, an undo via session export/resume), and prints
whether each step was a cache hit -- a miss for the base and every edit, a
hit for the resumed head.

Observability flags: ``--trace`` turns on end-to-end span tracing,
``--trace-out trace.json`` dumps the slowest trace as a JSON span tree,
``--profile-out workload.jsonl`` records the workload profile (one JSON line
per request), and ``--metrics-prom`` / ``--metrics-json`` print the unified
metrics registry (service + engine + cache counters, latency histogram)
after the run.

With ``--workers N`` the burst runs through a sharded
:class:`~repro.cluster.ClusterRouter` instead of a single server: N
in-process shards, fingerprint routing, admission control
(``--queue-limit``), and the cluster-wide stats/metrics aggregation.
``--executor-workers`` caps each engine's *executor* pool -- a different
axis than ``--workers``.

Examples::

    python -m repro.service --dataset nba --queries 24 --distinct 4
    python -m repro.service --backend process --method symgd --json
    python -m repro.service --methods symgd,sampling --method sampling
    python -m repro.service --scenario tied_scores,heavy_tail --queries 12
    python -m repro.service --session --scenario rank_reversal --edits 4
    python -m repro.service --trace --trace-out trace.json --metrics-prom
    python -m repro.service --workers 2 --queries 24 --metrics-prom
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.api.registry import list_methods
from repro.bench.harness import csrankings_problem, nba_problem, synthetic_problem
from repro.core.problem import RankingProblem
from repro.obs import Observability
from repro.service.server import QueryServer, QueryServerOptions


def build_query_pool(
    dataset: str,
    distinct: int,
    num_tuples: int,
    seed: int,
    scenario_families: tuple[str, ...] | None = None,
) -> list[RankingProblem]:
    """Distinct problems over one dataset (varying the ranking length k).

    With ``scenario_families`` set, the pool comes from the
    :mod:`repro.scenarios` workload generator instead: family instances are
    cycled (varying the instance index) until ``distinct`` problems exist,
    so the service burst exercises generated adversarial workloads.
    """
    if scenario_families:
        from repro.scenarios import generate_one

        return [
            generate_one(
                scenario_families[index % len(scenario_families)],
                index // len(scenario_families),
                seed,
            ).problem
            for index in range(distinct)
        ]
    problems = []
    for index in range(distinct):
        k = 3 + index
        if dataset == "nba":
            problems.append(nba_problem(num_tuples=num_tuples, num_attributes=5, k=k))
        elif dataset == "csrankings":
            problems.append(
                csrankings_problem(num_tuples=num_tuples, num_attributes=8, k=k + 2)
            )
        elif dataset == "synthetic":
            problems.append(
                synthetic_problem(
                    "uniform",
                    num_tuples=num_tuples,
                    num_attributes=5,
                    k=k,
                    seed=seed,
                )
            )
        else:
            raise ValueError(f"unknown dataset {dataset!r}")
    return problems


def method_params(args: argparse.Namespace) -> dict:
    """Method options for the burst, from the CLI's tuning flags."""
    if args.method in ("symgd", "symgd_adaptive"):
        return {
            "cell_size": args.cell_size,
            "max_iterations": args.max_iterations,
            "solver_options": {
                "node_limit": args.node_limit,
                "verify": False,
                "warm_start_strategy": "none",
            },
        }
    if args.method == "rankhow":
        # RankHow options are flat (no nested solver_options).
        return {"node_limit": args.node_limit, "verify": False}
    if args.method == "sampling":
        return {"num_samples": args.samples, "seed": args.seed}
    # Remaining methods (baselines, tree) terminate on their registry
    # defaults; tree in particular is capped by the adapter's
    # service-friendly budgets.
    return {}


def server_options(args: argparse.Namespace) -> QueryServerOptions:
    return QueryServerOptions(
        backend=args.backend,
        max_workers=args.executor_workers,
        cache_dir=args.cache_dir,
        allowed_methods=args.allowed_methods,
        hot_set_path=args.hot_set,
    )


async def run_burst(args: argparse.Namespace) -> tuple[QueryServer, list]:
    problems = build_query_pool(
        args.dataset,
        args.distinct,
        args.tuples,
        args.seed,
        scenario_families=args.scenario_families,
    )
    params = method_params(args)
    server = QueryServer(options=server_options(args), obs=args.obs)
    async with server:
        tasks = [
            server.submit(problems[i % len(problems)], args.method, params)
            for i in range(args.queries)
        ]
        responses = await asyncio.gather(*tasks)
        # Everything is answered; drain still flushes the profile sink so
        # the post-run reports read a complete JSONL.
        await server.drain()
    return server, responses


async def run_cluster_burst(args: argparse.Namespace) -> tuple[object, list]:
    """The same burst, through a sharded cluster front-end."""
    from repro.cluster import ClusterOptions, ClusterRouter

    problems = build_query_pool(
        args.dataset,
        args.distinct,
        args.tuples,
        args.seed,
        scenario_families=args.scenario_families,
    )
    params = method_params(args)
    options = ClusterOptions(
        num_shards=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        server=server_options(args),
    )
    cluster = ClusterRouter(options)
    async with cluster:
        tasks = [
            cluster.submit(problems[i % len(problems)], args.method, params)
            for i in range(args.queries)
        ]
        responses = await asyncio.gather(*tasks)
        await cluster.drain()
        stats = await cluster.stats()
        metrics_text = (
            await cluster.export_metrics_prometheus()
            if args.metrics_prom
            else None
        )
    return (stats, metrics_text), responses


async def run_session_demo(args: argparse.Namespace) -> tuple[QueryServer, list]:
    """Drive one stateful session through an edit-solve-edit chain."""
    from repro.scenarios import mutation_delta

    problems = build_query_pool(
        args.dataset,
        1,
        args.tuples,
        args.seed,
        scenario_families=args.scenario_families,
    )
    base = problems[0]
    params = method_params(args)
    server = QueryServer(options=server_options(args), obs=args.obs)
    steps = []
    kinds = ("tighten_tolerance", "jitter", "permute", "rescale")
    async with server:
        session_id = await server.open_session(base, args.method, params)
        response = await server.submit_session(session_id)
        steps.append(("base", response))
        head = base
        for index in range(args.edits):
            kind = kinds[index % len(kinds)]
            deltas, applied = mutation_delta(head, kind, seed=args.seed + index)
            for delta in deltas:
                head = delta.apply(head)
            response = await server.submit_session(
                session_id, deltas=[delta.to_dict() for delta in deltas]
            )
            steps.append((applied, response))
        # Undo demo: export the chain, resume it on the same server, and
        # re-solve -- the resumed head dedupes against the cached solve.
        exported = server.export_session(session_id)
        resumed = await server.resume_session(exported, session_id="resumed")
        response = await server.submit_session(resumed)
        steps.append(("resume", response))
    return server, steps


def emit_observability(args: argparse.Namespace, server: QueryServer) -> None:
    """Post-run exports: metrics dumps, slowest-trace JSON, profile close."""
    if args.metrics_prom:
        sys.stdout.write(server.export_metrics_prometheus())
    if args.metrics_json:
        print(server.export_metrics_json(indent=2))
    if args.obs is not None:
        if args.trace_out and args.obs.tracer is not None:
            slowest = args.obs.tracer.slowest_traces(1)
            if slowest:
                with open(args.trace_out, "w", encoding="utf-8") as handle:
                    json.dump(slowest[0], handle, indent=2)
                    handle.write("\n")
                print(f"slowest trace ({slowest[0]['spans']} spans, "
                      f"{slowest[0]['duration'] * 1e3:.1f}ms) -> {args.trace_out}",
                      file=sys.stderr)
        if args.profile_out and args.obs.profile is not None:
            print(f"workload profile ({len(args.obs.profile)} records) -> "
                  f"{args.profile_out}", file=sys.stderr)
        args.obs.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a burst of how-to-rank queries through the query service.",
    )
    parser.add_argument("--dataset", default="nba",
                        choices=("nba", "csrankings", "synthetic"))
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FAMILY[,FAMILY...]",
        help="serve generated workloads from these repro.scenarios families "
        "instead of a dataset (see repro.scenarios.list_families())",
    )
    parser.add_argument("--queries", type=int, default=24,
                        help="total queries in the burst (default: 24)")
    parser.add_argument("--distinct", type=int, default=4,
                        help="distinct problems; the rest repeat (default: 4)")
    parser.add_argument("--tuples", type=int, default=120,
                        help="relation size per problem (default: 120)")
    parser.add_argument(
        "--method",
        default=None,
        choices=list_methods(),
        help="method to dispatch in the burst "
        "(default: symgd, or the first --methods entry)",
    )
    parser.add_argument(
        "--methods",
        default=None,
        metavar="NAME[,NAME...]",
        help="restrict which registered methods the server exposes "
        "(default: all registered methods)",
    )
    parser.add_argument("--backend", default="serial",
                        choices=("serial", "process", "auto"))
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run the burst through a sharded cluster of N "
                        "worker shards instead of a single server")
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="per-shard admission limit for --workers "
                        "(default: 32)")
    parser.add_argument("--executor-workers", type=int, default=None,
                        help="worker cap for each engine's executor pool")
    parser.add_argument("--cache-dir", default=None,
                        help="optional on-disk result cache directory")
    parser.add_argument("--hot-set", default=None, metavar="PATH",
                        help="persist the cache's scored hot set to PATH on "
                        "drain/stop and promote it back on startup "
                        "(pairs with --cache-dir)")
    parser.add_argument("--cell-size", type=float, default=0.1)
    parser.add_argument("--max-iterations", type=int, default=10)
    parser.add_argument("--node-limit", type=int, default=300)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true",
                        help="emit the full per-request records as JSON")
    parser.add_argument(
        "--session",
        action="store_true",
        help="run the stateful-session demo (edit-solve-edit chain with a "
        "serialize/resume step) instead of the query burst",
    )
    parser.add_argument("--edits", type=int, default=3,
                        help="edits in the --session chain (default: 3)")
    parser.add_argument("--trace", action="store_true",
                        help="enable end-to-end span tracing for the run")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the slowest trace as a JSON span tree "
                        "(implies --trace)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="append the workload profile (one JSON line per "
                        "request) to PATH")
    parser.add_argument("--metrics-prom", action="store_true",
                        help="print the metrics registry in Prometheus text "
                        "format after the run")
    parser.add_argument("--metrics-json", action="store_true",
                        help="print the metrics registry as JSON after the run")
    args = parser.parse_args(argv)

    args.scenario_families = None
    if args.scenario is not None:
        from repro.scenarios import list_families

        families = tuple(
            name.strip() for name in args.scenario.split(",") if name.strip()
        )
        registered = set(list_families(include_heavy=True))
        unknown = [name for name in families if name not in registered]
        if not families or unknown:
            parser.error(
                f"--scenario names unknown families {unknown or '(none given)'}; "
                f"registered: {sorted(registered)}"
            )
        args.scenario_families = families

    args.allowed_methods = None
    if args.methods is not None:
        allowed = tuple(name.strip() for name in args.methods.split(",") if name.strip())
        if not allowed:
            parser.error(
                "--methods must name at least one registered method "
                f"(registered: {sorted(list_methods())})"
            )
        registered = set(list_methods())
        unknown = [name for name in allowed if name not in registered]
        if unknown:
            parser.error(
                f"--methods names unknown method(s) {unknown}; "
                f"registered: {sorted(registered)}"
            )
        if args.method is None:
            # Don't error on the implicit symgd default when the allowlist
            # excludes it; the burst simply uses the first allowed method.
            args.method = allowed[0]
        elif args.method not in allowed:
            parser.error(
                f"--method {args.method!r} is not in the --methods allowlist "
                f"{sorted(allowed)}"
            )
        args.allowed_methods = allowed
    elif args.method is None:
        args.method = "symgd"

    # Tracing / profiling need an explicit bundle; metrics exports work off
    # the server's default metrics-only bundle either way.
    args.obs = None
    if args.trace or args.trace_out or args.profile_out:
        args.obs = Observability.enabled(profile_path=args.profile_out)

    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        if args.session:
            parser.error("--session runs against a single server; the "
                         "cluster path is query-burst only (sessions pin "
                         "via the repro.cluster API)")
        if args.obs is not None:
            parser.error("--trace/--trace-out/--profile-out are per-server "
                         "flags; the cluster path exports aggregated "
                         "metrics via --metrics-prom")
        (stats, metrics_text), responses = asyncio.run(run_cluster_burst(args))
        if args.json:
            payload = {
                "cluster": stats.to_dict(),
                "responses": [
                    {
                        "request_id": response.request_id,
                        "shard": response.shard,
                        "fingerprint": response.fingerprint,
                        "cache_hit": response.cache_hit,
                        "coalesced": response.coalesced,
                        "latency": response.latency,
                        "result": response.result.to_dict(),
                    }
                    for response in responses
                ],
            }
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            print(f"== repro.service cluster burst: {args.queries} x "
                  f"{args.method} over {args.workers} shards ==")
            print(stats.describe())
        if metrics_text is not None:
            sys.stdout.write(metrics_text)
        return 0

    if args.session:
        server, steps = asyncio.run(run_session_demo(args))
        stats = server.stats()
        if args.json:
            payload = {
                "session_demo": [
                    {"edit": label, **response.to_dict()}
                    for label, response in steps
                ],
                "cache": stats.cache,
                "sessions_opened": stats.sessions_opened,
            }
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            source = args.scenario or args.dataset
            print(f"== repro.service session demo: {args.edits} edits x "
                  f"{args.method} on {source} ==")
            for label, response in steps:
                result = response.result
                print(f"  {label:>18s}: cache_hit={response.cache_hit!s:<5s} "
                      f"error={result.error} "
                      f"latency={response.latency * 1e3:.1f}ms")
            print(f"  cache: hits={stats.cache['hits']} "
                  f"misses={stats.cache['misses']} | "
                  f"sessions opened: {stats.sessions_opened}")
        emit_observability(args, server)
        return 0

    server, responses = asyncio.run(run_burst(args))
    stats = server.stats()
    if args.json:
        payload = {
            "stats": {
                "requests": stats.requests,
                "coalesced": stats.coalesced,
                "cache_hits": stats.cache_hits,
                "batches": stats.batches,
                "solver_invocations": stats.solver_invocations,
                "mean_latency": stats.mean_latency,
                "p95_latency": stats.p95_latency,
                "throughput": stats.throughput,
                "wall_time": stats.wall_time,
                "cache": stats.cache,
            },
            "responses": [response.to_dict() for response in responses],
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(f"== repro.service burst: {args.queries} x {args.method} "
              f"on {args.dataset} ({args.backend} backend) ==")
        print(stats.describe())
        for response in responses[: args.distinct]:
            result = response.result
            print(f"  {response.request_id}: error={result.error} "
                  f"cache_hit={response.cache_hit} coalesced={response.coalesced} "
                  f"latency={response.latency * 1e3:.1f}ms")
    emit_observability(args, server)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
