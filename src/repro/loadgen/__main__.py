"""CLI load harness: ``python -m repro.loadgen``.

Builds a seeded, reproducible workload -- stochastic query lanes over
scenario families plus session-edit lanes (and, with ``--replay``, a
trace-driven lane from a :mod:`repro.obs` workload-profile JSONL) -- and
drives it through a sharded cluster in closed- or open-loop mode, printing
the load report (exact p50/p95/p99, QPS, hit rate, sheds, per-shard
balance) and optionally writing it as JSON.

Examples::

    python -m repro.loadgen --shards 2 --ops 24 --edits 4
    python -m repro.loadgen --mode open --rate 200 --queue-limit 4
    python -m repro.loadgen --replay workload.jsonl --mode open
    python -m repro.loadgen --seed 11 --json --out BENCH_service.json
    python -m repro.loadgen --shards 2 --chaos-kill 0@5 --json

Chaos runs (``--chaos-kill SHARD@OP``, repeatable) install a seeded
:class:`~repro.chaos.FaultPlan` on the router: the named shard is killed
when the router sees its Nth operation, the router restarts it, and the
closed loop's retry policy carries every lane through -- the payload then
includes the fault log and the router's Prometheus exposition so CI can
assert zero lost operations and digest parity against the fault-free run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import ClusterOptions, ClusterRouter
from repro.loadgen.report import build_report
from repro.loadgen.runner import run_closed_loop, run_open_loop
from repro.loadgen.users import (
    DEFAULT_FAMILIES,
    QueryMixUser,
    ReplayUser,
    SessionEditUser,
    build_plan,
)

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_users(args: argparse.Namespace) -> list:
    """User classes from the CLI flags (one plan, fully seed-determined)."""
    params = dict(FAST_PARAMS)
    users: list = []
    if args.replay:
        users.append(
            ReplayUser(
                "replay",
                profile=args.replay,
                families=args.families,
                method=args.method,
                params=params,
                limit=args.ops or None,
            )
        )
        return users
    for lane in range(args.query_lanes):
        users.append(
            QueryMixUser(
                f"queries-{lane}",
                families=args.families,
                count=args.ops,
                pool_size=args.pool,
                methods=(args.method,),
                params=params,
                mean_gap=args.mean_gap,
                seed_index=lane * args.pool,
            )
        )
    for lane in range(args.session_lanes):
        users.append(
            SessionEditUser(
                f"editor-{lane}",
                family=args.families[lane % len(args.families)],
                index=lane,
                edits=args.edits,
                method=args.method,
                params=params,
                mean_gap=args.mean_gap,
            )
        )
    return users


def build_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """A seeded :class:`FaultPlan` from the ``--chaos-kill`` flags."""
    if not args.chaos_kill:
        return None
    faults = []
    for spec in args.chaos_kill:
        shard_text, _, op_text = spec.partition("@")
        try:
            shard, at_op = int(shard_text), int(op_text)
        except ValueError:
            raise SystemExit(
                f"--chaos-kill expects SHARD@OP (got {spec!r})"
            ) from None
        faults.append(FaultSpec(kind="kill_shard", at_op=at_op, shard=shard))
    return FaultPlan(faults, seed=args.seed)


async def run(args: argparse.Namespace) -> dict:
    users = build_users(args)
    plan = build_plan(users, seed=args.seed)
    chaos = build_fault_plan(args)
    options = ClusterOptions(
        num_shards=args.shards,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
    )
    async with ClusterRouter(options, chaos=chaos) as cluster:
        if args.mode == "open":
            results, wall = await run_open_loop(
                cluster, plan, rate=args.rate, deadline=args.deadline
            )
        else:
            results, wall = await run_closed_loop(
                cluster, plan, deadline=args.deadline
            )
        await cluster.drain()
        stats = await cluster.stats()
        prometheus = (
            await cluster.export_metrics_prometheus() if chaos else None
        )
    report = build_report(args.mode, results, wall, stats)
    payload = {
        "seed": args.seed,
        "shards": args.shards,
        "queue_limit": args.queue_limit,
        "deadline": args.deadline,
        "report": report.to_dict(),
        "digests": dict(report.digests),
        "describe": report.describe(),
        "cluster": stats.to_dict(),
    }
    if chaos is not None:
        payload["faults"] = cluster.chaos.summary()
        payload["prometheus"] = prometheus
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Drive a seeded workload through a sharded serving cluster.",
    )
    parser.add_argument("--shards", type=int, default=2,
                        help="worker shards in the cluster (default: 2)")
    parser.add_argument("--mode", default="closed", choices=("closed", "open"),
                        help="closed: next op after previous response; "
                        "open: scheduled arrivals, sheds not retried")
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop arrival rate in ops/s (default: use "
                        "each lane's generated/recorded gaps)")
    parser.add_argument("--query-lanes", type=int, default=2,
                        help="stochastic query-mix lanes (default: 2)")
    parser.add_argument("--ops", type=int, default=12,
                        help="queries per query lane (default: 12)")
    parser.add_argument("--pool", type=int, default=4,
                        help="distinct problems per query lane (default: 4)")
    parser.add_argument("--session-lanes", type=int, default=1,
                        help="session edit-chain lanes (default: 1)")
    parser.add_argument("--edits", type=int, default=3,
                        help="edits per session lane (default: 3)")
    parser.add_argument("--scenario", default=None, metavar="FAMILY[,FAMILY...]",
                        help="scenario families for the mix "
                        f"(default: {','.join(DEFAULT_FAMILIES)})")
    parser.add_argument("--method", default="symgd")
    parser.add_argument("--mean-gap", type=float, default=0.0,
                        help="mean exponential inter-arrival gap per lane, "
                        "seconds (shapes open-loop arrivals; default: 0)")
    parser.add_argument("--replay", default=None, metavar="PROFILE.jsonl",
                        help="replay a recorded workload profile instead of "
                        "the stochastic mix")
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="per-shard admission limit (default: 32)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared disk cache tier directory")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-operation deadline budget, seconds "
                        "(expired requests are shed pre-solve and retried "
                        "by the closed loop)")
    parser.add_argument("--chaos-kill", action="append", default=[],
                        metavar="SHARD@OP",
                        help="kill SHARD when the router sees operation OP "
                        "(repeatable); installs a seeded FaultPlan and adds "
                        "the fault log + Prometheus text to the payload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true",
                        help="print the full report payload as JSON")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the JSON payload to PATH")
    args = parser.parse_args(argv)

    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be positive")
    args.families = DEFAULT_FAMILIES
    if args.scenario:
        from repro.scenarios import list_families

        families = tuple(
            name.strip() for name in args.scenario.split(",") if name.strip()
        )
        unknown = [f for f in families if f not in set(list_families(include_heavy=True))]
        if not families or unknown:
            parser.error(f"--scenario names unknown families "
                         f"{unknown or '(none given)'}")
        args.families = families

    payload = asyncio.run(run(args))
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(f"== repro.loadgen: {payload['report']['operations']} ops, "
              f"{args.shards} shards, {args.mode} loop ==")
        print(payload["describe"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
