"""Demo: observe a serving workload -- trace it, drill down, replay it.

Walks the three faces of the :mod:`repro.obs` subsystem on one live
:class:`~repro.service.QueryServer`:

1. **Trace** a burst of queries (distinct problems, repeats that coalesce or
   hit the cache, plus a session edit) with span tracing enabled, and print
   the unified metrics export.
2. **Drill down** into the slowest trace: the span tree shows where the time
   went -- service intake, engine dispatch (hit/miss/dedup), executor
   queue-wait, down to the solver's simplex iterations and B&B nodes.
3. **Replay** the recorded workload profile (an append-only JSONL stream of
   fingerprints, gaps, and costs) against a fresh engine and confirm it
   reproduces the original hit/miss sequence -- the input the
   workload-adaptive cache experiments consume.

Run with::

    PYTHONPATH=src python examples/observe_queries.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.bench.harness import nba_problem
from repro.engine import SolveEngine, SolveRequest
from repro.obs import Observability, WorkloadProfile
from repro.service import QueryServer, QueryServerOptions

SYMGD_PARAMS = {
    "cell_size": 0.1,
    "max_iterations": 6,
    "solver_options": {
        "node_limit": 150,
        "verify": False,
        "warm_start_strategy": "none",
    },
}

INTERESTING_ATTRS = (
    "outcome", "queue_wait", "nodes", "lp_iterations",
    "cache_hit", "coalesced", "error",
)


def print_span(node: dict, depth: int = 0) -> None:
    attrs = node.get("attributes", {})
    shown = ", ".join(
        f"{key}={attrs[key]}" for key in INTERESTING_ATTRS if key in attrs
    )
    print(
        f"  {'  ' * depth}{node['name']:<28} {node['duration'] * 1e3:8.2f} ms"
        + (f"   [{shown}]" if shown else "")
    )
    for child in node.get("children", []):
        print_span(child, depth + 1)


async def traced_workload(obs: Observability, problems) -> list[str]:
    """Fire the burst; return the fingerprints in submission order."""
    options = QueryServerOptions(backend="serial")
    fingerprints: list[str] = []
    async with QueryServer(options=options, obs=obs) as server:
        # Distinct problems, then repeats: the repeats coalesce in-flight or
        # hit the cache, and the profile recorder sees every one of them.
        order = [0, 1, 0, 2, 0, 1]
        for index in order:
            response = await server.submit(problems[index], "symgd", SYMGD_PARAMS)
            fingerprints.append(response.outcome.fingerprint)

        # A session edit rides the same trace/profile plumbing and records
        # its delta kinds.
        session = await server.open_session(problems[2], "symgd", SYMGD_PARAMS)
        edited = await server.submit_session(
            session, deltas=[{"kind": "tolerance", "eps1": 0.08, "eps2": 0.02}]
        )
        fingerprints.append(edited.outcome.fingerprint)

        print("-- 1. unified metrics export (excerpt) " + "-" * 30)
        for line in server.export_metrics_prometheus().splitlines():
            if line.startswith("repro_service_") and "_bucket" not in line:
                print("  " + line)
        print("  " + server.stats().describe())
    return fingerprints


def drill_down(obs: Observability) -> None:
    print("\n-- 2. slowest trace, span by span " + "-" * 35)
    [slowest] = obs.tracer.slowest_traces(1)
    tree = obs.tracer.export_trace(slowest["trace_id"])
    print(f"  trace {tree['trace_id']}: {tree['spans']} spans, "
          f"{tree['duration'] * 1e3:.1f} ms end to end")
    for root in tree["roots"]:
        print_span(root)


def replay(profile_path: Path, problems) -> None:
    print("\n-- 3. workload profile replay " + "-" * 39)
    profile = WorkloadProfile.load(profile_path)
    summary = profile.summary()
    print(f"  {summary['requests']} requests over "
          f"{summary['distinct_fingerprints']} distinct fingerprints, "
          f"reuse rate {summary['reuse_rate']:.0%}, "
          f"total recompute cost {summary['total_cost']:.2f}s")
    print(f"  recorded hit sequence: {profile.hit_sequence()}")

    # Rebuild the requests the fingerprints refer to, then replay the stream
    # against a *fresh* engine: the reproduced hit/miss sequence is what the
    # workload-adaptive cache experiments validate against.
    by_fingerprint = {}
    for problem in problems:
        request = SolveRequest(problem, "symgd", dict(SYMGD_PARAMS))
        by_fingerprint[request.fingerprint] = request
    replayable = WorkloadProfile(
        [r for r in profile.records if r.fingerprint in by_fingerprint]
    )
    fresh = SolveEngine(backend="serial")
    try:
        from repro.obs.profile import replay_profile

        flags = replay_profile(
            replayable, fresh, lambda record: by_fingerprint[record.fingerprint]
        )
    finally:
        fresh.close()
    print(f"  replayed hit sequence: {flags}")
    assert flags == replayable.hit_sequence(), "replay diverged from recording"
    print("  replay reproduced the recorded hit/miss sequence exactly.")


def main() -> None:
    profile_path = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "workload.jsonl"
    obs = Observability.enabled(profile_path=profile_path)

    print("Building 3 distinct NBA how-to-rank problems ...")
    problems = [
        nba_problem(num_tuples=120, num_attributes=5, k=3 + index)
        for index in range(3)
    ]
    asyncio.run(traced_workload(obs, problems))
    drill_down(obs)
    obs.close()
    replay(profile_path, problems)
    print(f"\nProfile JSONL kept at {profile_path}")


if __name__ == "__main__":
    main()
