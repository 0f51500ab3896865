"""Open- and closed-loop execution of a load plan against a serving target.

The runner is target-agnostic: anything exposing the serving coroutines
(``submit`` / ``open_session`` / ``submit_session``) works -- a
:class:`~repro.service.QueryServer` (single worker) or a
:class:`~repro.cluster.ClusterRouter` (sharded).  Two loop disciplines:

* :func:`run_closed_loop` -- each lane is one synchronous user: the next
  operation starts when the previous response arrives.  Transient failures
  (backpressure, a crashed-and-restarting shard, an injected chaos fault, a
  missed deadline -- anything ``retryable``) are retried under a seeded
  :class:`~repro.service.RetryPolicy` (exponential backoff, deterministic
  jitter), counting retries and total backoff time.  Offered load adapts to
  capacity, so every operation completes -- this is the mode for
  parity/throughput measurement, chaos runs included.
* :func:`run_open_loop` -- operations arrive on a schedule that ignores
  completions (the lane's recorded/generated gaps, or a fixed ``rate``
  overriding them).  By default nothing is retried: under overload the
  correct outcome is a bounded queue and explicit sheds, and the report
  records exactly how many.  Per-lane order still holds (session edits
  cannot overtake their open): each operation waits on its predecessor
  *after* its arrival time.

Every executed operation yields one :class:`OperationResult` carrying the
routed shard, reuse/failover flags, and a canonical answer digest
(:func:`repro.loadgen.report.answer_digest`) -- the digest stream is what
the parity tests compare across topologies *and* across fault-free vs
chaos runs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.cluster.router import ShardBusyError
from repro.loadgen.report import answer_digest
from repro.service.errors import DeadlineExceededError
from repro.service.retry import RetryPolicy

__all__ = ["OperationResult", "run_closed_loop", "run_open_loop"]

#: Closed-loop default: generous budget (a closed loop must complete its
#: plan even through a shard restart window), short seeded backoff.
_CLOSED_LOOP_RETRY = RetryPolicy(
    max_retries=1000, base_backoff=0.02, max_backoff=0.5
)


@dataclass
class OperationResult:
    """Outcome of one executed (or shed) operation."""

    lane: str
    index: int
    kind: str
    ok: bool
    shed: bool = False
    retries: int = 0
    backoff_time: float = 0.0
    deadline_misses: int = 0
    latency: float = 0.0
    shard: int = 0
    cache_hit: bool = False
    coalesced: bool = False
    failover: bool = False
    fingerprint: str = ""
    digest: str = ""
    error: str | None = None

    @property
    def key(self) -> tuple:
        """Stable identity for cross-topology comparison."""
        return (self.lane, self.index)


def _normalize(response) -> dict:
    """One response shape for QueryResponse and ClusterResponse."""
    if hasattr(response, "outcome"):  # QueryResponse (single server)
        return {
            "result": response.result,
            "fingerprint": response.outcome.fingerprint,
            "cache_hit": response.cache_hit,
            "coalesced": response.coalesced,
            "shard": 0,
            "failover": False,
        }
    return {
        "result": response.result,
        "fingerprint": response.fingerprint,
        "cache_hit": response.cache_hit,
        "coalesced": response.coalesced,
        "shard": response.shard,
        "failover": getattr(response, "failover", False),
    }


async def _perform(target, operation, sessions: dict, deadline: float | None):
    """Issue one operation; returns the raw response (None for opens)."""
    if operation.kind == "query":
        if deadline is None:
            return await target.submit(
                operation.problem, operation.method, operation.params
            )
        return await target.submit(
            operation.problem, operation.method, operation.params,
            deadline=deadline,
        )
    if operation.kind == "session_open":
        session_id = await target.open_session(
            operation.problem, operation.method, operation.params
        )
        sessions[operation.session_key] = session_id
        return None
    if operation.kind == "session_edit":
        session_id = sessions.get(operation.session_key)
        if session_id is None:
            raise RuntimeError(
                f"lane {operation.lane!r}: session_edit before session_open"
            )
        if deadline is None:
            return await target.submit_session(session_id, deltas=operation.deltas)
        return await target.submit_session(
            session_id, deltas=operation.deltas, deadline=deadline
        )
    raise ValueError(f"unknown operation kind {operation.kind!r}")


async def _execute(
    target,
    operation,
    sessions: dict,
    retry: RetryPolicy | None,
    deadline: float | None = None,
) -> OperationResult:
    """One operation through the retry loop; never raises.

    ``retry`` governs every *retryable* failure uniformly: busy shards,
    crashed/restarting shards, dropped messages and other injected chaos
    faults, and expired deadlines (each attempt gets a fresh relative
    deadline budget; misses are counted).  A failed session edit committed
    nothing (the server rolls its edits back), so the retry re-sends the
    same deltas.  A non-retryable error -- or a
    retryable one past the budget -- is recorded, with
    :class:`~repro.cluster.ShardBusyError` keeping its distinct ``shed``
    accounting (that is the open loop's overload signal).
    """
    retries = 0
    backoff_time = 0.0
    deadline_misses = 0
    arrived = time.perf_counter()
    while True:
        try:
            response = await _perform(target, operation, sessions, deadline)
        except Exception as error:
            if isinstance(error, DeadlineExceededError):
                deadline_misses += 1
            if (
                retry is not None
                and retry.retryable(error)
                and retries < retry.max_retries
            ):
                delay = retry.backoff(
                    retries, key=(operation.lane, operation.index)
                )
                retries += 1
                backoff_time += delay
                await asyncio.sleep(delay)
                continue
            shed = isinstance(error, ShardBusyError)
            return OperationResult(
                lane=operation.lane,
                index=operation.index,
                kind=operation.kind,
                ok=False,
                shed=shed,
                retries=retries,
                backoff_time=backoff_time,
                deadline_misses=deadline_misses,
                latency=time.perf_counter() - arrived,
                shard=error.shard if shed else 0,
                error=None if shed else f"{type(error).__name__}: {error}",
            )
        latency = time.perf_counter() - arrived
        if response is None:  # session_open: bookkeeping, not a solve
            return OperationResult(
                lane=operation.lane,
                index=operation.index,
                kind=operation.kind,
                ok=True,
                retries=retries,
                backoff_time=backoff_time,
                deadline_misses=deadline_misses,
                latency=latency,
            )
        payload = _normalize(response)
        return OperationResult(
            lane=operation.lane,
            index=operation.index,
            kind=operation.kind,
            ok=True,
            retries=retries,
            backoff_time=backoff_time,
            deadline_misses=deadline_misses,
            latency=latency,
            shard=payload["shard"],
            cache_hit=payload["cache_hit"],
            coalesced=payload["coalesced"],
            failover=payload["failover"],
            fingerprint=payload["fingerprint"],
            digest=answer_digest(payload["result"]),
        )


async def run_closed_loop(
    target,
    plan: dict,
    retry: RetryPolicy | None = None,
    deadline: float | None = None,
) -> tuple[list, float]:
    """Drive every lane as a synchronous user; returns ``(results, wall)``.

    Lanes run concurrently; within a lane, each operation starts when the
    previous one finishes.  Retryable failures -- busy shards, crashed
    shards mid-restart, chaos faults, missed deadlines -- are retried
    under ``retry`` (default: a 1000-attempt seeded policy, so a
    closed-loop run completes its whole plan even through a fault window).
    ``deadline`` is a per-operation relative budget in seconds threaded to
    the target's ``submit`` / ``submit_session``.
    """
    if retry is None:
        retry = _CLOSED_LOOP_RETRY
    results: list = []

    async def lane_task(operations):
        sessions: dict = {}
        for operation in operations:
            results.append(
                await _execute(
                    target, operation, sessions, retry, deadline=deadline
                )
            )

    started = time.perf_counter()
    await asyncio.gather(*(lane_task(ops) for ops in plan.values()))
    return results, time.perf_counter() - started


async def run_open_loop(
    target,
    plan: dict,
    rate: float | None = None,
    time_scale: float = 1.0,
    retry: RetryPolicy | None = None,
    deadline: float | None = None,
) -> tuple[list, float]:
    """Drive the plan on an arrival schedule; returns ``(results, wall)``.

    Arrival times come from each lane's per-operation ``gap`` values
    (scaled by ``time_scale``; replayed traces often want compression).
    ``rate`` overrides them with a fixed cluster-wide arrival rate in
    operations/second, interleaving lanes round-robin.  Arrivals do not
    wait for completions -- offered load is constant, which is the loop
    discipline that exposes overload: by default nothing is retried, so
    queries shed by admission control are recorded (``shed=True``) as-is;
    pass ``retry`` to model clients that back off instead.  ``deadline``
    is a per-operation relative budget in seconds.  Session operations
    additionally wait for their lane predecessor (edits cannot overtake
    their open, matching any real client's ordering).
    """
    schedule: list = []  # (arrival_time, operation)
    if rate is not None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        lanes = [list(ops) for ops in plan.values() if ops]
        interleaved, cursor = [], 0
        while lanes:
            lane = lanes[cursor % len(lanes)]
            interleaved.append(lane.pop(0))
            if not lane:
                lanes.remove(lane)
            cursor += 1
        schedule = [(i / rate, op) for i, op in enumerate(interleaved)]
    else:
        for operations in plan.values():
            clock = 0.0
            for operation in operations:
                clock += max(operation.gap, 0.0) * time_scale
                schedule.append((clock, operation))

    results: list = []
    sessions: dict = {}
    # Per-lane predecessor chaining for stateful order; queries run free.
    previous_done: dict[tuple, asyncio.Event] = {}

    async def fire(arrival, operation, wait_for):
        await asyncio.sleep(arrival)
        if wait_for is not None:
            await wait_for.wait()
        result = await _execute(
            target, operation, sessions, retry, deadline=deadline
        )
        results.append(result)

    tasks = []
    for arrival, operation in sorted(schedule, key=lambda item: item[0]):
        wait_for = None
        if operation.kind in ("session_open", "session_edit"):
            wait_for = previous_done.get(("lane", operation.lane))
            done = asyncio.Event()
            previous_done[("lane", operation.lane)] = done
        task = asyncio.get_running_loop().create_task(
            fire(arrival, operation, wait_for)
        )
        if operation.kind in ("session_open", "session_edit"):
            task.add_done_callback(lambda _t, event=done: event.set())
        tasks.append(task)

    started = time.perf_counter()
    await asyncio.gather(*tasks)
    return results, time.perf_counter() - started
