"""Fingerprint-sharded cluster front-end with admission control.

:class:`ClusterRouter` is the serving topology's front door: it owns ``N``
shards (each a full engine + :class:`~repro.service.QueryServer` core on
the router's event loop), routes every stateless query by
its **request fingerprint** -- so identical queries always land on the same
shard and keep coalescing/caching there -- and pins stateful edit sessions
to the shard that opened them (the session's server-side state lives
nowhere else).

The router adds the cluster-level behaviors a single server cannot provide:

* **Admission control / backpressure** -- at most ``queue_limit`` queries
  may be pending per shard; the next one is *shed* with
  :class:`ShardBusyError` carrying a ``retry_after`` hint, instead of
  growing an unbounded queue.  Sheds are counted per shard and surfaced in
  :meth:`stats` (``totals.shed``) and Prometheus
  (``repro_cluster_shed_total``).  Pinned-session traffic bypasses
  admission: shedding mid-chain would strand server-side session state,
  and the bound exists to protect shards from anonymous query floods.
* **Shared cache tier** -- all shards point at the same content-addressed
  disk cache directory (when configured), so a result computed on one shard
  is a disk hit on any other.
* **Graceful drain** -- :meth:`drain` waits until every admitted request on
  every shard has been answered and profile sinks are flushed;
  :meth:`stop` drains, then tears the shards down.
* **Restart & failover** -- the router is the only place a shard dies
  (:meth:`kill_shard`, which the chaos ``kill_shard`` fault calls).  A
  killed shard is stopped and restarted after a backoff of
  ``RESTART_BACKOFF`` seconds, doubling per restart, up to
  ``MAX_RESTARTS`` times; its hot set reloads from the per-shard hot-set
  file, and every session pinned to it is replayed from the router's
  append-only **session journal** (base + delta chain, the
  :meth:`ServerSession.to_dict` wire format).  While the shard is down,
  its *stateless* query traffic fails over to the next live shard -- any
  shard computes the same bitwise answer, so failover is correctness-free
  -- and session traffic fails with a retryable :class:`ShardCrashedError`
  until the replay finishes.
* **One metrics surface** -- :meth:`export_metrics_prometheus` sums the
  live shards' registry snapshots with the router's own ``repro_cluster_*``
  series (:func:`repro.obs.export.merge_snapshots`) and renders them once;
  the result parses like a single server's export.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field

from repro.chaos import ChaosError, ChaosInjector, FaultPlan
from repro.core.problem import RankingProblem
from repro.engine.engine import SolveRequest
from repro.obs.export import merge_snapshots, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.service.errors import DeadlineExceededError
from repro.service.server import QueryServer, QueryServerOptions, ServiceStats

__all__ = [
    "ClusterOptions",
    "ClusterResponse",
    "ClusterStats",
    "ClusterRouter",
    "ShardBusyError",
    "ShardCrashedError",
]

_ROUTE_HEX_DIGITS = 16  # leading fingerprint digits used for shard routing
#: Restarts allowed per shard; the next death leaves it terminal.
MAX_RESTARTS = 3
#: Seconds before a shard's first restart; doubles with each restart.
RESTART_BACKOFF = 0.05


class ShardBusyError(RuntimeError):
    """A shard's admission queue is full; retry after ``retry_after`` seconds.

    This is the cluster's backpressure signal: the request was *not*
    admitted (nothing was enqueued), so retrying the identical call after
    the hint is always safe.
    """

    #: Backpressure is transient by definition (see repro.service.RetryPolicy).
    retryable = True

    def __init__(self, shard: int, retry_after: float) -> None:
        super().__init__(
            f"shard {shard} is at its admission limit; "
            f"retry after {retry_after:.3f}s"
        )
        self.shard = shard
        self.retry_after = retry_after


class ShardCrashedError(RuntimeError):
    """The target shard is down (and, for sessions, not failover-eligible).

    Raised when a request cannot be served because its shard died:
    session traffic while the owning shard restarts (session state lives on
    exactly one shard, so there is nowhere to fail over to), or stateless
    traffic when *no* live shard remains.  ``retryable`` is the restart
    verdict: ``True`` while a restart is pending or in progress (back off
    ``retry_after`` seconds and reissue), ``False`` once the shard's
    restart budget is exhausted -- the terminal state, surfaced instead of
    retrying forever.
    """

    def __init__(
        self, shard: int, retry_after: float, terminal: bool = False
    ) -> None:
        state = "permanently down" if terminal else "restarting"
        super().__init__(
            f"shard {shard} crashed and is {state}; "
            + ("give up" if terminal else f"retry after {retry_after:.3f}s")
        )
        self.shard = shard
        self.retry_after = retry_after
        self.terminal = terminal
        self.retryable = not terminal


@dataclass(frozen=True)
class ClusterOptions:
    """Topology and admission knobs of the cluster front-end.

    Attributes:
        num_shards: Shard count; each shard is a full engine + server core.
        queue_limit: Max queries pending per shard before the router sheds
            (admission control); pinned-session traffic is exempt.
        retry_after: Seconds a shed caller is told to back off
            (:attr:`ShardBusyError.retry_after`).
        cache_dir: Shared content-addressed disk cache directory handed to
            every shard (cross-shard hit tier).  ``None`` keeps caches
            shard-private.
        server: Per-shard :class:`QueryServerOptions`; ``cache_dir`` above
            overrides the copy each shard receives, and a ``hot_set_path``
            is suffixed ``.s<index>`` per shard so hot-set files never
            collide.
    """

    num_shards: int = 2
    queue_limit: int = 32
    retry_after: float = 0.05
    cache_dir: str | None = None
    server: QueryServerOptions = field(default_factory=QueryServerOptions)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


@dataclass
class ClusterResponse:
    """What a caller gets back from the router (plus which shard served it)."""

    request_id: str
    shard: int
    result: object
    fingerprint: str
    cache_hit: bool
    coalesced: bool
    latency: float
    batch_size: int
    session_id: str | None = None
    #: True when the owning shard was down and a fallback shard answered.
    failover: bool = False


@dataclass
class ClusterStats:
    """Cluster-wide aggregate plus the per-shard drill-down.

    ``totals`` reuses :class:`~repro.service.ServiceStats`: counters are
    sums over shards, ``shed`` is the router's admission-reject count, and
    the latency distribution is the *router-side* end-to-end view.
    """

    shards: int
    totals: ServiceStats
    per_shard: list
    routed: list
    shed: list
    queue_depth: list
    peak_queue_depth: list
    sessions_pinned: int
    restarts: list = field(default_factory=list)
    failovers: list = field(default_factory=list)
    dead: list = field(default_factory=list)
    deadline_exceeded: int = 0
    restart_log: list = field(default_factory=list)

    def describe(self) -> str:
        balance = "/".join(str(n) for n in self.routed)
        return (
            f"cluster[{self.shards}] {self.totals.describe()} | "
            f"balance={balance} pinned_sessions={self.sessions_pinned} "
            f"restarts={sum(self.restarts)} failovers={sum(self.failovers)}"
        )

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "totals": asdict(self.totals),
            "per_shard": [asdict(stats) for stats in self.per_shard],
            "routed": list(self.routed),
            "shed": list(self.shed),
            "queue_depth": list(self.queue_depth),
            "peak_queue_depth": list(self.peak_queue_depth),
            "sessions_pinned": self.sessions_pinned,
            "restarts": list(self.restarts),
            "failovers": list(self.failovers),
            "dead": list(self.dead),
            "deadline_exceeded": self.deadline_exceeded,
            "restart_log": [dict(entry) for entry in self.restart_log],
        }


def _sum_numeric(dicts: list) -> dict:
    """Key-wise sum of numeric entries across per-shard stat dicts."""
    merged: dict = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


class ClusterRouter:
    """Shard-by-fingerprint front-end over N :class:`QueryServer` shards.

    Use as an async context manager::

        options = ClusterOptions(num_shards=2, cache_dir="/tmp/tier")
        async with ClusterRouter(options) as cluster:
            response = await cluster.submit(problem, method="symgd")
    """

    def __init__(
        self,
        options: ClusterOptions | None = None,
        chaos: FaultPlan | ChaosInjector | None = None,
    ) -> None:
        self.options = options or ClusterOptions()
        server_options = self.options.server
        if self.options.cache_dir is not None:
            from dataclasses import replace

            server_options = replace(
                server_options, cache_dir=self.options.cache_dir
            )
        self._server_options = server_options
        #: Runtime fault injector (one per run); a FaultPlan is instantiated.
        self.chaos: ChaosInjector | None = (
            chaos.injector() if isinstance(chaos, FaultPlan) else chaos
        )
        self.shards: list[QueryServer] = []
        self._started = False
        self._closing = False
        self._pending = [0] * self.options.num_shards
        self._peak_pending = [0] * self.options.num_shards
        self._routed = [0] * self.options.num_shards
        self._shed = [0] * self.options.num_shards
        # Liveness, all indexed by shard: a shard is routable iff neither
        # dead nor terminal.  `dead` flips on at death and off when a restart
        # completes; `terminal` is one-way (restart budget exhausted).
        self._dead = [False] * self.options.num_shards
        self._terminal = [False] * self.options.num_shards
        self._restarts = [0] * self.options.num_shards
        self._failovers = [0] * self.options.num_shards
        self._restart_log: list[dict] = []
        self._restart_tasks: dict[int, asyncio.Task] = {}
        self._deadline_exceeded = 0
        # Append-only session journal: session_id -> {base, method, params,
        # deltas}.  Deltas are appended only AFTER the owning shard
        # acknowledged them, so replaying the journal on a restarted
        # shard reconstructs exactly the state the client knows about (an
        # op in flight at crash time fails retryably and re-applies once).
        self._session_journal: dict[str, dict] = {}
        self._session_shard: dict[str, int] = {}
        self._session_counter = 0
        self._request_counter = 0
        self._started_at: float | None = None
        self._finished_at: float | None = None
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self._collect_metrics)
        if self.chaos is not None:
            self.metrics.register_collector(self.chaos.collect_metrics)
        self._latency_hist = self.metrics.histogram(
            "repro_cluster_request_latency_seconds",
            "Router-side end-to-end request latency (seconds, full run)",
        )

    # -- lifecycle ------------------------------------------------------------

    def _build_shard(self, index: int) -> QueryServer:
        """One shard's server, with its per-shard hot-set path resolved."""
        shard_options = self._server_options
        if shard_options.hot_set_path is not None:
            from dataclasses import replace

            # Per-shard hot-set files: the resident sets differ by
            # construction (fingerprint sharding), so sharing one file
            # would have the last-drained shard clobber the others.
            shard_options = replace(
                shard_options,
                hot_set_path=f"{shard_options.hot_set_path}.s{index}",
            )
        return QueryServer(options=shard_options)

    def _attach_chaos(self, server: QueryServer) -> None:
        """Wire the run's injector into a (re)started shard's engine hooks.

        The executor hook fires ``solver_error``; the cache hook fires the
        targeted cache corruption.  Kills and pipe faults stay at the router.
        """
        if self.chaos is not None:
            server.engine.executor.fault_hook = self.chaos.executor_hook
            server.engine.cache.fault_hook = self.chaos.cache_read_hook

    async def start(self) -> "ClusterRouter":
        """Build and start every shard (idempotent)."""
        if self._started:
            return self
        # Every shard gets a fresh server, so a shard killed before a stop()
        # is alive again, with a full restart budget.
        num_shards = self.options.num_shards
        self._dead = [False] * num_shards
        self._terminal = [False] * num_shards
        self._restarts = [0] * num_shards
        for index in range(num_shards):
            self.shards.append(self._build_shard(index))
        try:
            await asyncio.gather(*(shard.start() for shard in self.shards))
        except BaseException:
            await asyncio.gather(
                *(shard.stop() for shard in self.shards),
                return_exceptions=True,
            )
            self.shards.clear()
            raise
        for shard in self.shards:
            self._attach_chaos(shard)
        self._started = True
        self._closing = False
        return self

    async def drain(self) -> None:
        """Wait until every admitted request on every live shard is answered.

        Pending restarts are awaited first (so a shard that died mid-run is
        back -- with its sessions replayed -- before drain returns); dead or
        terminal shards have nothing admitted to wait for.
        """
        while self._restart_tasks:
            await asyncio.gather(
                *list(self._restart_tasks.values()), return_exceptions=True
            )
        await asyncio.gather(
            *(
                shard.drain()
                for index, shard in enumerate(self.shards)
                if self._routable(index)
            )
        )

    async def stop(self) -> None:
        """Graceful shutdown: drain everything, then tear the shards down."""
        if not self._started or self._closing:
            return
        self._closing = True
        if self._restart_tasks:
            # Let in-flight recoveries finish (bounded by backoff + start
            # cost) rather than cancelling them into a half-built shard.
            await asyncio.gather(
                *list(self._restart_tasks.values()), return_exceptions=True
            )
        await asyncio.gather(
            *(
                shard.stop() if self._routable(i) else self._abort(shard)
                for i, shard in enumerate(self.shards)
            ),
            return_exceptions=True,
        )
        self.shards.clear()
        self._started = False

    # -- crash and restart ----------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """Crash shard ``index`` now; its recovery starts at once.

        The shard's server, sessions and memory cache are as good as lost.
        A call in flight on it loses its answer: queries fail over, session
        calls raise a retryable :class:`ShardCrashedError`.  Killing a dead
        or terminal shard does nothing.
        """
        self._require_running()
        if not self._routable(index):
            return
        self._dead[index] = True
        task = asyncio.get_running_loop().create_task(
            self._recover_shard(index)
        )
        self._restart_tasks[index] = task
        task.add_done_callback(
            lambda _task, i=index: self._restart_tasks.pop(i, None)
        )

    @staticmethod
    async def _abort(server: QueryServer) -> None:
        """Stop a dead shard's server without drain semantics.

        Stopping releases its engine and resolves its waiters; its sessions
        and memory cache die with it, exactly like a killed process.
        """
        try:
            await asyncio.wait_for(server.stop(), timeout=30)
        except Exception:  # pragma: no cover - defensive teardown
            pass

    async def _recover_shard(self, index: int) -> None:
        """Stop the dead shard, then restart it (budget and backoff allowing).

        The ``n``-th restart waits ``RESTART_BACKOFF * 2**(n-1)`` seconds;
        after ``MAX_RESTARTS`` restarts the shard is terminal.  A successful
        restart reloads the shard's persisted hot set (the fresh server's
        :meth:`start` promotes it from the shared disk tier) and replays
        every journaled session pinned to the shard, so pinned clients
        resume after a retryable error window instead of losing state.
        """
        started = time.perf_counter()
        await self._abort(self.shards[index])
        if self._restarts[index] >= MAX_RESTARTS:
            self._terminal[index] = True
            return
        backoff = RESTART_BACKOFF * 2 ** self._restarts[index]
        self._restarts[index] += 1
        await asyncio.sleep(backoff)
        if self._closing:
            return
        server = self._build_shard(index)
        try:
            await server.start()
        except Exception:
            self._terminal[index] = True
            await self._abort(server)
            return
        self._attach_chaos(server)
        self.shards[index] = server
        replayed = 0
        for session_id, journal in list(self._session_journal.items()):
            if self._session_shard.get(session_id) != index:
                continue
            try:
                await server.resume_session(
                    self._journal_payload(session_id, journal),
                    session_id=session_id,
                )
                replayed += 1
            except Exception:  # pragma: no cover - replay is best-effort
                pass
        self._dead[index] = False
        self._restart_log.append(
            {
                "shard": index,
                "restart": self._restarts[index],
                "backoff": backoff,
                "duration": time.perf_counter() - started,
                "sessions_replayed": replayed,
            }
        )

    @staticmethod
    def _journal_payload(session_id: str, journal: dict) -> dict:
        """The ServerSession.to_dict wire form, rebuilt from the journal."""
        return {
            "session_id": session_id,
            "base": journal["base"],
            "deltas": list(journal["deltas"]),
            "method": journal["method"],
            "params": dict(journal["params"]),
        }

    def _routable(self, index: int) -> bool:
        return not self._dead[index] and not self._terminal[index]

    def _serving(self, index: int, server: QueryServer) -> bool:
        """Whether ``server`` is still shard ``index``'s live server."""
        return self.shards[index] is server and self._routable(index)

    async def _call_shard(self, index: int, call):
        """``await call(server)`` on shard ``index``; ``None`` if it was killed.

        First consumes one armed chaos pipe fault for the shard:
        ``delay_pipe`` sleeps the injected latency, ``drop_message`` raises
        a retryable :class:`~repro.chaos.ChaosError` without calling (the
        shard never saw the message, so reissuing it is safe).  A server
        killed during the delay or the call loses its answer with its
        state, so the caller gets ``None``.
        """
        server = self.shards[index]
        fault = self.chaos.take_pipe_fault(index) if self.chaos else None
        if fault is not None:
            if fault.kind != "delay_pipe":
                raise ChaosError(f"message to shard {index} dropped (injected)")
            await asyncio.sleep(fault.seconds)
            if not self._serving(index, server):
                return None
        response = await call(server)
        return response if self._serving(index, server) else None

    def _pick_live_shard(self, owner: int, exclude=frozenset()) -> int | None:
        """The owner if routable, else the next live shard ring-wise."""
        n = self.options.num_shards
        for offset in range(n):
            index = (owner + offset) % n
            if index in exclude or not self._routable(index):
                continue
            return index
        return None

    async def _chaos_step(self) -> None:
        """Advance the fault plan one op; execute router-level faults."""
        if self.chaos is None:
            return
        for fault in self.chaos.step():
            if fault.kind == "kill_shard":
                index = fault.shard
                if index is None or not (0 <= index < len(self.shards)):
                    continue
                self.kill_shard(index)
                self.chaos.record("kill_shard", shard=index)
            elif fault.kind == "corrupt_cache":
                cache_dir = self.options.cache_dir
                if cache_dir is None:
                    self.chaos.record(
                        "corrupt_cache", detail="no shared cache_dir"
                    )
                    continue
                self.chaos.corrupt_cache_entry(cache_dir)

    def _check_deadline(self, deadline: float | None) -> None:
        """Shed a request whose deadline is already spent at the router."""
        if deadline is not None and deadline <= 0:
            self._deadline_exceeded += 1
            raise DeadlineExceededError(
                f"deadline expired before dispatch ({deadline:.4f}s left)",
                remaining=deadline,
            )

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _require_running(self) -> None:
        if not self._started or self._closing:
            raise RuntimeError("ClusterRouter is not running; call start() first")

    # -- routing --------------------------------------------------------------

    def shard_for(self, fingerprint: str) -> int:
        """Deterministic, stable shard index for a fingerprint.

        The leading hex digits of the content-addressed fingerprint modulo
        the shard count: no state, no RNG -- the same request routes to the
        same shard in every process, forever (for a fixed ``num_shards``).
        """
        return int(fingerprint[:_ROUTE_HEX_DIGITS], 16) % self.options.num_shards

    def _admit(self, shard: int) -> None:
        if self._pending[shard] >= self.options.queue_limit:
            self._shed[shard] += 1
            raise ShardBusyError(shard, self.options.retry_after)
        self._note_pending(shard)

    def _note_pending(self, shard: int) -> None:
        self._pending[shard] += 1
        if self._pending[shard] > self._peak_pending[shard]:
            self._peak_pending[shard] = self._pending[shard]

    def _release(self, shard: int) -> None:
        self._pending[shard] -= 1

    def _stamp_request(self) -> float:
        now = time.perf_counter()
        if self._started_at is None:
            self._started_at = now
        return now

    def _observe(self, arrived: float) -> float:
        finished = time.perf_counter()
        self._finished_at = finished
        latency = finished - arrived
        self._latency_hist.observe(latency)
        return latency

    # -- stateless queries ----------------------------------------------------

    async def submit(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> ClusterResponse:
        """Route one query to its owning shard and await the response.

        Raises :class:`ShardBusyError` (without enqueueing anything) when
        the target shard is at its admission limit, and
        :class:`DeadlineExceededError` when ``deadline`` (a relative budget
        in seconds) is already spent -- both before anything is enqueued.

        When the owning shard is down, the query **fails over** to the next
        live shard: routing only concentrates cache locality, so any shard
        computes the bitwise-identical answer (the response's ``failover``
        flag and the ``repro_cluster_failovers_total`` metric record the
        detour).  A shard killed mid-call loses the answer, and the query
        is retried on the next live shard; with no live shard left, a
        :class:`ShardCrashedError` is raised.
        """
        self._require_running()
        await self._chaos_step()
        self._check_deadline(deadline)
        # Build the request up front: validates method/options and yields
        # the content-addressed fingerprint that picks the shard.
        fingerprint = SolveRequest(problem, method, dict(params or {})).fingerprint
        owner = self.shard_for(fingerprint)
        self._request_counter += 1
        if request_id is None:
            request_id = f"c{self._request_counter}"
        arrived = self._stamp_request()
        tried: set[int] = set()
        while True:
            target = self._pick_live_shard(owner, exclude=tried)
            if target is None:
                raise ShardCrashedError(
                    owner,
                    self.options.retry_after,
                    terminal=all(
                        self._terminal[i]
                        for i in range(self.options.num_shards)
                    ),
                )
            self._admit(target)
            try:
                response = await self._call_shard(
                    target,
                    lambda server: server.submit(
                        problem, method, params,
                        request_id=request_id, deadline=deadline,
                    ),
                )
            finally:
                self._release(target)
            if response is not None:
                break
            # The shard was killed under this call.  Any live shard
            # computes the same answer, so retry on the next one.
            tried.add(target)
        if target != owner:
            self._failovers[owner] += 1
        latency = self._observe(arrived)
        self._routed[target] += 1
        return ClusterResponse(
            request_id=request_id,
            shard=target,
            result=response.result,
            fingerprint=response.outcome.fingerprint,
            cache_hit=response.cache_hit,
            coalesced=response.coalesced,
            latency=latency,
            batch_size=response.batch_size,
            failover=target != owner,
        )

    # -- pinned sessions ------------------------------------------------------

    def session_shard(self, session_id: str) -> int:
        """The shard a session is pinned to (raises for unknown ids)."""
        try:
            return self._session_shard[session_id]
        except KeyError:
            raise ValueError(
                f"unknown cluster session {session_id!r}; open_session() "
                "or resume_session() first"
            ) from None

    def _pin_session(self, shard_index: int) -> str:
        self._session_counter += 1
        session_id = f"s{shard_index}-{self._session_counter}"
        self._session_shard[session_id] = shard_index
        return session_id

    def _session_crash(self, shard_index: int) -> ShardCrashedError:
        return ShardCrashedError(
            shard_index,
            self.options.retry_after,
            terminal=self._terminal[shard_index],
        )

    def _require_session_shard(self, session_id: str) -> int:
        """The session's pinned shard, raising while it is down.

        Session state lives on exactly one shard, so there is no failover:
        while the shard restarts the caller gets a *retryable*
        :class:`ShardCrashedError` (the journal replay restores the session
        before the restart completes), turning terminal only when the
        restart budget is spent.
        """
        shard_index = self.session_shard(session_id)
        if not self._routable(shard_index):
            raise self._session_crash(shard_index)
        return shard_index

    async def open_session(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        params: dict | None = None,
    ) -> str:
        """Open an edit session, pinned to the base problem's owning shard.

        Returns a router-assigned id of the form ``s<shard>-<n>`` -- the
        pin is readable right off the id.
        """
        self._require_running()
        await self._chaos_step()
        fingerprint = SolveRequest(problem, method, dict(params or {})).fingerprint
        shard_index = self.shard_for(fingerprint)
        if not self._routable(shard_index):
            raise self._session_crash(shard_index)
        session_id = self._pin_session(shard_index)
        try:
            await self.shards[shard_index].open_session(
                problem, method, params, session_id=session_id
            )
        except BaseException:
            self._session_shard.pop(session_id, None)
            raise
        # Journal AFTER the shard acknowledged: the journal only ever holds
        # state the shard (and therefore the client) has seen.
        self._session_journal[session_id] = {
            "base": problem.to_dict(),
            "method": method,
            "params": dict(params or {}),
            "deltas": [],
        }
        return session_id

    async def submit_session(
        self,
        session_id: str,
        deltas=None,
        method: str | None = None,
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> ClusterResponse:
        """Apply edits to a pinned session and solve its head on its shard.

        Session traffic is never shed and never re-routed: the session's
        state lives on exactly one shard, so continuity wins over admission
        (the bound protects shards from stateless floods, which is also why
        this path still counts toward the shard's pending depth -- admission
        sees session load, it just cannot reject it).  While the shard is
        down, or when it is killed under this call, a retryable
        :class:`ShardCrashedError` is raised.  The delta journal appends
        only on success, and the shard rolls back the edits of a solve that
        failed, so journal and shard agree and a retried call re-applies
        its edits exactly once.
        """
        self._require_running()
        await self._chaos_step()
        self._check_deadline(deadline)
        shard_index = self._require_session_shard(session_id)
        self._request_counter += 1
        if request_id is None:
            request_id = f"c{self._request_counter}"
        self._note_pending(shard_index)  # visible to admission, not bounded
        arrived = self._stamp_request()
        try:
            response = await self._call_shard(
                shard_index,
                lambda server: server.submit_session(
                    session_id, deltas=deltas, method=method, params=params,
                    request_id=request_id, deadline=deadline,
                ),
            )
        finally:
            self._release(shard_index)
        if response is None:
            raise self._session_crash(shard_index)
        journal = self._session_journal.get(session_id)
        if journal is not None and deltas:
            journal["deltas"].extend(
                delta if isinstance(delta, dict) else delta.to_dict()
                for delta in deltas
            )
        latency = self._observe(arrived)
        self._routed[shard_index] += 1
        return ClusterResponse(
            request_id=request_id,
            shard=shard_index,
            result=response.result,
            fingerprint=response.outcome.fingerprint,
            cache_hit=response.cache_hit,
            coalesced=response.coalesced,
            latency=latency,
            batch_size=response.batch_size,
            session_id=session_id,
        )

    async def export_session(self, session_id: str) -> dict:
        self._require_running()
        shard_index = self._require_session_shard(session_id)
        return self.shards[shard_index].export_session(session_id)

    async def resume_session(self, data: dict) -> str:
        """Resume an exported session, re-pinning by its *base* fingerprint.

        The pin recomputes from the session's base problem and method, so a
        session resumed on a restarted cluster lands on the shard that
        served (and cached) its history.
        """
        self._require_running()
        base = RankingProblem.from_dict(data["base"])
        method = data.get("method", "symgd")
        fingerprint = SolveRequest(
            base, method, dict(data.get("params") or {})
        ).fingerprint
        shard_index = self.shard_for(fingerprint)
        if not self._routable(shard_index):
            raise self._session_crash(shard_index)
        session_id = self._pin_session(shard_index)
        payload = dict(data, session_id=session_id)
        try:
            await self.shards[shard_index].resume_session(
                payload, session_id=session_id
            )
        except BaseException:
            self._session_shard.pop(session_id, None)
            raise
        self._session_journal[session_id] = {
            "base": data["base"],
            "method": method,
            "params": dict(data.get("params") or {}),
            "deltas": list(data.get("deltas") or []),
        }
        return session_id

    async def close_session(self, session_id: str) -> None:
        self._require_running()
        shard_index = self.session_shard(session_id)
        # On a dead shard the state is gone already; dropping the journal
        # entry below stops the replay from resurrecting it.
        if self._routable(shard_index):
            self.shards[shard_index].close_session(session_id)
        self._session_shard.pop(session_id, None)
        self._session_journal.pop(session_id, None)

    async def session_info(self, session_id: str) -> dict:
        self._require_running()
        shard_index = self._require_session_shard(session_id)
        info = self.shards[shard_index].session_info(session_id)
        info["shard"] = shard_index
        return info

    # -- health / stats / metrics ---------------------------------------------

    async def health(self) -> dict:
        """Per-shard liveness payloads keyed by shard index.

        Dead / terminal shards report ``ok: False`` with their restart state
        instead of failing the whole call -- this is the endpoint an
        operator reads *during* an outage.
        """
        self._require_running()
        per_shard = {}
        for index, shard in enumerate(self.shards):
            if self._routable(index):
                stats = shard.stats()
                per_shard[index] = {
                    "requests": stats.requests,
                    "sessions_open": stats.sessions_open,
                    "ok": True,
                    "restarts": self._restarts[index],
                }
            else:
                per_shard[index] = {
                    "ok": False,
                    "dead": True,
                    "terminal": self._terminal[index],
                    "restarts": self._restarts[index],
                }
        return {"shards": self.options.num_shards, "per_shard": per_shard}

    async def stats(self) -> ClusterStats:
        """Cluster-wide :class:`ClusterStats` (totals + per-shard views).

        A dead shard contributes an empty :class:`ServiceStats`.
        """
        self._require_running()
        per_shard = [
            shard.stats() if self._routable(index) else ServiceStats()
            for index, shard in enumerate(self.shards)
        ]
        hist = self._latency_hist
        requests = sum(stats.requests for stats in per_shard)
        wall = (
            (self._finished_at or 0.0) - (self._started_at or 0.0)
            if self._started_at is not None
            else 0.0
        )
        totals = ServiceStats(
            requests=requests,
            coalesced=sum(stats.coalesced for stats in per_shard),
            cache_hits=sum(stats.cache_hits for stats in per_shard),
            batches=sum(stats.batches for stats in per_shard),
            shed=sum(self._shed),
            solver_invocations=sum(
                stats.solver_invocations for stats in per_shard
            ),
            mean_latency=hist.mean,
            p50_latency=hist.quantile(0.50),
            p95_latency=hist.quantile(0.95),
            p99_latency=hist.quantile(0.99),
            max_latency=hist.max,
            throughput=requests / wall if wall > 0 else 0.0,
            wall_time=wall,
            history_window=sum(stats.history_window for stats in per_shard),
            cache=_sum_numeric([stats.cache for stats in per_shard]),
            sessions_open=sum(stats.sessions_open for stats in per_shard),
            sessions_opened=sum(stats.sessions_opened for stats in per_shard),
            sessions_evicted=sum(
                stats.sessions_evicted for stats in per_shard
            ),
            deadline_exceeded=self._deadline_exceeded
            + sum(stats.deadline_exceeded for stats in per_shard),
        )
        return ClusterStats(
            shards=self.options.num_shards,
            totals=totals,
            per_shard=per_shard,
            routed=list(self._routed),
            shed=list(self._shed),
            queue_depth=list(self._pending),
            peak_queue_depth=list(self._peak_pending),
            sessions_pinned=len(self._session_shard),
            restarts=list(self._restarts),
            failovers=list(self._failovers),
            dead=[not self._routable(i) for i in range(self.options.num_shards)],
            deadline_exceeded=totals.deadline_exceeded,
            restart_log=[dict(entry) for entry in self._restart_log],
        )

    def _collect_metrics(self) -> dict:
        shard_labels = ("shard",)
        return {
            "repro_cluster_shards": (
                "gauge", "Shards in the cluster", self.options.num_shards,
            ),
            "repro_cluster_requests_total": (
                "counter", "Requests routed, by shard",
                {(str(i),): count for i, count in enumerate(self._routed)},
                shard_labels,
            ),
            "repro_cluster_shed_total": (
                "counter", "Requests shed by admission control, by shard",
                {(str(i),): count for i, count in enumerate(self._shed)},
                shard_labels,
            ),
            "repro_cluster_queue_depth": (
                "gauge", "Requests currently pending, by shard",
                {(str(i),): depth for i, depth in enumerate(self._pending)},
                shard_labels,
            ),
            "repro_cluster_peak_queue_depth": (
                "gauge", "Highest pending depth observed, by shard",
                {(str(i),): depth for i, depth in enumerate(self._peak_pending)},
                shard_labels,
            ),
            "repro_cluster_retry_after_seconds": (
                "gauge", "Back-off hint handed to shed callers",
                self.options.retry_after,
            ),
            "repro_cluster_sessions_pinned": (
                "gauge", "Sessions currently pinned to a shard",
                len(self._session_shard),
            ),
            "repro_cluster_restarts_total": (
                "counter", "Shard restarts after a crash, by shard",
                {(str(i),): count for i, count in enumerate(self._restarts)},
                shard_labels,
            ),
            "repro_cluster_failovers_total": (
                "counter",
                "Stateless queries served by a fallback shard, by owner shard",
                {(str(i),): count for i, count in enumerate(self._failovers)},
                shard_labels,
            ),
            "repro_cluster_shards_dead": (
                "gauge", "Shards currently dead or terminal",
                sum(
                    1
                    for i in range(self.options.num_shards)
                    if not self._routable(i)
                ),
            ),
            "repro_cluster_deadline_exceeded_total": (
                "counter",
                "Requests shed router-side because their deadline expired",
                self._deadline_exceeded,
            ),
        }

    async def export_metrics_prometheus(self) -> str:
        """One cluster-wide Prometheus exposition.

        The live shards' registry snapshots and the router's own
        (``repro_cluster_*``) are summed series by series
        (:func:`~repro.obs.export.merge_snapshots`) and rendered once.
        """
        self._require_running()
        snapshots = [
            shard.obs.metrics.collect()
            for index, shard in enumerate(self.shards)
            if self._routable(index)
        ]
        snapshots.append(self.metrics.collect())
        return render_prometheus(merge_snapshots(snapshots))
