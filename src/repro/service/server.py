"""Async how-to-rank query front-end with coalescing and micro-batching.

:class:`QueryServer` accepts concurrent how-to-rank queries (a ranking
problem plus a method name and options), and turns a bursty stream of them
into efficient work for a :class:`~repro.engine.engine.SolveEngine`:

* **Coalescing** -- a query whose fingerprint matches one already in flight
  attaches to the in-flight future instead of enqueueing new work, so a
  thundering herd of identical queries costs one solve.
* **Micro-batching** -- the batch loop hands whatever is queued (up to
  :data:`BATCH_LIMIT` requests) to the engine as one batch, with no waiting
  window: a batch forms from the requests that arrived while the previous
  one was solving.  The engine dedups them, serves repeats from the result
  cache, and fans the distinct misses out over the executor backend.
* **Telemetry** -- every request is recorded (latency, cache hit, coalesced,
  batch size) and aggregated by :meth:`QueryServer.stats`; full-run latency
  percentiles come from a bounded streaming histogram, counters flow into a
  :class:`~repro.obs.MetricsRegistry` (Prometheus/JSON exports), and with an
  :class:`~repro.obs.Observability` bundle attached every request carries a
  trace from service intake through engine dispatch down to the solver,
  plus an append-only workload profile (JSONL) for replay.
* **Stateful sessions** -- a session pins a base problem server-side,
  clients ship only :class:`ProblemDelta` edits
  (:meth:`QueryServer.submit_session`), and the edited head takes the same
  path as a query: one in-flight table, one batch queue, one engine batch
  (an exact cache hit on its composed fingerprint, else a cold solve).
  Sessions LRU-evict beyond ``max_sessions`` and export/resume via their
  serialized delta chain.

The server is an in-process asyncio component rather than a network daemon:
the network layer of a production deployment (HTTP, gRPC, ...) would sit in
front of :meth:`QueryServer.submit`, which is exactly the shape of the
``python -m repro.service`` CLI and ``examples/serve_queries.py``.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

from repro.core.delta import deltas_from_dicts
from repro.core.problem import RankingProblem
from repro.engine.engine import SolveEngine, SolveOutcome, SolveRequest
from repro.obs import Observability
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NOOP_SPAN
from repro.service.errors import DeadlineExceededError

__all__ = [
    "QueryServerOptions",
    "QueryResponse",
    "RequestRecord",
    "ServerSession",
    "ServiceStats",
    "QueryServer",
]

_SHUTDOWN = object()

#: Most requests the batch loop hands to the engine in one batch.
BATCH_LIMIT = 16


@dataclass(frozen=True)
class QueryServerOptions:
    """Settings of the front-end.

    Attributes:
        backend: Executor backend for the owned engine (``serial`` /
            ``process`` / ``auto``); ignored when an engine is passed in.
        max_workers: Worker cap for the owned engine's executor.
        cache_capacity: In-memory entry capacity of the owned engine's
            result cache.
        cache_dir: Optional on-disk cache directory of the owned engine.
        history_limit: Per-request telemetry records kept in memory; older
            records are dropped (aggregate counters keep counting), so a
            long-running server does not grow without bound.
        allowed_methods: Registered method names this server is willing to
            serve; ``None`` serves every registered method.  A deployment
            restricts this to keep expensive methods (say ``tree``) off an
            interactive endpoint.
        max_sessions: Stateful edit sessions kept alive concurrently; the
            least recently used session is evicted when the cap is hit (its
            exported delta chain can still be resumed later).
        hot_set_path: JSON file for hot-set persistence: the resident cache
            set (plus eviction scores) is saved on :meth:`drain`/:meth:`stop`
            and promoted back from the disk tier on :meth:`start`, so a
            restart recovers its hit rate without cold traffic.  Requires
            ``cache_dir`` to be useful (promotion reads the disk tier).
    """

    backend: str = "serial"
    max_workers: int | None = None
    cache_capacity: int = 512
    cache_dir: str | None = None
    history_limit: int = 10000
    allowed_methods: tuple[str, ...] | None = None
    max_sessions: int = 32
    hot_set_path: str | None = None


@dataclass
class RequestRecord:
    """Telemetry for one served request."""

    request_id: str
    fingerprint: str
    method: str
    error: int
    latency: float
    cache_hit: bool
    coalesced: bool
    batch_size: int


@dataclass
class QueryResponse:
    """What a caller gets back from :meth:`QueryServer.submit`."""

    request_id: str
    outcome: SolveOutcome
    latency: float
    coalesced: bool
    batch_size: int

    @property
    def result(self):
        return self.outcome.result

    @property
    def cache_hit(self) -> bool:
        return self.outcome.cache_hit

    def to_dict(self) -> dict:
        """Wire-format representation (plain JSON types throughout)."""
        return {
            "request_id": self.request_id,
            "fingerprint": self.outcome.fingerprint,
            "cache_hit": self.outcome.cache_hit,
            "coalesced": self.coalesced,
            "latency": self.latency,
            "batch_size": self.batch_size,
            "result": self.outcome.result.to_dict(),
        }


@dataclass
class ServerSession:
    """Server-side state of one interactive edit session.

    The session pins a base problem and accumulates the wire form of every
    applied delta, so it can be exported (:meth:`to_dict`) and resumed on
    another server with identical composed fingerprints -- the resumed
    session dedupes against whatever the original already solved.
    """

    session_id: str
    base: RankingProblem
    problem: RankingProblem
    method: str
    params: dict
    deltas: list = field(default_factory=list)
    edits: int = 0
    solves: int = 0

    def to_dict(self) -> dict:
        """Portable wire form: base problem + delta chain + defaults."""
        return {
            "session_id": self.session_id,
            "base": self.base.to_dict(),
            "deltas": list(self.deltas),
            "method": self.method,
            "params": dict(self.params),
        }

    def info(self) -> dict:
        """Lightweight status payload (no problem data)."""
        return {
            "session_id": self.session_id,
            "method": self.method,
            "edits": self.edits,
            "solves": self.solves,
            "num_tuples": self.problem.num_tuples,
            "fingerprint": self.problem.fingerprint(),
        }


@dataclass
class ServiceStats:
    """Aggregate view over every request served so far.

    Counters and the latency distribution (mean/p50/p95/p99/max) cover the
    *whole lifetime* of the server: percentiles come from a bounded
    streaming histogram, not from the retained per-request records.
    ``history_window`` reports how many recent :class:`RequestRecord`
    entries :attr:`QueryServer.records` still holds -- only that
    drill-down view is windowed.

    ``shed`` is always zero for a standalone server: admission control
    lives in the cluster front-end (:class:`repro.cluster.ClusterRouter`),
    whose aggregated stats reuse this class and fill the field in.
    """

    requests: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    batches: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    solver_invocations: int = 0
    mean_latency: float = 0.0
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    p99_latency: float = 0.0
    max_latency: float = 0.0
    throughput: float = 0.0
    wall_time: float = 0.0
    history_window: int = 0
    cache: dict = field(default_factory=dict)
    sessions_open: int = 0
    sessions_opened: int = 0
    sessions_evicted: int = 0

    def describe(self) -> str:
        return (
            f"{self.requests} requests in {self.wall_time:.2f}s "
            f"({self.throughput:.1f} req/s) | "
            f"coalesced={self.coalesced} cache_hits={self.cache_hits} "
            f"shed={self.shed} "
            f"solves={self.solver_invocations} batches={self.batches} | "
            f"latency mean={self.mean_latency * 1e3:.1f}ms "
            f"p50={self.p50_latency * 1e3:.1f}ms "
            f"p95={self.p95_latency * 1e3:.1f}ms "
            f"p99={self.p99_latency * 1e3:.1f}ms (full run; "
            f"record window={self.history_window})"
        )


class QueryServer:
    """Coalescing, micro-batching asyncio front-end over a solve engine.

    Use as an async context manager::

        async with QueryServer(options=QueryServerOptions(backend="process")) as server:
            response = await server.submit(problem, method="symgd")

    Args:
        engine: A shared :class:`SolveEngine`; when ``None`` the server owns
            one built from ``options`` (and closes it on :meth:`stop`).
        options: Front-end tuning knobs.
        obs: Optional :class:`~repro.obs.Observability` bundle shared with
            the engine (tracing + metrics + workload profiling).  When
            omitted, the server adopts the engine's bundle if it has one,
            or builds a metrics-only bundle so :meth:`export_metrics_json`
            / :meth:`export_metrics_prometheus` always work; tracing and
            profiling stay off unless explicitly enabled.
    """

    def __init__(
        self,
        engine: SolveEngine | None = None,
        options: QueryServerOptions | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.options = options or QueryServerOptions()
        self._allowed_methods: frozenset[str] | None = None
        if self.options.allowed_methods is not None:
            # Validate eagerly: a typo in a deployment's method allowlist
            # should fail at server construction, not on the first query.
            from repro.api.registry import get_method

            for name in self.options.allowed_methods:
                get_method(name)
            self._allowed_methods = frozenset(self.options.allowed_methods)
        self._owns_engine = engine is None
        self.engine = engine or SolveEngine(
            backend=self.options.backend,
            max_workers=self.options.max_workers,
            cache_capacity=self.options.cache_capacity,
            cache_dir=self.options.cache_dir,
        )
        self._owns_obs = False
        if obs is not None:
            self.obs = obs
        elif self.engine.obs is not None:
            # A pre-instrumented engine brings its bundle along, so server
            # spans land in the same tracer and exports cover both layers.
            self.obs = self.engine.obs
        else:
            self.obs = Observability(metrics=MetricsRegistry())
            self._owns_obs = True
        self.engine.attach_obs(self.obs)
        if self.obs.metrics is not None:
            self.obs.metrics.register_collector(self._collect_metrics)
            self._latency_hist = self.obs.metrics.histogram(
                "repro_service_request_latency_seconds",
                "End-to-end request latency (seconds, full run)",
            )
        else:
            self._latency_hist = Histogram()
        self._queue: asyncio.Queue | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._inflight_ctx: dict[str, object] = {}
        self._sessions: OrderedDict[str, ServerSession] = OrderedDict()
        self._session_counter = 0
        self._sessions_opened = 0
        self._sessions_evicted = 0
        self._hot_set_loaded = 0
        self._records: deque[RequestRecord] = deque(
            maxlen=max(self.options.history_limit, 1)
        )
        self._batches = 0
        self._total_requests = 0
        self._total_coalesced = 0
        self._total_cache_hits = 0
        self._deadline_exceeded = 0
        self._latency_sum = 0.0
        self._loop_task: asyncio.Task | None = None
        self._closing = False
        self._started_at: float | None = None
        self._finished_at: float | None = None
        self._request_counter = 0

    # -- observability plumbing -----------------------------------------------

    def _tracer(self):
        obs = self.obs
        if obs.tracer is not None and obs.tracer.enabled:
            return obs.tracer
        return None

    def _request_span(self, name: str, **attributes):
        """A request-root span, or the shared no-op span when tracing is off."""
        tracer = self._tracer()
        if tracer is None:
            return NOOP_SPAN
        return tracer.span(name, **attributes)

    def _collect_metrics(self) -> dict:
        """Service counters for the shared registry (sampled at export)."""
        return {
            "repro_service_requests_total": (
                "counter", "Requests served", self._total_requests,
            ),
            "repro_service_coalesced_total": (
                "counter",
                "Requests coalesced onto an in-flight identical solve",
                self._total_coalesced,
            ),
            "repro_service_cache_hits_total": (
                "counter", "Requests served from the result cache",
                self._total_cache_hits,
            ),
            "repro_service_batches_total": (
                "counter", "Engine micro-batches dispatched", self._batches,
            ),
            "repro_service_sessions_open": (
                "gauge", "Stateful edit sessions currently open",
                len(self._sessions),
            ),
            "repro_service_sessions_opened_total": (
                "counter", "Sessions opened", self._sessions_opened,
            ),
            "repro_service_sessions_evicted_total": (
                "counter", "Sessions LRU-evicted", self._sessions_evicted,
            ),
            "repro_service_hot_set_loaded": (
                "gauge",
                "Hot-set entries resident after the startup reload",
                self._hot_set_loaded,
            ),
            "repro_service_deadline_exceeded_total": (
                "counter",
                "Requests shed because their deadline expired before solving",
                self._deadline_exceeded,
            ),
        }

    def export_metrics_prometheus(self) -> str:
        """Every layer's metrics in Prometheus text exposition format."""
        return self.obs.render_prometheus()

    def export_metrics_json(self, indent: int | None = None) -> str:
        """Every layer's metrics as structured JSON (same registry snapshot)."""
        return self.obs.render_json(indent=indent)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "QueryServer":
        """Start the batching loop (idempotent); reload the saved hot set."""
        if self._loop_task is None:
            self._queue = asyncio.Queue()
            self._closing = False
            self._loop_task = asyncio.get_running_loop().create_task(
                self._batch_loop()
            )
            if self.options.hot_set_path:
                # Promote the previous run's scored hot set from the disk
                # tier back into memory (stats-neutral), so the first
                # requests after a restart hit instead of resolving.
                self._hot_set_loaded = self.engine.cache.load_hot_set(
                    self.options.hot_set_path
                )
        return self

    async def drain(self) -> None:
        """Wait until every admitted request has been answered, then flush.

        Unlike :meth:`stop`, the server keeps serving afterwards: the queue
        is emptied, every in-flight future (queries and session edits)
        resolves, and the workload profile sink -- if one is attached -- is
        flushed to disk so a consumer tailing the JSONL sees the drained
        requests.  The cluster front-end calls this per shard on graceful
        shutdown; the CLI calls it before emitting post-run reports.
        """
        while True:
            waiters = list(self._inflight.values())
            queue_busy = self._queue is not None and not self._queue.empty()
            if not waiters and not queue_busy:
                break
            if waiters:
                await asyncio.gather(*waiters, return_exceptions=True)
            else:
                # Items are queued but their batch has not been picked up
                # yet; yield to the batching loop and re-check.
                await asyncio.sleep(0)
        if self.obs.profile is not None:
            self.obs.profile.flush()
        if self.options.hot_set_path:
            self.engine.cache.save_hot_set(self.options.hot_set_path)

    def _fail_inflight(self, error: BaseException) -> None:
        """Resolve every pending waiter with ``error`` (never silently drop)."""
        while self._inflight:
            key, future = self._inflight.popitem()
            self._inflight_ctx.pop(key, None)
            if not future.done():
                future.set_exception(error)

    async def stop(self) -> None:
        """Drain the queue, stop the loop, release the owned engine.

        New :meth:`submit` calls are rejected from this point on; queries
        already submitted (even those enqueued while this call races them)
        are still solved before the loop exits.  The workload profile is
        flushed (and closed, when the server built its own bundle) so a
        ``--profile-out`` JSONL is complete once the server is down.
        """
        if self._loop_task is not None:
            assert self._queue is not None
            # Flip the flag before the sentinel: submit() checks it on the
            # same event loop, so nothing can be enqueued behind the sentinel
            # except requests that were already racing -- and those are
            # drained by the batch loop before it exits.
            self._closing = True
            self._queue.put_nowait(_SHUTDOWN)
            try:
                await self._loop_task
            except asyncio.CancelledError:
                # The loop was cancelled out from under us (its waiters were
                # already failed by the loop's own except clause).
                pass
            self._loop_task = None
            self._queue = None
        # Nothing should be pending at this point; if the loop died early,
        # waiters get a loud error instead of hanging forever.
        self._fail_inflight(RuntimeError("QueryServer stopped"))
        if self.obs.profile is not None:
            self.obs.profile.flush()
        if self.options.hot_set_path:
            self.engine.cache.save_hot_set(self.options.hot_set_path)
        if self._owns_obs:
            self.obs.close()
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the front door -------------------------------------------------------

    def _check_deadline(self, deadline: float | None) -> None:
        """Shed a request whose deadline budget is already spent at intake."""
        if deadline is not None and deadline <= 0:
            self._deadline_exceeded += 1
            raise DeadlineExceededError(
                f"deadline expired before solve started ({deadline:.4f}s left)",
                remaining=deadline,
            )

    async def submit(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> QueryResponse:
        """Submit one how-to-rank query and await its response.

        Identical requests already in flight -- queries or session edits --
        are coalesced: this call attaches to the pending solve instead of
        enqueueing a duplicate.  With tracing on, each request roots a
        ``service.request`` span; the engine's dispatch/task/solver spans
        nest under the *primary* request's trace (exactly once per solve),
        and a coalesced waiter's span points at it via its ``primary_trace``
        attribute.

        ``deadline`` is a relative budget in seconds.  Enforcement is
        pre-solve only (intake here, batch pickup in ``_run_batch``): an
        expired request fails with :class:`DeadlineExceededError` before any
        solver work starts, and a request that *does* start always runs to
        completion -- mid-solve aborts would make answers depend on wall
        clock, breaking the bitwise-determinism invariant.
        """
        if self._loop_task is None or self._closing:
            raise RuntimeError("QueryServer is not running; call start() first")
        self._check_method_allowed(method)
        self._check_deadline(deadline)
        request = SolveRequest(problem, method, dict(params or {}))
        return await self._serve(request, request_id, deadline)

    async def _serve(
        self,
        request: SolveRequest,
        request_id: str | None,
        deadline: float | None,
        delta_kinds=(),
        **span_attributes,
    ) -> QueryResponse:
        """The one request path: coalesce onto an in-flight solve or queue one.

        Queries and session edits share the in-flight table and the batch
        queue, so equal requests coalesce whichever path they came from and
        every solve rides an engine batch.  ``deadline`` (relative seconds,
        or ``None``) is re-checked when the batch loop picks the request up.
        """
        assert self._queue is not None
        self._request_counter += 1
        if request_id is None:
            request_id = f"q{self._request_counter}"
        key = request.fingerprint
        arrived = time.perf_counter()
        if self._started_at is None:
            self._started_at = arrived

        with self._request_span(
            "service.request",
            request_id=request_id,
            method=request.method,
            fingerprint=key,
            **span_attributes,
        ) as span:
            future = self._inflight.get(key)
            coalesced = future is not None
            if future is None:
                loop = asyncio.get_running_loop()
                future = loop.create_future()
                self._inflight[key] = future
                ctx = span.context
                self._inflight_ctx[key] = ctx
                deadline_ts = (
                    loop.time() + deadline if deadline is not None else None
                )
                self._queue.put_nowait((key, request, ctx, deadline_ts))
            elif span:
                primary = self._inflight_ctx.get(key)
                span.set_attributes(
                    coalesced=True,
                    primary_trace=primary.trace_id if primary is not None else "",
                )

            outcome, batch_size = await future
            response = self._finalize_response(
                request_id,
                key,
                request.method,
                outcome,
                arrived,
                coalesced,
                batch_size,
                delta_kinds,
            )
            if span:
                span.set_attributes(
                    cache_hit=response.cache_hit,
                    batch_size=batch_size,
                    latency=response.latency,
                )
            return response

    def _finalize_response(
        self,
        request_id: str,
        key: str,
        method: str,
        outcome: SolveOutcome,
        arrived: float,
        coalesced: bool,
        batch_size: int,
        delta_kinds,
    ) -> QueryResponse:
        """Telemetry + response assembly for one answered request."""
        if coalesced:
            # Every waiter on a coalesced solve gets a private result copy,
            # matching the cache's and the engine's no-aliasing guarantee.
            outcome = replace(outcome, result=outcome.result.copy())
        finished = time.perf_counter()
        self._finished_at = finished
        latency = finished - arrived
        response = QueryResponse(
            request_id=request_id,
            outcome=outcome,
            latency=latency,
            coalesced=coalesced,
            batch_size=batch_size,
        )
        self._total_requests += 1
        self._total_coalesced += int(coalesced)
        self._total_cache_hits += int(outcome.cache_hit)
        self._latency_sum += latency
        self._latency_hist.observe(latency)
        self._records.append(
            RequestRecord(
                request_id=request_id,
                fingerprint=key,
                method=method,
                error=int(outcome.result.error),
                latency=latency,
                cache_hit=outcome.cache_hit,
                coalesced=coalesced,
                batch_size=batch_size,
            )
        )
        if self.obs.profile is not None:
            reused = outcome.cache_hit or coalesced
            self.obs.profile.record(
                request_id=request_id,
                fingerprint=key,
                method=method,
                latency=latency,
                # Recompute cost: the engine-side wall time behind a real
                # solve; reuse (hit/coalesce) costs (near) nothing.
                cost=0.0 if reused else outcome.wall_time,
                cache_hit=outcome.cache_hit,
                coalesced=coalesced,
                delta_kinds=delta_kinds,
            )
        return response

    # -- stateful sessions ----------------------------------------------------

    def _check_method_allowed(self, method: str) -> None:
        if self._allowed_methods is not None and method not in self._allowed_methods:
            raise ValueError(
                f"method {method!r} is not served by this endpoint; "
                f"allowed methods: {sorted(self._allowed_methods)}"
            )

    def _session(self, session_id: str) -> ServerSession:
        try:
            session = self._sessions[session_id]
        except KeyError:
            raise ValueError(
                f"unknown (or evicted) session {session_id!r}; open_session() "
                "or resume_session() first"
            ) from None
        self._sessions.move_to_end(session_id)
        return session

    def _register_session(self, session: ServerSession) -> str:
        self._sessions[session.session_id] = session
        self._sessions.move_to_end(session.session_id)
        self._sessions_opened += 1
        while len(self._sessions) > max(self.options.max_sessions, 1):
            self._sessions.popitem(last=False)
            self._sessions_evicted += 1
        return session.session_id

    async def open_session(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        params: dict | None = None,
        session_id: str | None = None,
    ) -> str:
        """Open a stateful edit session; returns its id.

        Sessions hold the base problem and every applied delta server-side,
        so subsequent :meth:`submit_session` calls ship only edits.  The
        least recently used session is evicted beyond
        ``options.max_sessions``.
        """
        if self._loop_task is None or self._closing:
            raise RuntimeError("QueryServer is not running; call start() first")
        self._check_method_allowed(method)
        params = dict(params or {})
        # Fail fast on bad method/options, before any state is created.
        SolveRequest(problem, method, dict(params))
        self._session_counter += 1
        session_id = session_id or f"sess{self._session_counter}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        return self._register_session(
            ServerSession(
                session_id=session_id,
                base=problem,
                problem=problem,
                method=method,
                params=params,
            )
        )

    async def submit_session(
        self,
        session_id: str,
        deltas=None,
        method: str | None = None,
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> QueryResponse:
        """Apply edits to a session and solve its head.

        ``deltas`` is a list of :class:`~repro.core.delta.ProblemDelta`
        objects or their wire dicts, applied in order to the session's
        current head.  Delta application is atomic on the event loop, so
        concurrent edits to one session serialize in arrival order.  The
        edited head then takes the query path (:meth:`submit`): it
        coalesces onto an in-flight equal request, or joins the batch queue
        and is answered by the engine -- an exact cache hit on the head's
        composed fingerprint, else a cold solve.

        ``deadline`` is checked at intake only.  Once the edits are
        committed the solve is never shed from the queue: a client retrying
        a shed call would apply its deltas twice.

        Failure semantics: retry with the same deltas.  Invalid input
        (malformed delta, unknown method or option, an expired deadline)
        fails before anything is committed.  If the solve itself fails, the
        edits are rolled back -- as long as the session's head is still the
        one this call produced -- before the error propagates.
        :meth:`session_info` reports the head's fingerprint and edit count
        for reconciliation.
        """
        if self._loop_task is None or self._closing:
            raise RuntimeError("QueryServer is not running; call start() first")
        self._check_deadline(deadline)
        session = self._session(session_id)
        solve_method = method or session.method
        self._check_method_allowed(solve_method)
        parsed = deltas_from_dicts(list(deltas or []))
        previous = session.problem
        head = previous.apply_delta(parsed) if parsed else previous
        # Build (and thereby validate) the request BEFORE committing the
        # edits: a bad method/options pair must fail without advancing the
        # session, or a client retrying the "failed" call would double-apply
        # its deltas.
        request = SolveRequest(
            head,
            solve_method,
            dict(params if params is not None else session.params),
        )
        committed = len(session.deltas)
        if parsed:
            session.problem = head
            session.deltas.extend(delta.to_dict() for delta in parsed)
            session.edits += len(parsed)
        session.solves += 1
        try:
            # No pickup deadline: the edits above are already committed.
            return await self._serve(
                request,
                request_id,
                None,
                tuple(delta.kind for delta in parsed),
                session_id=session_id,
                edits=len(parsed),
            )
        except BaseException:
            if parsed and session.problem is head:
                session.problem = previous
                del session.deltas[committed:]
                session.edits -= len(parsed)
            raise

    def close_session(self, session_id: str) -> None:
        """Drop a session (its exported form can still be resumed later)."""
        if self._sessions.pop(session_id, None) is None:
            raise ValueError(f"unknown session {session_id!r}")

    def export_session(self, session_id: str) -> dict:
        """Portable wire form of a session (base + delta chain)."""
        return self._session(session_id).to_dict()

    async def resume_session(self, data: dict, session_id: str | None = None) -> str:
        """Rebuild a session from :meth:`export_session` output.

        The delta chain replays through ``apply_delta``, so the resumed
        head's composed fingerprint matches the exported session's -- its
        first solve is answered from the cache if this server (or a shared
        cache tier) solved it before.  Keys it does not read are ignored, so
        older exports still resume.
        """
        if self._loop_task is None or self._closing:
            raise RuntimeError("QueryServer is not running; call start() first")
        method = data.get("method", "symgd")
        self._check_method_allowed(method)
        base = RankingProblem.from_dict(data["base"])
        params = dict(data.get("params") or {})
        SolveRequest(base, method, dict(params))
        deltas = list(data.get("deltas") or [])
        problem = base.apply_delta(deltas_from_dicts(deltas))
        self._session_counter += 1
        session_id = session_id or data.get("session_id") or f"sess{self._session_counter}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        return self._register_session(
            ServerSession(
                session_id=session_id,
                base=base,
                problem=problem,
                method=method,
                params=params,
                deltas=deltas,
                edits=len(deltas),
            )
        )

    def session_info(self, session_id: str) -> dict:
        """Status payload of one open session."""
        return self._session(session_id).info()

    @property
    def open_sessions(self) -> list[str]:
        """Ids of every open session, least recently used first."""
        return list(self._sessions)

    # -- batching loop --------------------------------------------------------

    async def _batch_loop(self) -> None:
        try:
            await self._batch_loop_inner()
        except BaseException as error:
            # The loop died abnormally (cancellation included): coalesced
            # waiters parked on in-flight futures would otherwise hang
            # forever.  Fail them loudly instead of dropping them.
            self._fail_inflight(
                RuntimeError(f"QueryServer batch loop terminated: {error!r}")
            )
            raise

    async def _batch_loop_inner(self) -> None:
        assert self._queue is not None
        while True:
            # No window: a batch is whatever queued while the previous one
            # was solving.  stop() enqueues the sentinel behind every request
            # it raced, so those are still answered before the loop exits.
            batch = [await self._queue.get()]
            while len(batch) < BATCH_LIMIT and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            live = [item for item in batch if item is not _SHUTDOWN]
            if live:
                await self._run_batch(live)
            if len(live) < len(batch):
                return

    async def _run_batch(self, batch: list) -> None:
        loop = asyncio.get_running_loop()
        # Deadline check at batch pickup: a query whose budget expired while
        # it sat in the queue is shed here, before any solver work -- the
        # last pre-solve enforcement point (running solves are never
        # aborted; see submit()).  Session edits carry no pickup deadline.
        now = loop.time()
        live = []
        for key, request, ctx, deadline_ts in batch:
            if deadline_ts is not None and now >= deadline_ts:
                self._deadline_exceeded += 1
                future = self._inflight.pop(key, None)
                self._inflight_ctx.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued",
                            remaining=deadline_ts - now,
                        )
                    )
                continue
            live.append((key, request, ctx))
        if not live:
            return
        batch = live
        keys = [key for key, _, _ in batch]
        requests = [request for _, request, _ in batch]
        contexts = [ctx for _, _, ctx in batch]
        self._batches += 1
        try:
            outcomes = await loop.run_in_executor(
                None, lambda: self.engine.solve_batch(requests, contexts)
            )
        except Exception as error:
            # A failed dispatch (say an injected solver fault) fails every
            # request of the batch; clients retry.
            for key in keys:
                future = self._inflight.pop(key, None)
                self._inflight_ctx.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(error)
            return
        for key, outcome in zip(keys, outcomes):
            future = self._inflight.pop(key, None)
            self._inflight_ctx.pop(key, None)
            if future is not None and not future.done():
                future.set_result((outcome, len(batch)))

    # -- telemetry ------------------------------------------------------------

    @property
    def records(self) -> list[RequestRecord]:
        """Per-request telemetry (the most recent ``history_limit`` requests)."""
        return list(self._records)

    def stats(self) -> ServiceStats:
        """Aggregate latency / hit-rate / throughput.

        Counters *and* latency percentiles cover the whole lifetime of the
        server: the percentiles come from a bounded streaming histogram
        (exact to one log-spaced bucket), not from the windowed per-request
        records.  ``history_window`` reports how many recent records
        :attr:`records` retains for drill-down.
        """
        if not self._total_requests:
            return ServiceStats(
                deadline_exceeded=self._deadline_exceeded,
                history_window=len(self._records),
                cache=self.engine.cache.stats.as_dict(),
                sessions_open=len(self._sessions),
                sessions_opened=self._sessions_opened,
                sessions_evicted=self._sessions_evicted,
            )
        hist = self._latency_hist
        wall = (
            (self._finished_at or 0.0) - (self._started_at or 0.0)
            if self._started_at is not None
            else 0.0
        )
        return ServiceStats(
            requests=self._total_requests,
            coalesced=self._total_coalesced,
            cache_hits=self._total_cache_hits,
            batches=self._batches,
            deadline_exceeded=self._deadline_exceeded,
            solver_invocations=self.engine.solver_invocations,
            mean_latency=self._latency_sum / self._total_requests,
            p50_latency=hist.quantile(0.50),
            p95_latency=hist.quantile(0.95),
            p99_latency=hist.quantile(0.99),
            max_latency=hist.max,
            throughput=self._total_requests / wall if wall > 0 else 0.0,
            wall_time=wall,
            history_window=len(self._records),
            cache=self.engine.cache.stats.as_dict(),
            sessions_open=len(self._sessions),
            sessions_opened=self._sessions_opened,
            sessions_evicted=self._sessions_evicted,
        )
