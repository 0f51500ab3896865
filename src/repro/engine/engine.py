"""The solve engine: executor + content-addressed cache behind one facade.

:class:`SolveEngine` is what the query service (and any batch caller) talks
to.  It owns an executor backend and a :class:`~repro.engine.cache.ResultCache`
and exposes two operations:

* ``solve`` / ``solve_batch`` -- answer how-to-rank requests, deduplicating
  identical requests inside a batch, serving repeats from the cache, and
  fanning the remaining distinct solves out over the executor.  Stateless
  queries and session edits alike take this path: an edit chain's requests
  carry composed fingerprints, so a revisited head is a plain cache hit;
* ``multi_seed_symgd`` -- the parallel multi-seed SYM-GD entry point used by
  the scaling benchmark.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.registry import get_method
from repro.api.request import SynthesisRequest
from repro.core import chunking
from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.core.symgd import SymGD, SymGDOptions
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.executor import Executor, ExecutorStats, get_executor
from repro.engine.tasks import solve_request_task
from repro.obs.trace import adopt_results, pack_tasks, run_packed_task

__all__ = ["SolveRequest", "SolveOutcome", "SolveEngine"]

#: The engine-level name for one how-to-rank request.  There is exactly one
#: implementation of the request contract (problem + method + wire options,
#: construction-time validation, cached resolved options and fingerprint):
#: :class:`repro.api.request.SynthesisRequest`.  Aliasing it keeps the client
#: path and the service path fingerprint-compatible by construction.
SolveRequest = SynthesisRequest


@dataclass
class SolveOutcome:
    """A solved request plus whether the result cache answered it."""

    result: SynthesisResult
    fingerprint: str
    cache_hit: bool
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "wall_time": self.wall_time,
        }


class SolveEngine:
    """Parallel, cached execution substrate for how-to-rank requests.

    Args:
        backend: Executor backend name or instance (``serial`` /
            ``process`` / ``auto``).
        max_workers: Worker cap for pooled backends.
        cache: An existing :class:`ResultCache` to share, or ``None`` to
            create one from ``cache_capacity`` / ``cache_dir``.
        cache_capacity: In-memory entry capacity of the created cache.
        cache_dir: Optional on-disk JSON tier for the created cache.
        obs: Optional :class:`~repro.obs.Observability` bundle.  With a
            tracer, every dispatch opens spans (cache decision, executor
            queue-wait/run, solver internals); with a metrics registry, the
            engine's counters surface as export-time collector series.
            ``None`` (the default) costs nothing on any path.
    """

    def __init__(
        self,
        backend: str | Executor = "serial",
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        cache_capacity: int = 512,
        cache_dir: str | Path | None = None,
        obs=None,
    ) -> None:
        self.executor = get_executor(backend, max_workers)
        # Explicit None check: an empty ResultCache is falsy (it has __len__).
        self.cache = (
            cache
            if cache is not None
            else ResultCache(capacity=cache_capacity, disk_path=cache_dir)
        )
        self.solver_invocations = 0
        self.pruned_tuples_total = 0
        # Counter increments take this lock: the query server solves its
        # batches on its event loop's default-pool threads, other callers may
        # share the engine, and an unsynchronized '+=' would silently drop
        # telemetry.
        self._stats_lock = threading.Lock()
        self.obs = None
        if obs is not None:
            self.attach_obs(obs)

    # -- observability --------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` bundle (idempotent).

        Registers the engine's collector on the bundle's metrics registry so
        cache / executor / data-plane counters appear in every export
        without double bookkeeping.  A server sharing its bundle with an
        existing engine calls this instead of rebuilding the engine.
        """
        if obs is self.obs:
            return
        self.obs = obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> dict:
        """Engine counters as export-time metric series (see MetricsRegistry)."""
        cache = self.cache.stats
        executor = self.executor.stats
        dataplane = chunking.counters()
        return {
            "repro_engine_solver_invocations_total": (
                "counter", "Solver invocations", float(self.solver_invocations),
            ),
            "repro_engine_cache_hits_total": (
                "counter", "Result-cache hits", float(cache.hits),
            ),
            "repro_engine_cache_misses_total": (
                "counter", "Result-cache misses", float(cache.misses),
            ),
            "repro_engine_cache_evictions_total": (
                "counter", "Result-cache evictions", float(cache.evictions),
            ),
            "repro_engine_cache_disk_hits_total": (
                "counter", "Result-cache disk-tier hits", float(cache.disk_hits),
            ),
            "repro_engine_cache_promotions_total": (
                "counter",
                "Stats-neutral disk-to-memory promotions",
                float(cache.promotions),
            ),
            "repro_engine_cache_quarantined_total": (
                "counter",
                "Corrupt disk-tier entries quarantined and served as misses",
                float(cache.quarantined),
            ),
            "repro_engine_executor_tasks_total": (
                "counter", "Executor tasks fanned out", float(executor.tasks),
            ),
            "repro_engine_executor_batches_total": (
                "counter", "Executor map batches", float(executor.batches),
            ),
            "repro_engine_pruned_tuples_total": (
                "counter",
                "Tuples removed by the rank-dominance presolve",
                float(self.pruned_tuples_total),
            ),
            "repro_engine_chunked_evals_total": (
                "counter",
                "Evaluations that took a bounded-memory chunked path",
                float(dataplane["chunked_evals_total"]),
            ),
            "repro_engine_peak_chunk_bytes": (
                "gauge",
                "High-water transient block size of the chunked data plane",
                float(dataplane["peak_chunk_bytes"]),
            ),
        }

    def _harvest_dataplane(self, result: SynthesisResult) -> None:
        """Fold one solve's rank-dominance prune count into the engine total.

        Chunked-evaluation counters need no harvesting -- they accumulate in
        :mod:`repro.core.chunking` directly -- but prune counts travel in
        each result's diagnostics (the prune runs inside the solver, possibly
        in an executor worker), so the engine adds them up here.
        """
        pruned = result.diagnostics.get("pruned_tuples", 0)
        if pruned:
            with self._stats_lock:
                self.pruned_tuples_total += int(pruned)

    def _tracer(self):
        obs = self.obs
        if obs is not None and obs.tracer is not None and obs.tracer.enabled:
            return obs.tracer
        return None

    def reset_stats(self) -> None:
        """Zero every counter reported by :meth:`stats`.

        Bench/export consumers call this between measurement legs so the
        schema test can assert monotonic growth from a known origin.  The
        cache and executor stats objects are replaced wholesale; note a
        *shared* cache's counters are reset for every engine sharing it.
        """
        with self._stats_lock:
            self.solver_invocations = 0
            self.pruned_tuples_total = 0
        self.executor.stats = ExecutorStats()
        self.cache.stats = CacheStats()
        chunking.reset_counters()

    # -- request solving ------------------------------------------------------

    def solve(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        params: dict | None = None,
    ) -> SolveOutcome:
        """Solve one request (cache-aware); see :meth:`solve_batch`."""
        return self.solve_batch([SolveRequest(problem, method, dict(params or {}))])[0]

    def solve_batch(
        self, requests: list[SolveRequest], contexts=None
    ) -> list[SolveOutcome]:
        """Solve a micro-batch of requests.

        Identical requests inside the batch collapse onto one solve; requests
        seen before are answered from the cache without invoking any solver;
        the remaining distinct misses run on the executor in parallel.  The
        returned list is aligned with ``requests``.

        ``contexts`` (optional, aligned with ``requests``) carries each
        request's parent :class:`~repro.obs.SpanContext` when tracing is on:
        every request gets an ``engine.dispatch`` span in its own trace
        recording the cache decision (``hit`` / ``miss`` / ``dedup``), and a
        miss's executor task span (queue wait vs. run time, plus the solver
        spans recorded inside the worker) nests under its dispatch span --
        including across the process backend, where span records travel back
        with the result and are re-attached here.
        """
        start = time.perf_counter()
        tracer = self._tracer()
        keys = [request.fingerprint for request in requests]

        cached: dict[str, SynthesisResult] = {}
        pending: dict[str, SolveRequest] = {}
        parent_ctx: dict[str, object] = {}
        for index, (key, request) in enumerate(zip(keys, requests)):
            if key in cached or key in pending:
                continue
            if tracer is not None and contexts is not None:
                parent_ctx[key] = contexts[index]
            result = self.cache.get(key)
            if result is not None:
                cached[key] = result
            else:
                pending[key] = request

        dispatch_spans: dict[str, object] = {}
        if pending:
            # The method adapter travels as an object (not a name).  The
            # instance pickles by value, but its *class* pickles by
            # reference, so unpickling in a process worker imports the
            # adapter's defining module (re-running its registration); a
            # runtime-registered method from an importable module therefore
            # solves correctly even under spawn-based pools.
            payloads = [
                (request.problem, get_method(request.method), request.effective)
                for request in pending.values()
            ]
            with self._stats_lock:
                self.solver_invocations += len(payloads)
            if tracer is not None:
                for key, request in pending.items():
                    dispatch_spans[key] = tracer.span(
                        "engine.dispatch",
                        parent=parent_ctx.get(key),
                        outcome="miss",
                        fingerprint=key,
                        method=request.method,
                        backend=self.executor.name,
                        batch_size=len(requests),
                    )
                packed = pack_tasks(
                    solve_request_task,
                    payloads,
                    "engine.task",
                    contexts=[dispatch_spans[key].context for key in pending],
                )
                solved = adopt_results(
                    tracer, self.executor.map_cells(run_packed_task, packed)
                )
            else:
                solved = self.executor.map_cells(solve_request_task, payloads)
            # Thread each result's recompute cost into the cache's eviction
            # score; the solver's own recorded wall time is the honest
            # number, with the batch's amortized dispatch wall as the
            # fallback for solvers too fast to time.
            shared_cost = (time.perf_counter() - start) / len(payloads)
            for key, result in zip(pending.keys(), solved):
                self._harvest_dataplane(result)
                self.cache.put(key, result, cost=result.solve_time or shared_cost)
                cached[key] = result
                span = dispatch_spans.get(key)
                if span is not None:
                    span.set_attribute("error", float(result.error))
                    span.finish()

        wall = time.perf_counter() - start
        outcomes = []
        emitted: set[str] = set()
        for index, key in enumerate(keys):
            result = cached[key]
            # Duplicates of one fingerprint inside a batch get private
            # copies, matching the cache's no-aliasing guarantee.
            duplicate = key in emitted
            if duplicate:
                result = result.copy()
            emitted.add(key)
            if tracer is not None and (duplicate or key not in pending):
                # Hits and intra-batch duplicates record an (instant)
                # dispatch span of their own so every request's trace shows
                # its cache decision exactly once; the fingerprint attribute
                # links a dedup copy back to the primary solve's span.
                tracer.span(
                    "engine.dispatch",
                    parent=contexts[index] if contexts is not None else None,
                    outcome="dedup" if duplicate else "hit",
                    fingerprint=key,
                    method=requests[index].method,
                    batch_size=len(requests),
                ).finish()
            outcomes.append(
                SolveOutcome(
                    result=result,
                    fingerprint=key,
                    cache_hit=key not in pending,
                    wall_time=wall,
                )
            )
        return outcomes

    # -- parallel primitives --------------------------------------------------

    def multi_seed_symgd(
        self,
        problem: RankingProblem,
        options: SymGDOptions | None = None,
        num_seeds: int = 4,
        seeds=None,
    ) -> SynthesisResult:
        """Parallel multi-seed SYM-GD on this engine's executor.

        The descents fan out one per seed; the merged result is identical
        for every backend (see :meth:`SymGD.solve_multi_seed`).
        """
        return SymGD(options).solve_multi_seed(
            problem, seeds=seeds, num_seeds=num_seeds, executor=self.executor
        )

    # -- lifecycle / telemetry ------------------------------------------------

    def stats(self) -> dict:
        """Executor and cache counters plus the solver-invocation count."""
        return {
            "backend": self.executor.name,
            "max_workers": self.executor.max_workers,
            "solver_invocations": self.solver_invocations,
            "executor": self.executor.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "dataplane": {
                "pruned_tuples_total": self.pruned_tuples_total,
                **chunking.counters(),
            },
        }

    def close(self) -> None:
        self.executor.shutdown()

    def __enter__(self) -> "SolveEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
