"""Span tracing: contextvar-propagated trace/span ids across every layer.

A :class:`Tracer` collects :class:`Span` records grouped into traces.  The
current span travels in a :mod:`contextvars` variable, so nested code -- the
service request handler, the engine dispatch, the exact solver's
branch-and-bound -- opens child spans with plain :func:`span` calls and the
parent/child links resolve themselves.

Three properties drive the design:

* **Zero overhead when disabled.**  With no tracer active, :func:`span`
  performs one contextvar read and returns a process-wide singleton no-op
  span -- no allocation, no bookkeeping (`test_disabled_tracer_allocates_
  nothing` pins this down).  Hot solver loops can therefore stay
  instrumented unconditionally.
* **Propagation across executors.**  Process-pool workers do not inherit
  the submitting context (they do not even share memory), so tasks are
  *packed*: the payload carries a picklable
  :class:`SpanContext` plus the submit timestamp, the worker records its
  spans into a private collecting tracer, and the finished span records ride
  back with the result where :func:`adopt_results` re-attaches them to the
  submitting tracer (queue wait vs. run time fall out of the timestamps).
* **Exactly-once attribution.**  A span belongs to exactly one trace; work
  shared between requests (a coalesced solve) is recorded once, under the
  primary request's trace, and the waiters point at it by trace id.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "current_span",
    "current_context",
    "current_tracer",
    "set_global_tracer",
    "get_global_tracer",
    "pack_tasks",
    "run_packed_task",
    "adopt_results",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """Picklable (trace id, span id) pair for crossing executor boundaries."""

    trace_id: str
    span_id: str


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is off.

    A single module-level instance serves every disabled call site, so the
    disabled path allocates nothing and attribute writes vanish.
    """

    __slots__ = ()

    trace_id = ""
    span_id = ""

    def set_attribute(self, key, value) -> "_NoopSpan":
        return self

    def set_attributes(self, **attributes) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        return None

    @property
    def context(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __bool__(self) -> bool:
        # `if span:` gates optional (possibly costly) attribute computation.
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NoopSpan>"


#: The singleton no-op span (identity-checked by the disabled-path tests).
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed operation within a trace.

    Spans are context managers: entering makes the span current (children
    created inside attach to it), exiting records the duration and hands the
    finished record to the owning tracer.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "start_wall",
        "duration",
        "_tracer",
        "_start",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = dict(attributes) if attributes else {}
        self.start_wall = time.time()
        self.duration = 0.0
        self._tracer = tracer
        self._start = time.perf_counter()
        self._token = None

    @property
    def tracer(self) -> "Tracer":
        return self._tracer

    @property
    def context(self) -> SpanContext:
        """Picklable handle for parenting work on the far side of a pool."""
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key, value) -> "Span":
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes) -> "Span":
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __bool__(self) -> bool:
        return True

    def finish(self) -> None:
        """Record the span without having entered it as a context manager.

        For spans that cannot wrap their work syntactically (the engine's
        per-request dispatch spans close when the batched result lands).
        """
        self.__exit__(None, None, None)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.duration = time.perf_counter() - self._start
        self._tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} trace={self.trace_id} id={self.span_id}>"


#: The innermost active span of the calling context.
_CURRENT: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)

#: Process-wide fallback tracer used when no span is active yet.
_GLOBAL_TRACER: "Tracer | None" = None


class Tracer:
    """Collects finished spans, grouped into bounded per-trace buckets.

    Args:
        max_traces: Completed traces retained (LRU by trace creation); older
            traces are dropped so a long-running service stays bounded.
        enabled: A disabled tracer behaves exactly like no tracer at all.
    """

    def __init__(self, max_traces: int = 256, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.max_traces = max(int(max_traces), 1)
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        self._spans_recorded = 0

    # -- span creation --------------------------------------------------------

    def span(self, name: str, parent: SpanContext | None = None, **attributes) -> Span:
        """Open a span; use as a context manager.

        With no explicit ``parent``, the innermost active span of the calling
        context is the parent; with neither, the span roots a new trace.
        """
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        if parent is not None:
            return Span(self, name, parent.trace_id, parent.span_id, attributes)
        current = _CURRENT.get()
        if current is not None:
            return Span(self, name, current.trace_id, current.span_id, attributes)
        return Span(self, name, _new_id(), None, attributes)

    def _record(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            self._adopt_locked([record])

    def _adopt_locked(self, records: list[dict]) -> None:
        for record in records:
            bucket = self._traces.get(record["trace_id"])
            if bucket is None:
                bucket = self._traces[record["trace_id"]] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            bucket.append(record)
            self._spans_recorded += 1

    def adopt(self, records: list[dict]) -> None:
        """Attach finished span records produced elsewhere (a pool worker)."""
        with self._lock:
            self._adopt_locked(list(records))

    # -- introspection / export -----------------------------------------------

    @property
    def spans_recorded(self) -> int:
        return self._spans_recorded

    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def spans(self, trace_id: str) -> list[dict]:
        """Flat finished-span records of one trace (chronological)."""
        with self._lock:
            records = list(self._traces.get(trace_id, ()))
        return sorted(records, key=lambda r: r["start"])

    def drain(self) -> list[dict]:
        """Remove and return every retained span record (collecting tracers)."""
        with self._lock:
            records = [r for bucket in self._traces.values() for r in bucket]
            self._traces.clear()
        return records

    def export_trace(self, trace_id: str) -> dict:
        """One trace as a JSON-able span tree (children nested under parents).

        Spans whose parent is not part of the trace (or traces with several
        roots) all appear under ``roots``.
        """
        records = self.spans(trace_id)
        by_id = {r["span_id"]: dict(r, children=[]) for r in records}
        roots = []
        for record in by_id.values():
            parent = by_id.get(record["parent_id"])
            if parent is None:
                roots.append(record)
            else:
                parent["children"].append(record)
        duration = max((r["duration"] for r in records), default=0.0)
        return {
            "trace_id": trace_id,
            "spans": len(records),
            "duration": duration,
            "roots": roots,
        }

    def slowest_traces(self, n: int = 1) -> list[dict]:
        """The ``n`` slowest traces (by root-most span duration), exported."""
        exported = [self.export_trace(trace_id) for trace_id in self.trace_ids()]
        exported.sort(key=lambda t: t["duration"], reverse=True)
        return exported[: max(int(n), 0)]

    def dump_trace(self, trace_id: str, path: str | Path) -> Path:
        """Write one exported trace to a JSON file (slow-query forensics)."""
        path = Path(path)
        path.write_text(json.dumps(self.export_trace(trace_id), indent=2) + "\n")
        return path


# -- module-level convenience (the instrumented layers call these) ------------


def set_global_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with ``None``) the process-wide fallback tracer.

    Returns the previous tracer so callers can restore it; prefer scoping
    tracers to a server/engine where possible -- the global hook exists for
    CLI entry points and notebooks.
    """
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


def get_global_tracer() -> Tracer | None:
    return _GLOBAL_TRACER


def current_span() -> Span | None:
    """The innermost active span of this context (``None`` otherwise)."""
    return _CURRENT.get()


def current_context() -> SpanContext | None:
    """Picklable context of the innermost active span."""
    current = _CURRENT.get()
    if current is None:
        return None
    return SpanContext(current.trace_id, current.span_id)


def current_tracer() -> Tracer | None:
    """The tracer spans created here would attach to (``None`` = disabled)."""
    current = _CURRENT.get()
    if current is not None:
        tracer = current.tracer
        return tracer if tracer.enabled else None
    if _GLOBAL_TRACER is not None and _GLOBAL_TRACER.enabled:
        return _GLOBAL_TRACER
    return None


def span(name: str, **attributes):
    """Open a child span of the current context (no-op when tracing is off).

    This is the one-liner the instrumented layers use::

        with obs_span("solver.branch_and_bound") as sp:
            ...
            sp.set_attributes(nodes=nodes, lp_iterations=iters)

    The disabled path costs one contextvar read and returns the shared
    :data:`NOOP_SPAN` -- no allocation.
    """
    current = _CURRENT.get()
    if current is not None:
        tracer = current.tracer
        if not tracer.enabled:
            return NOOP_SPAN
        return Span(tracer, name, current.trace_id, current.span_id, attributes)
    if _GLOBAL_TRACER is not None and _GLOBAL_TRACER.enabled:
        return Span(_GLOBAL_TRACER, name, _new_id(), None, attributes)
    return NOOP_SPAN


# -- executor-boundary propagation --------------------------------------------


def pack_tasks(
    fn,
    items,
    name: str,
    contexts=None,
) -> list[tuple]:
    """Wrap executor payloads so their spans survive the pool boundary.

    Each packed payload carries the task function, the original item, a
    :class:`SpanContext` naming the submitting span, and the submit wall
    time.  Feed the packed list to ``executor.map_cells(run_packed_task,
    packed)`` and hand the results to :func:`adopt_results`.

    Args:
        fn: The picklable task function (as for ``map_cells``).
        items: Task payloads.
        name: Span name recorded for each task (e.g. ``"engine.task"``).
        contexts: Optional per-item parent contexts; defaults to the current
            span's context for every item.
    """
    default = current_context()
    now = time.time()
    packed = []
    for index, item in enumerate(items):
        ctx = contexts[index] if contexts is not None else default
        packed.append((fn, item, name, ctx, now))
    return packed


def run_packed_task(payload: tuple):
    """Execute one packed task, collecting its spans for the submitter.

    Module-level and picklable by construction (the process backend ships it
    to workers).  The worker runs ``fn(item)`` inside a fresh collecting
    tracer whose root task span is parented on the packed
    :class:`SpanContext`; nested instrumentation (solver spans) attaches via
    the ordinary contextvar path.  Returns ``(result, finished_span_records)``
    for :func:`adopt_results` to unpack.
    """
    fn, item, name, ctx, submitted = payload
    collector = Tracer(max_traces=64)
    started = time.time()
    root = Span(
        collector,
        name,
        ctx.trace_id if ctx is not None else _new_id(),
        ctx.span_id if ctx is not None else None,
    )
    # Queue wait is measured on wall clocks (perf_counter is not comparable
    # across processes); negative skew clamps to zero.
    root.set_attribute("queue_wait", max(started - submitted, 0.0))
    with root:
        result = fn(item)
    return result, collector.drain()


def adopt_results(tracer: Tracer | None, packed_results) -> list:
    """Unpack ``run_packed_task`` results, re-attaching spans to ``tracer``."""
    results = []
    for result, records in packed_results:
        if tracer is not None and tracer.enabled and records:
            tracer.adopt(records)
        results.append(result)
    return results
