"""repro.obs: end-to-end observability for the synthesis stack.

One subsystem, four pieces, threaded through every layer (service intake ->
engine dispatch -> executor task -> solver internals):

* :mod:`repro.obs.trace` -- contextvar-propagated span tracing with a
  zero-allocation disabled path and task packing that survives the process
  executor;
* :mod:`repro.obs.metrics` -- named counters/gauges plus bounded streaming
  histograms (log-spaced buckets; full-run p50/p95/p99 in O(1) memory);
* :mod:`repro.obs.export` -- Prometheus text exposition and structured JSON
  over one registry snapshot, and the sum of several snapshots;
* :mod:`repro.obs.profile` -- the workload profile recorder: the per-request
  JSONL stream (fingerprint, method, delta kinds, inter-arrival gap,
  recompute cost, hit/miss) that the load harness replays.

:class:`Observability` bundles the three runtime pieces so a server and its
engine share one configuration::

    from repro.obs import Observability

    obs = Observability.enabled(profile_path="workload.jsonl")
    server = QueryServer(options=options, obs=obs)
    ...
    print(obs.render_prometheus())
    print(obs.tracer.slowest_traces(1))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import (
    merge_snapshots,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)
from repro.obs.profile import (
    ProfileRecord,
    WorkloadProfile,
    WorkloadRecorder,
    replay_profile,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    adopt_results,
    current_context,
    current_span,
    current_tracer,
    get_global_tracer,
    pack_tasks,
    run_packed_task,
    set_global_tracer,
    span,
)

__all__ = [
    "Observability",
    # trace
    "Tracer",
    "Span",
    "SpanContext",
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
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_latency_buckets",
    # export
    "render_prometheus",
    "render_json",
    "merge_snapshots",
    "parse_prometheus",
    # profile
    "ProfileRecord",
    "WorkloadRecorder",
    "WorkloadProfile",
    "replay_profile",
]


@dataclass
class Observability:
    """Tracing + metrics + workload profiling as one shareable bundle.

    Every field is optional: ``Observability()`` is all-off (the engine and
    service treat it like ``None``), :meth:`enabled` turns everything on.
    The same instance is meant to be shared by a server and its engine so
    spans nest across layers and exports cover both.
    """

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = field(default=None)
    profile: WorkloadRecorder | None = None

    @classmethod
    def enabled(
        cls,
        max_traces: int = 256,
        profile_path: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "Observability":
        """Bundle with tracing, metrics, and (in-memory) profiling active."""
        return cls(
            tracer=Tracer(max_traces=max_traces),
            metrics=metrics if metrics is not None else MetricsRegistry(),
            profile=WorkloadRecorder(path=profile_path),
        )

    @property
    def tracing_enabled(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def render_prometheus(self) -> str:
        """Prometheus exposition of the bundle's registry (empty if none)."""
        if self.metrics is None:
            return "\n"
        return render_prometheus(self.metrics)

    def render_json(self, indent: int | None = None) -> str:
        if self.metrics is None:
            return "{}"
        return render_json(self.metrics, indent=indent)

    def close(self) -> None:
        if self.profile is not None:
            self.profile.close()
