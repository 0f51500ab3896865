"""Sharded serving: router, in-process shards, metric merging.

The cluster layer scales :class:`repro.service.QueryServer` out: a
:class:`ClusterRouter` shards queries by problem fingerprint across N
in-process serving cores (:class:`InprocShard`), pins edit sessions to
their owning shard, sheds load once a shard's admission queue is full
(:class:`ShardBusyError`), shares the content-addressed disk cache tier
across shards, and aggregates per-shard health/stats/Prometheus exports
into one cluster-wide surface.  A supervisor loop detects dead shards
(:class:`ShardDeadError` from a shard call, or a health-probe timeout),
restarts them with exponential backoff, replays their journaled sessions,
and fails stateless traffic over to live shards in the meantime
(:class:`ShardCrashedError` when nothing can serve).  Drive it under load
with :mod:`repro.loadgen`; inject deterministic faults with
:mod:`repro.chaos`.
"""

from repro.cluster.metrics import aggregate_prometheus, aggregate_samples
from repro.cluster.router import (
    ClusterOptions,
    ClusterResponse,
    ClusterRouter,
    ClusterStats,
    ShardBusyError,
    ShardCrashedError,
)
from repro.cluster.shard import InprocShard, ShardDeadError

__all__ = [
    "ClusterOptions",
    "ClusterResponse",
    "ClusterRouter",
    "ClusterStats",
    "ShardBusyError",
    "ShardCrashedError",
    "InprocShard",
    "ShardDeadError",
    "aggregate_prometheus",
    "aggregate_samples",
]
