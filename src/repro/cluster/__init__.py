"""Sharded serving: a router over in-process :class:`~repro.service.QueryServer` shards.

The cluster layer scales :class:`repro.service.QueryServer` out: a
:class:`ClusterRouter` holds N servers on its own event loop, shards queries
by problem fingerprint across them, pins edit sessions to their owning
shard, sheds load once a shard's admission queue is full
(:class:`ShardBusyError`), shares the content-addressed disk cache tier
across shards, and merges per-shard health/stats/metrics into one
cluster-wide surface.  The router is the only place a shard dies
(:meth:`ClusterRouter.kill_shard`): it restarts the shard with exponential
backoff, replays its journaled sessions, and fails stateless traffic over
to live shards in the meantime (:class:`ShardCrashedError` when nothing can
serve).  Drive it under load with :mod:`repro.loadgen`; inject
deterministic faults with :mod:`repro.chaos`.
"""

from repro.cluster.router import (
    ClusterOptions,
    ClusterResponse,
    ClusterRouter,
    ClusterStats,
    ShardBusyError,
    ShardCrashedError,
)

__all__ = [
    "ClusterOptions",
    "ClusterResponse",
    "ClusterRouter",
    "ClusterStats",
    "ShardBusyError",
    "ShardCrashedError",
]
