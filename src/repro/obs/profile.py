"""Workload profile recorder: the query stream as an append-only JSONL file.

Every served request becomes one :class:`ProfileRecord` -- request identity
(fingerprint, method), the session edit kinds that produced it, its
inter-arrival gap, what it cost to (re)compute, and how it was served
(cache hit or coalesced): *what* arrives, *how often*, and *what a miss
costs*.  The load harness replays it (:class:`repro.loadgen.ReplayUser`).

Records write as JSON Lines (one object per line) so a long-running service
appends cheaply and a consumer can tail the file; :meth:`WorkloadProfile.load`
reads a file back, and :func:`replay_profile` reproduces the hit/miss
sequence against a real engine, given a way to rebuild each request.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "ProfileRecord",
    "WorkloadRecorder",
    "WorkloadProfile",
    "replay_profile",
]


@dataclass
class ProfileRecord:
    """One served request, as the workload profiler sees it.

    Attributes:
        timestamp: Wall-clock arrival time (``time.time()``).
        request_id: Service request id (empty for engine-only callers).
        fingerprint: Request fingerprint (problem + method + options).
        method: Registered method name.
        delta_kinds: Edit kinds applied in this request (session path;
            empty for stateless queries).
        gap: Seconds since the previous recorded request (0.0 for the first).
        latency: End-to-end seconds the caller waited.
        cost: Seconds of (re)compute behind the response -- the engine solve
            wall time; near zero for cache hits.
        cache_hit: Served from the result cache.
        coalesced: Attached to an in-flight identical request.

    :meth:`from_dict` ignores keys it does not read, so JSONL lines written
    by older versions still load.
    """

    timestamp: float
    request_id: str
    fingerprint: str
    method: str
    delta_kinds: list = field(default_factory=list)
    gap: float = 0.0
    latency: float = 0.0
    cost: float = 0.0
    cache_hit: bool = False
    coalesced: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileRecord":
        return cls(
            timestamp=float(data["timestamp"]),
            request_id=str(data.get("request_id", "")),
            fingerprint=str(data["fingerprint"]),
            method=str(data["method"]),
            delta_kinds=list(data.get("delta_kinds", [])),
            gap=float(data.get("gap", 0.0)),
            latency=float(data.get("latency", 0.0)),
            cost=float(data.get("cost", 0.0)),
            cache_hit=bool(data.get("cache_hit", False)),
            coalesced=bool(data.get("coalesced", False)),
        )

    @property
    def reused(self) -> bool:
        """Was this request answered without recomputing (hit or coalesced)?"""
        return self.cache_hit or self.coalesced


class WorkloadRecorder:
    """Thread-safe append-only sink for :class:`ProfileRecord` entries.

    Args:
        path: Optional JSONL file; every record is appended (and flushed) as
            one line.  ``None`` keeps records in memory only.
        max_records: In-memory record cap; the file is never truncated, but
            the in-memory tail stays bounded for long runs.
    """

    def __init__(
        self, path: str | Path | None = None, max_records: int = 100_000
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_records = max(int(max_records), 1)
        self._records: list[ProfileRecord] = []
        self._lock = threading.Lock()
        self._last_timestamp: float | None = None
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    def record(
        self,
        request_id: str,
        fingerprint: str,
        method: str,
        latency: float,
        cost: float,
        cache_hit: bool,
        coalesced: bool,
        delta_kinds=(),
        timestamp: float | None = None,
    ) -> ProfileRecord:
        """Append one request observation (inter-arrival gap is derived)."""
        now = time.time() if timestamp is None else float(timestamp)
        with self._lock:
            gap = 0.0 if self._last_timestamp is None else max(now - self._last_timestamp, 0.0)
            self._last_timestamp = now
            record = ProfileRecord(
                timestamp=now,
                request_id=request_id,
                fingerprint=fingerprint,
                method=method,
                delta_kinds=list(delta_kinds),
                gap=gap,
                latency=float(latency),
                cost=float(cost),
                cache_hit=bool(cache_hit),
                coalesced=bool(coalesced),
            )
            self._records.append(record)
            if len(self._records) > self.max_records:
                del self._records[: len(self._records) - self.max_records]
            if self._handle is not None:
                self._handle.write(json.dumps(record.to_dict()) + "\n")
                self._handle.flush()
        return record

    @property
    def records(self) -> list[ProfileRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def profile(self) -> "WorkloadProfile":
        """Snapshot the in-memory tail as a :class:`WorkloadProfile`."""
        return WorkloadProfile(self.records)

    def flush(self) -> None:
        """Push buffered lines to the OS without closing the sink.

        :meth:`QueryServer.drain` calls this so a profile consumer tailing
        the JSONL file sees every drained request even while the server
        keeps running.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WorkloadRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkloadProfile:
    """A loaded (or snapshotted) request stream, with summary and replay."""

    def __init__(self, records: list[ProfileRecord]) -> None:
        self.records = list(records)

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadProfile":
        """Read a JSONL profile written by :class:`WorkloadRecorder`."""
        records = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(ProfileRecord.from_dict(json.loads(line)))
        return cls(records)

    def dump(self, path: str | Path) -> Path:
        """Write the records back out as JSONL (round-trips with load)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict()) + "\n")
        return path

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def hit_sequence(self) -> list[bool]:
        """Per-request reuse flags (cache hit or coalesced), in order."""
        return [record.reused for record in self.records]

    def summary(self) -> dict:
        """Aggregates an admission policy would start from."""
        records = self.records
        if not records:
            return {
                "requests": 0,
                "distinct_fingerprints": 0,
                "reuse_rate": 0.0,
                "mean_gap": 0.0,
                "total_cost": 0.0,
                "by_method": {},
                "delta_kinds": {},
            }
        by_fingerprint: dict[str, dict] = {}
        by_method: dict[str, int] = {}
        delta_kinds: dict[str, int] = {}
        for record in records:
            entry = by_fingerprint.setdefault(
                record.fingerprint, {"requests": 0, "cost": 0.0}
            )
            entry["requests"] += 1
            entry["cost"] = max(entry["cost"], record.cost)
            by_method[record.method] = by_method.get(record.method, 0) + 1
            for kind in record.delta_kinds:
                delta_kinds[kind] = delta_kinds.get(kind, 0) + 1
        gaps = [record.gap for record in records[1:]]
        return {
            "requests": len(records),
            "distinct_fingerprints": len(by_fingerprint),
            "reuse_rate": sum(r.reused for r in records) / len(records),
            "mean_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "total_cost": sum(r.cost for r in records),
            "by_method": by_method,
            "delta_kinds": delta_kinds,
            "hottest": sorted(
                by_fingerprint.items(),
                key=lambda item: (-item[1]["requests"], item[0]),
            )[:5],
        }

    def replay(self, engine, resolve) -> list[bool]:
        """Replay the stream against ``engine``; see :func:`replay_profile`."""
        return replay_profile(self, engine, resolve)


def replay_profile(profile: WorkloadProfile, engine, resolve) -> list[bool]:
    """Re-drive a recorded stream through a (fresh) engine, in order.

    ``resolve`` maps a :class:`ProfileRecord` to the ``SolveRequest`` to
    submit (the profile stores fingerprints, not problem payloads -- the
    caller supplies the request store).  Returns the per-request reuse flags
    the replay produced; on a cold engine whose cache is at least as large
    as the recorded server's, this reproduces
    :meth:`WorkloadProfile.hit_sequence` exactly (a recorded *coalesced*
    request replays as a cache hit: serial replay has no in-flight twin, the
    primary's entry is already cached).
    """
    flags = []
    for record in profile:
        request = resolve(record)
        if request is None:
            raise ValueError(
                f"replay cannot resolve fingerprint {record.fingerprint!r}; "
                "provide a resolver covering every recorded request"
            )
        outcome = engine.solve_batch([request])[0]
        if outcome.fingerprint != record.fingerprint:
            raise ValueError(
                "resolver returned a different request than was recorded "
                f"({outcome.fingerprint} != {record.fingerprint})"
            )
        flags.append(outcome.cache_hit)
    return flags
