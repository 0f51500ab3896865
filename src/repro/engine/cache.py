"""Content-addressed result cache: a scored in-memory tier plus on-disk JSON.

Keys are the hex digests produced by :mod:`repro.engine.fingerprint`; values
are :class:`~repro.core.result.SynthesisResult` objects.  The in-memory tier
is guarded by a lock (the query server runs batch and session solves on its
event loop's default-pool threads, which touch it concurrently) and evicts by
one rule: every resident entry scores ``decayed access count x recompute
cost`` and the lowest score goes.  A brand-new entry starts with one access
worth of frequency, so a one-off scan key scores below a repeatedly hit,
expensive key: inserting it and evicting the global minimum *is* the
admission filter that keeps scan traffic from displacing the hot set.  The
score never touches a result, so eviction decides which requests hit, never
what any request answers.

The optional disk layer writes one ``<digest>.json`` file per entry, so
caches survive process restarts and can be shared between a CLI run and a
service instance.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.result import SynthesisResult

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, exposed in service telemetry.

    ``promotions`` counts stats-neutral disk-to-memory promotions
    (:meth:`ResultCache.promote`): hot-set reloads are plumbing traffic that
    must not pollute the workload's hit/miss ratio.

    ``quarantined`` counts disk-tier entries set aside as unreadable --
    truncated/corrupt JSON, a payload that does not rebuild, or an envelope
    whose recorded fingerprint disagrees with its filename.  Each such read
    is served as a plain miss (the solve path never sees the corruption);
    the poisoned file is renamed ``*.quarantined`` so it cannot fail again.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    promotions: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "promotions": self.promotions,
            "quarantined": self.quarantined,
            "hit_rate": self.hit_rate,
        }


#: Cache accesses (hits, stores, promotions) over which an entry's access
#: count halves.
_HALFLIFE = 32.0
#: Floor for recorded recompute costs, so entries whose solve was too fast
#: to measure still rank by frequency instead of collapsing to score zero.
_COST_FLOOR = 1e-6


@dataclass(slots=True)
class _Entry:
    """A resident result plus the state of its eviction score."""

    result: SynthesisResult
    freq: float  # decayed access count as of ``tick``
    cost: float  # largest recompute cost recorded for the key
    tick: int  # cache clock at the last access

    def frequency(self, clock: int) -> float:
        return self.freq * 0.5 ** ((clock - self.tick) / _HALFLIFE)

    def score(self, clock: int) -> float:
        return self.frequency(clock) * max(self.cost, _COST_FLOOR)


class ResultCache:
    """Fingerprint -> :class:`SynthesisResult`, scored memory tier + disk tier.

    Args:
        capacity: Maximum in-memory entries.  Beyond it the entry with the
            lowest ``decayed access count x recompute cost`` is evicted
            (ties go oldest first); the count halves every 32 cache
            accesses.  Evicted entries remain on disk (when a disk path is
            configured), so a later lookup can still be served without a
            solve.
        disk_path: Directory for the JSON tier; created on demand.  ``None``
            keeps the cache purely in memory.
    """

    def __init__(self, capacity: int = 512, disk_path: str | Path | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.disk_path = Path(disk_path) if disk_path is not None else None
        self.stats = CacheStats()
        # Kept in access order (least recent first): score ties evict the
        # oldest entry, which keeps eviction deterministic.
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._clock = 0
        self._lock = threading.Lock()
        #: Chaos hook: called as ``fault_hook(key, path)`` right before each
        #: disk-tier read (see :meth:`repro.chaos.ChaosInjector.cache_read_hook`).
        #: ``None`` (the default) costs one attribute check per disk probe.
        self.fault_hook = None

    # -- lookup / store -------------------------------------------------------

    def get(self, key: str) -> SynthesisResult | None:
        """Return a copy of the cached result for a fingerprint (``None`` on miss).

        Callers get a private copy: mutating the returned weights or
        diagnostics cannot corrupt the entry served to the next hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._touch(key, entry)
                self.stats.hits += 1
                return entry.result.copy()
        disk_result = self._load_from_disk(key)
        with self._lock:
            # Re-check memory before declaring a miss: a concurrent put()
            # may have landed while the lock was released for the disk
            # probe, and recording its entry as a miss would both return a
            # stale None and corrupt the hit-rate signal.
            entry = self._entries.get(key)
            if entry is not None:
                self._touch(key, entry)
                self.stats.hits += 1
                return entry.result.copy()
            if disk_result is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, disk_result.copy(), cost=disk_result.solve_time)
            else:
                self.stats.misses += 1
        return disk_result

    def put(self, key: str, result: SynthesisResult, cost: float | None = None) -> None:
        """Store a result under a fingerprint (memory and, if set, disk).

        ``cost`` is the recompute wall time behind the result (the engine
        threads its measured solve time through); it feeds the entry's
        eviction score and defaults to the result's own recorded
        ``solve_time``.
        """
        if cost is None:
            cost = result.solve_time
        with self._lock:
            self.stats.stores += 1
            # Store a private copy: the caller keeps (and may mutate) its own.
            self._insert(key, result.copy(), cost=cost)
        self._write_to_disk(key, result)

    def promote(self, key: str) -> bool:
        """Stats-neutral disk-to-memory promotion; returns residency.

        The hot-set reload on startup (:meth:`load_hot_set`) pulls entries
        into memory *speculatively* -- that traffic is plumbing, not
        workload, so it must not count as hits or misses: counters inflated
        by reloads would describe the restart history instead of the query
        stream.  Promotions get their own counter (``stats.promotions``)
        instead.
        """
        return self._promote(key)

    def _promote(self, key: str, freq: float = 1.0, cost: float | None = None) -> bool:
        """:meth:`promote`, inserting with ``freq`` and ``cost`` (default:
        one access and the result's ``solve_time``)."""
        with self._lock:
            if key in self._entries:
                # Already resident: report residency without counting or
                # reordering anything.
                return True
        result = self._load_from_disk(key)
        if result is None:
            return False
        with self._lock:
            if key not in self._entries:
                self.stats.promotions += 1
                cost = result.solve_time if cost is None else cost
                self._insert(key, result, cost=cost, freq=freq)
        return True

    def _touch(self, key: str, entry: _Entry) -> None:
        """Record one access to a resident entry (lock held)."""
        self._clock += 1
        entry.freq = entry.frequency(self._clock) + 1.0
        entry.tick = self._clock
        self._entries.move_to_end(key)

    def _insert(
        self, key: str, result: SynthesisResult, cost: float, freq: float = 1.0
    ) -> None:
        """Store ``result`` and evict down to capacity (lock held)."""
        cost = max(float(cost), 0.0)
        entry = self._entries.get(key)
        if entry is not None:
            self._touch(key, entry)
            entry.result = result
            entry.cost = max(entry.cost, cost)
        else:
            self._clock += 1
            self._entries[key] = _Entry(result, freq, cost, self._clock)
        clock = self._clock
        while len(self._entries) > self.capacity:
            # Lowest score goes -- which may be the entry just inserted:
            # evicting the newcomer is exactly the admission filter that
            # keeps scan traffic from displacing the hot set (the entry
            # still reaches the disk tier via put()).  min() keeps the first
            # minimum, so ties evict oldest first.
            victim = min(self._entries, key=lambda k: self._entries[k].score(clock))
            del self._entries[victim]
            self.stats.evictions += 1

    # -- disk tier ------------------------------------------------------------

    def _disk_file(self, key: str) -> Path | None:
        if self.disk_path is None:
            return None
        return self.disk_path / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Set a poisoned disk entry aside and count it (never raises).

        The file is renamed ``<name>.quarantined`` so (a) the next lookup
        of the same key is a clean miss-then-rewrite instead of re-parsing
        the same garbage, and (b) the evidence survives for forensics.  A
        rename that itself fails falls back to unlinking; if even that
        fails the entry is still served as a miss.
        """
        with self._lock:
            self.stats.quarantined += 1
        try:
            path.rename(path.with_name(path.name + ".quarantined"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _load_from_disk(self, key: str) -> SynthesisResult | None:
        path = self._disk_file(key)
        if path is None or not path.is_file():
            return None
        if self.fault_hook is not None:
            self.fault_hook(key, path)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            # Corrupt bytes on disk: quarantine, then serve a miss.  (A
            # mid-rename torn read cannot happen -- writes go through
            # write-then-os.replace -- so garbage here is real corruption.)
            self._quarantine(path, "unparseable JSON")
            return None
        except OSError:
            # Transient I/O (permissions, disk going away): a miss, but not
            # the file's fault -- leave it in place.
            return None
        if isinstance(payload, dict) and "result" in payload and "key" in payload:
            # Self-identifying envelope (the current write format): verify
            # the recorded fingerprint against the filename-derived key, so
            # a misnamed/mislinked entry cannot serve the wrong answer.
            if payload.get("key") != key:
                self._quarantine(
                    path, f"fingerprint mismatch ({payload.get('key')!r})"
                )
                return None
            body = payload["result"]
        else:
            # Legacy bare-result files (pre-envelope) stay readable; they
            # carry no fingerprint to verify.
            body = payload
        try:
            return SynthesisResult.from_dict(body)
        except (KeyError, TypeError, ValueError, AttributeError):
            self._quarantine(path, "payload does not rebuild")
            return None

    def _write_to_disk(self, key: str, result: SynthesisResult) -> None:
        path = self._disk_file(key)
        if path is None:
            return
        # Everything disk-related sits inside the guard: a result that cannot
        # be serialized (exotic diagnostics), an unwritable directory, or a
        # full disk must not fail a solve that already succeeded -- the entry
        # simply stays memory-only.
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Write-then-rename keeps concurrent readers from seeing torn files.
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # The envelope embeds the key so reads can detect an entry
                # whose payload does not belong to its filename.
                json.dump({"version": 1, "key": key, "result": result.to_dict()},
                          handle)
            os.replace(tmp_name, path)
        except (OSError, TypeError, ValueError):
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    # -- hot-set persistence --------------------------------------------------

    def save_hot_set(self, path: str | Path) -> int:
        """Serialize the resident set and its eviction scores to JSON.

        The file records fingerprints in cache order (least recently used
        first), each with its score, decayed frequency and cost -- enough
        for :meth:`load_hot_set` to rebuild both the resident set and the
        priorities that earned it.  Returns the number of entries written;
        write failures are swallowed (a full disk must not fail a drain),
        leaving any previous file intact.
        """
        path = Path(path)
        with self._lock:
            clock = self._clock
            entries = [
                {
                    "fingerprint": key,
                    "score": entry.score(clock),
                    "freq": entry.frequency(clock),
                    "cost": entry.cost,
                }
                for key, entry in self._entries.items()
            ]
        payload = {"version": 1, "entries": entries}
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except (OSError, TypeError, ValueError):
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return 0
        return len(entries)

    def load_hot_set(self, path: str | Path) -> int:
        """Rebuild the memory tier from a :meth:`save_hot_set` file.

        Each recorded fingerprint is promoted from the disk tier
        (stats-neutral: ``promotions``, never hits/misses) in saved order,
        inserted with its saved frequency (at least one access) and cost, so
        a restart keeps the scores and, into a smaller cache, the
        best-scored entries.  An entry saved without scores starts fresh,
        like any promotion.  Entries whose disk file is gone are skipped; a
        missing or corrupt hot-set file loads nothing.  Returns how many of
        the file's entries are resident after the load.
        """
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = list(payload["entries"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return 0
        promoted = set()
        for entry in entries:
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                continue
            key = str(entry["fingerprint"])
            freq = max(float(entry.get("freq", 1.0)), 1.0)
            if self._promote(key, freq=freq, cost=entry.get("cost")):
                promoted.add(key)
        with self._lock:
            return sum(key in self._entries for key in promoted)

    # -- maintenance ----------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop every in-memory entry (and, optionally, the disk tier)."""
        with self._lock:
            self._entries.clear()
        if disk and self.disk_path is not None and self.disk_path.is_dir():
            for file in self.disk_path.glob("*.json"):
                try:
                    file.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"disk={str(self.disk_path) if self.disk_path else None!r})"
        )
