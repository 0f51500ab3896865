"""Pluggable cache policies: what the result cache keeps.

The default :class:`~repro.engine.cache.ResultCache` is a plain recency LRU:
correct, but blind to two signals the serving stack already records -- how
*often* a fingerprint comes back (the workload profile's repeat structure)
and how *expensive* it is to recompute (the solve wall time threaded through
``put``).  This module supplies the policy layer that acts on both:

* :class:`CostAwarePolicy` -- scores every resident entry as
  ``decayed_frequency x recompute_cost`` (an EWMA hit-probability estimate
  times the recorded solve cost) and evicts the **lowest-scoring** entry
  instead of the oldest.  A brand-new entry starts with one access worth of
  frequency, so a one-off scan key scores below a repeatedly-hit expensive
  key: inserting it and immediately evicting the global minimum *is* the
  admission filter -- scan traffic washes through without displacing the
  hot set.
* Hot-set serialization -- :meth:`CachePolicy.export_entries` /
  :meth:`CachePolicy.seed` round-trip the per-key score state through the
  JSON hot-set file (:meth:`ResultCache.save_hot_set`), so a restarted
  server rebuilds both the resident set and the scores that earned it.

Policies are deliberately unaware of results: they track fingerprints and
floats only, so every policy is bitwise-neutral -- it can change *which*
requests hit, never what any request answers.
"""

from __future__ import annotations

__all__ = [
    "CachePolicy",
    "CostAwarePolicy",
    "POLICY_NAMES",
    "make_policy",
]


class CachePolicy:
    """Scoring/eviction strategy plugged into :class:`ResultCache`.

    The cache keeps the entries; the policy keeps per-key metadata and
    answers one question -- :meth:`victim` -- when the cache is over
    capacity.  ``None`` (no policy object) is the cache's plain-LRU fast
    path; subclasses only need the hooks they care about.
    """

    name = "base"

    def on_access(self, key: str) -> None:
        """A resident entry served a lookup."""

    def on_store(self, key: str, cost: float) -> None:
        """An entry was inserted (solve result, disk promotion, or reload)."""

    def forget(self, key: str) -> None:
        """An entry left the cache (eviction or clear)."""

    def victim(self, resident) -> str:
        """The key to evict from ``resident`` (an ordered key view)."""
        raise NotImplementedError

    def score(self, key: str) -> float:
        """Current keep-priority of a key (higher = keep longer)."""
        return 0.0

    def export_entries(self, keys) -> list[dict]:
        """Wire form of the hot-set metadata for ``keys`` (cache order kept)."""
        return [{"fingerprint": key} for key in keys]

    def seed(self, entry: dict) -> None:
        """Restore one :meth:`export_entries` record (restart recovery)."""

    def clear(self) -> None:
        """Drop all per-key metadata."""


class CostAwarePolicy(CachePolicy):
    """Evict by ``EWMA hit-frequency x recompute cost``, not recency.

    Per key the policy tracks an exponentially decayed access count (the
    hit-probability estimate: each access adds 1, and the total halves
    every ``halflife`` cache accesses) and the largest recompute cost
    observed for the key.  The keep-score is their product, so the cache
    retains entries that are *both* likely to be asked again *and*
    expensive to lose; ties fall back to the cache's own order (oldest
    first), which keeps eviction deterministic.

    Args:
        halflife: Accesses over which a key's frequency estimate halves.
            Small values adapt fast but forget the hot set quickly; the
            default keeps a key "hot" for a few working-set laps.
        default_cost: Floor for recorded costs, so entries whose solve was
            too fast to measure (or promoted hits with no recorded cost)
            still rank by frequency instead of collapsing to score zero.
    """

    name = "cost"

    def __init__(self, halflife: float = 32.0, default_cost: float = 1e-6):
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        if default_cost <= 0:
            raise ValueError("default_cost must be positive")
        self.halflife = float(halflife)
        self.default_cost = float(default_cost)
        self._clock = 0
        # key -> [decayed access count at `tick`, max cost seen, tick]
        self._meta: dict[str, list] = {}

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _decayed(self, entry: list) -> float:
        gap = self._clock - entry[2]
        if gap <= 0:
            return entry[0]
        return entry[0] * (0.5 ** (gap / self.halflife))

    def _touch(self, key: str, cost: float | None) -> None:
        now = self._tick()
        entry = self._meta.get(key)
        if entry is None:
            self._meta[key] = [1.0, max(cost or 0.0, 0.0), now]
            return
        entry[0] = self._decayed(entry) + 1.0
        if cost is not None:
            entry[1] = max(entry[1], cost)
        entry[2] = now

    def on_access(self, key: str) -> None:
        self._touch(key, None)

    def on_store(self, key: str, cost: float) -> None:
        self._touch(key, float(cost))

    def forget(self, key: str) -> None:
        self._meta.pop(key, None)

    def score(self, key: str) -> float:
        entry = self._meta.get(key)
        if entry is None:
            return 0.0
        return self._decayed(entry) * max(entry[1], self.default_cost)

    def victim(self, resident) -> str:
        # min() keeps the first minimum it sees; iterating the cache's own
        # (insertion/recency) order makes ties evict oldest-first.
        return min(resident, key=self.score)

    def export_entries(self, keys) -> list[dict]:
        entries = []
        for key in keys:
            meta = self._meta.get(key)
            entries.append(
                {
                    "fingerprint": key,
                    "score": self.score(key),
                    "freq": self._decayed(meta) if meta is not None else 0.0,
                    "cost": meta[1] if meta is not None else 0.0,
                }
            )
        return entries

    def seed(self, entry: dict) -> None:
        key = entry["fingerprint"]
        self._meta[key] = [
            max(float(entry.get("freq", 1.0)), 1.0),
            max(float(entry.get("cost", 0.0)), 0.0),
            self._clock,
        ]

    def clear(self) -> None:
        self._meta.clear()


#: Registered policy names.  ``"lru"`` is the no-policy fast path: the cache
#: falls back to its ordered-dict recency eviction, byte-for-byte the
#: pre-policy behaviour.
POLICY_NAMES: tuple[str, ...] = ("lru", "cost")


def make_policy(policy, **options) -> CachePolicy | None:
    """Resolve a policy spec (name, instance, or ``None``) to an instance.

    ``"lru"`` and ``None`` both return ``None`` -- plain LRU is the absence
    of a policy object, keeping the default path allocation-free.
    """
    if policy is None or policy == "lru":
        return None
    if isinstance(policy, CachePolicy):
        return policy
    if policy == "cost":
        return CostAwarePolicy(**options)
    raise ValueError(
        f"unknown cache policy {policy!r}; expected one of {POLICY_NAMES}"
    )

