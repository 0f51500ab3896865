"""Deterministic fault plans and the runtime injector that fires them.

A :class:`FaultPlan` is a seeded, serializable list of :class:`FaultSpec`
entries -- *kill shard 1 at op 6*, *delay the next pipe message to shard 0
by 50ms*, *corrupt one disk-cache entry*, *raise inside the next solver
dispatch*.  :meth:`FaultPlan.injector` builds the mutable runtime half, a
:class:`ChaosInjector`, which the serving stack consults through explicit
hooks:

* the :class:`~repro.cluster.ClusterRouter` steps the injector's **op
  counter** once per routed operation (:meth:`ChaosInjector.step`) and
  executes the router-level faults it returns (``kill_shard``,
  ``corrupt_cache``), and consults :meth:`ChaosInjector.take_pipe_fault`
  just before each shard data call (``delay_pipe``, ``drop_message``);
* the engine's :class:`~repro.engine.executor.Executor` calls the
  installed :attr:`fault_hook <ChaosInjector.executor_hook>` before each
  dispatch (``solver_error``);
* :class:`~repro.engine.cache.ResultCache` calls its ``fault_hook`` before
  each disk-tier read (the ``corrupt_cache`` alternative that targets the
  exact entry about to be read).

Every fired fault is appended to :attr:`ChaosInjector.records` -- the
reproducible recovery trace -- and surfaced through the injector's metrics
collector (``repro_chaos_faults_injected_total`` by kind).  Determinism is
the point: the op counter (not wall clock) sequences the faults, and any
randomness (victim choice for disk corruption) draws from a
:func:`~repro.data.rng.derive_rng` child stream of the plan seed, so the
same plan against the same workload yields the same faults, the same
recovery, and -- per the fault-tolerance contract -- the same answers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.rng import derive_rng

__all__ = [
    "FAULT_KINDS",
    "ChaosError",
    "ChaosInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
]

#: Fault kinds a plan may contain (see module docstring for semantics).
FAULT_KINDS: tuple[str, ...] = (
    "kill_shard",
    "delay_pipe",
    "drop_message",
    "corrupt_cache",
    "solver_error",
)

#: Kinds the router executes itself when the op counter reaches them.
_ROUTER_KINDS = frozenset({"kill_shard", "corrupt_cache"})
#: Kinds armed at their op and consumed by the next matching shard call.
_PIPE_KINDS = frozenset({"delay_pipe", "drop_message"})


class ChaosError(RuntimeError):
    """An injected transient fault (dropped message, solver crash).

    Marked ``retryable`` so a :class:`~repro.service.RetryPolicy` treats it
    exactly like the real transient failures it stands in for.
    """

    retryable = True


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        at_op: 1-based router op count at which the fault fires (the
            injector steps once per routed operation).
        shard: Target shard index (``kill_shard`` / ``delay_pipe`` /
            ``drop_message``); ignored otherwise.
        seconds: Injected latency for ``delay_pipe``.
        count: How many times the fault fires once armed (``solver_error``
            / pipe kinds); router kinds always fire exactly once.
    """

    kind: str
    at_op: int
    shard: int | None = None
    seconds: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_op < 1:
            raise ValueError("at_op must be >= 1 (ops are 1-based)")
        if self.kind in ("kill_shard", "delay_pipe", "drop_message") and (
            self.shard is None or self.shard < 0
        ):
            raise ValueError(f"{self.kind} requires a non-negative shard index")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at_op": self.at_op,
            "shard": self.shard,
            "seconds": self.seconds,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            at_op=int(data["at_op"]),
            shard=data.get("shard"),
            seconds=float(data.get("seconds", 0.0)),
            count=int(data.get("count", 1)),
        )


@dataclass
class FaultRecord:
    """One fired fault: the recovery trace's unit of evidence."""

    op: int
    kind: str
    shard: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "kind": self.kind,
            "shard": self.shard,
            "detail": self.detail,
        }


class FaultPlan:
    """An immutable, seeded, serializable collection of fault specs."""

    def __init__(self, faults=(), seed: int = 0) -> None:
        self.faults: tuple[FaultSpec, ...] = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(fault).__name__}")
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            faults=[FaultSpec.from_dict(entry) for entry in data.get("faults", [])],
            seed=int(data.get("seed", 0)),
        )

    def injector(self) -> "ChaosInjector":
        """Fresh runtime state for one run of this plan."""
        return ChaosInjector(self)


@dataclass
class _ArmedFault:
    spec: FaultSpec
    remaining: int


class ChaosInjector:
    """Mutable per-run state: op counter, armed faults, fired-fault trace.

    One injector drives one run.  It is event-loop-confined (stepped by the
    router between awaits), so no locking is needed; the executor and cache
    hooks it hands out only decrement pre-armed integer budgets, which is
    safe from worker threads.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.records: list[FaultRecord] = []
        self._op = 0
        self._rng = derive_rng(plan.seed, "chaos")
        self._due: dict[int, list[FaultSpec]] = {}
        for fault in plan:
            self._due.setdefault(fault.at_op, []).append(fault)
        # Armed budgets, consumed by the shard/executor/cache hooks.
        self._pipe_armed: dict[int, list[_ArmedFault]] = {}
        self._solver_errors = 0

    # -- router-facing --------------------------------------------------------

    @property
    def op(self) -> int:
        """Operations stepped so far."""
        return self._op

    def step(self) -> list[FaultSpec]:
        """Advance the op counter; returns router-level faults now due.

        Pipe and solver faults whose ``at_op`` is reached are *armed* here
        (recorded when they actually fire); ``kill_shard`` /
        ``corrupt_cache`` specs are returned for the router to execute.
        """
        self._op += 1
        router_faults: list[FaultSpec] = []
        for spec in self._due.pop(self._op, []):
            if spec.kind in _ROUTER_KINDS:
                router_faults.append(spec)
            elif spec.kind in _PIPE_KINDS:
                self._pipe_armed.setdefault(spec.shard, []).append(
                    _ArmedFault(spec, spec.count)
                )
            elif spec.kind == "solver_error":
                self._solver_errors += spec.count
        return router_faults

    def record(self, kind: str, shard: int | None = None, detail: str = "") -> None:
        """Append one fired fault to the recovery trace."""
        self.records.append(
            FaultRecord(op=self._op, kind=kind, shard=shard, detail=detail)
        )

    # -- pipe hook ------------------------------------------------------------

    def take_pipe_fault(self, shard: int) -> FaultSpec | None:
        """Pop an armed pipe fault for ``shard`` (``None`` when clean).

        The caller (the router, just before a shard data call) applies the
        fault -- sleep for ``delay_pipe``, raise :class:`ChaosError` for
        ``drop_message`` -- and this method records it.
        """
        armed = self._pipe_armed.get(shard)
        if not armed:
            return None
        entry = armed[0]
        entry.remaining -= 1
        if entry.remaining <= 0:
            armed.pop(0)
        self.record(entry.spec.kind, shard=shard,
                    detail=f"seconds={entry.spec.seconds}")
        return entry.spec

    # -- executor hook --------------------------------------------------------

    def executor_hook(self, n_tasks: int) -> None:
        """Install as ``Executor.fault_hook``: raises once per armed fault.

        Called by the executor before dispatching a batch of ``n_tasks``
        solver tasks; raising here stands in for a crash inside a solver
        task (the whole dispatch fails, the server fails the affected
        futures, and a retrying client reissues).
        """
        if self._solver_errors > 0:
            self._solver_errors -= 1
            self.record("solver_error", detail=f"batch of {n_tasks} tasks")
            raise ChaosError(
                f"injected solver fault (batch of {n_tasks} tasks)"
            )

    # -- cache hook -----------------------------------------------------------

    def corrupt_cache_entry(self, cache_dir: str | Path) -> str | None:
        """Corrupt one seeded-choice disk-cache entry; returns its filename.

        The victim is drawn from the plan's RNG over the sorted entry list,
        so the same plan against the same cache state corrupts the same
        file.  The truncated write leaves unparseable JSON behind, which the
        cache's next read quarantines (counted, never raised into a solve).
        """
        directory = Path(cache_dir)
        candidates = sorted(p for p in directory.glob("*.json"))
        if not candidates:
            self.record("corrupt_cache", detail="no entries to corrupt")
            return None
        victim = candidates[int(self._rng.integers(0, len(candidates)))]
        try:
            with victim.open("w", encoding="utf-8") as handle:
                handle.write('{"torn": ')  # deliberately truncated JSON
        except OSError:
            self.record("corrupt_cache", detail=f"write failed: {victim.name}")
            return None
        self.record("corrupt_cache", detail=victim.name)
        return victim.name

    def cache_read_hook(self, key: str, path) -> None:
        """Install as ``ResultCache.fault_hook`` to corrupt entries in place.

        Fires while an :meth:`arm_cache_corruption` budget is armed
        (consuming one per read), garbling exactly the entry about to be
        read -- the precise way to exercise the quarantine path end-to-end.
        """
        # Targeted corruptions share the arming table under pseudo-shard -1
        # (real shard indices are non-negative, so no collision).
        armed_list = self._pipe_armed.get(-1)
        if not armed_list:
            return
        entry = armed_list[0]
        entry.remaining -= 1
        if entry.remaining <= 0:
            armed_list.pop(0)
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"torn": ')
        except OSError:
            return
        self.record("corrupt_cache", detail=f"in-place: {os.path.basename(path)}")

    def arm_cache_corruption(self, count: int = 1) -> None:
        """Arm ``count`` in-place corruptions for :meth:`cache_read_hook`."""
        self._pipe_armed.setdefault(-1, []).append(
            _ArmedFault(
                FaultSpec(kind="corrupt_cache", at_op=max(self._op, 1)), count
            )
        )

    # -- observability --------------------------------------------------------

    def collect_metrics(self) -> dict:
        """Metric series for a :class:`~repro.obs.MetricsRegistry` collector."""
        by_kind: dict[tuple, float] = {}
        for record in self.records:
            label = (record.kind,)
            by_kind[label] = by_kind.get(label, 0.0) + 1.0
        return {
            "repro_chaos_faults_injected_total": (
                "counter",
                "Faults injected by the chaos harness, by kind",
                by_kind,
                ("kind",),
            ),
            "repro_chaos_planned_faults": (
                "gauge",
                "Faults in the active fault plan",
                float(len(self.plan)),
            ),
        }

    def summary(self) -> dict:
        """JSON-friendly run summary (plan + fired-fault trace)."""
        return {
            "plan": self.plan.to_dict(),
            "ops": self._op,
            "fired": [record.to_dict() for record in self.records],
        }
