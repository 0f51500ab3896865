"""Execution backends for independent solves.

SYM-GD decomposes weight synthesis into independent solves -- per-seed
descents, per-chunk sampling trials, distinct requests of a batch.  This
module is the substrate that fans them out.

Every backend exposes the same tiny interface, ``map_cells(fn, items)``:
apply a picklable function to every item and return the results *in order*.
The consumers (:meth:`repro.core.symgd.SymGD.solve_multi_seed`,
:class:`repro.baselines.sampling.SamplingBaseline`, and
:meth:`repro.engine.engine.SolveEngine.solve_batch`) only depend on that
method, so they accept either backend -- or any duck-typed stand-in --
without caring which one they got.

Backends:

* ``serial``  -- plain loop; the default.
* ``process`` -- ``ProcessPoolExecutor``; true parallelism for the
  Python-heavy solves, at the price of pickling each payload.

``auto`` picks ``process`` when more than one CPU is usable, else
``serial``.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

__all__ = [
    "ExecutorStats",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "available_cpu_count",
    "get_executor",
    "BACKEND_NAMES",
]

#: Backend names accepted by :func:`get_executor`.
BACKEND_NAMES: tuple[str, ...] = ("serial", "process")


def available_cpu_count() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


@dataclass
class ExecutorStats:
    """Counters every backend maintains (useful in service telemetry)."""

    batches: int = 0
    tasks: int = 0

    def as_dict(self) -> dict:
        return {"batches": self.batches, "tasks": self.tasks}


class Executor:
    """Base class: ordered map over independent tasks."""

    name = "base"

    def __init__(self, max_workers: int | None = None) -> None:
        # Explicit None check: 0 must trip the validation below, not silently
        # resolve to "all CPUs".
        self.max_workers = (
            available_cpu_count() if max_workers is None else int(max_workers)
        )
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.stats = ExecutorStats()
        #: Chaos hook: called as ``fault_hook(len(items))`` before each
        #: dispatch; raising aborts the batch (stand-in for a solver-task
        #: crash).  ``None`` costs one attribute check per map.
        self.fault_hook = None

    def map_cells(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item; results come back in input order.

        The name reflects the primary workload -- per-cell solves -- but any
        independent task collection works (seeds, sample chunks, requests).
        """
        raise NotImplementedError

    def _count(self, items: Sequence) -> None:
        # Every backend's map_cells calls this exactly once per dispatch, so
        # it doubles as the chaos injection point: a hook that raises aborts
        # the batch before any task runs (parent-side, which is what makes
        # it work identically on both backends).
        hook = self.fault_hook
        if hook is not None:
            hook(len(items))
        self.stats.batches += 1
        self.stats.tasks += len(items)

    def shutdown(self) -> None:
        """Release pooled workers (idempotent; serial backend is a no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialExecutor(Executor):
    """Run every task inline, one after the other."""

    name = "serial"

    def map_cells(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        self._count(items)
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """Fan tasks out over a lazily created process pool.

    Task functions and payloads must be picklable -- the engine keeps its
    task functions at module level (:mod:`repro.engine.tasks`,
    ``repro.core.symgd._solve_from_seed``, ...) for exactly this reason.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        self._pool: ProcessPoolExecutor | None = None

    def map_cells(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        self._count(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        chunksize = max(1, len(items) // (self.max_workers * 4))
        return list(self._pool.map(fn, items, chunksize=chunksize))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def get_executor(
    backend: str | Executor = "serial",
    max_workers: int | None = None,
) -> Executor:
    """Resolve a backend name (or pass an executor through unchanged).

    Args:
        backend: ``"serial"``, ``"process"``, ``"auto"`` (process pool when
            more than one CPU is available, else serial), or an
            already-constructed :class:`Executor`.
        max_workers: Worker cap for pooled backends; defaults to the number of
            usable CPUs.
    """
    if isinstance(backend, Executor):
        return backend
    name = str(backend).lower()
    if name == "auto":
        name = "process" if available_cpu_count() > 1 else "serial"
    if name == "serial":
        return SerialExecutor(max_workers)
    if name == "process":
        return ProcessExecutor(max_workers)
    raise ValueError(
        f"unknown executor backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
