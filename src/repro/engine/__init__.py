"""Execution substrate: pluggable executors, fingerprints, and a result cache.

SYM-GD's decomposition into independent per-cell solves is the paper's
scalability story; this package is where the reproduction turns it into
throughput.  It sits between :mod:`repro.core` (the algorithms) and
:mod:`repro.service` (the async front-end):

* :mod:`repro.engine.executor` -- ``serial`` / ``process`` backends behind
  one ``map_cells`` interface;
* :mod:`repro.engine.fingerprint` -- canonical SHA-256 digests of problems,
  cells, and solver options (content addressing);
* :mod:`repro.engine.cache` -- the result cache: a memory tier that evicts
  by cost x frequency score, an optional on-disk JSON tier, and hot-set
  persistence;
* :mod:`repro.engine.engine` -- :class:`SolveEngine`, the cached, batched,
  parallel request executor everything above builds on (stateless queries
  and session edits take the same ``solve_batch`` path).
"""

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.engine import SolveEngine, SolveOutcome, SolveRequest
from repro.engine.executor import (
    BACKEND_NAMES,
    Executor,
    ExecutorStats,
    ProcessExecutor,
    SerialExecutor,
    available_cpu_count,
    get_executor,
)
from repro.engine.fingerprint import (
    canonical_json,
    fingerprint,
    fingerprint_cell,
    fingerprint_options,
    fingerprint_problem,
)
from repro.engine.tasks import solve_request_task

__all__ = [
    "BACKEND_NAMES",
    "CacheStats",
    "Executor",
    "ExecutorStats",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "SolveEngine",
    "SolveOutcome",
    "SolveRequest",
    "available_cpu_count",
    "canonical_json",
    "fingerprint",
    "fingerprint_cell",
    "fingerprint_options",
    "fingerprint_problem",
    "get_executor",
    "solve_request_task",
]
