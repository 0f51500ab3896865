"""Module-level task functions the process backend can pickle.

``ProcessPoolExecutor`` ships tasks to workers by pickling the callable and
its payload; closures and bound methods do not survive that trip, so every
function the engine fans out lives here (or at module level next to its
algorithm).  Payloads are plain tuples of picklable objects --
:class:`~repro.core.problem.RankingProblem` and every options dataclass
pickle cleanly.

Method dispatch itself lives in the :mod:`repro.api` registry; this module
is the thin, picklable bridge between the executor backends and the
registered :class:`~repro.api.registry.SynthesisMethod` adapters.  The
helpers (:func:`validate_params`, :func:`effective_params`,
:func:`build_solver`) are kept as delegating aliases for callers that grew
up against the pre-registry engine API.
"""

from __future__ import annotations

from repro.api.registry import GLOBAL_REGISTRY, get_method
from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult

__all__ = [
    "SOLVE_METHODS",
    "validate_params",
    "effective_params",
    "build_solver",
    "solve_request_task",
]

#: Methods the engine (and therefore the query service) can dispatch.
#: Snapshot of the registry at import time; use
#: :func:`repro.api.list_methods` for a live view that includes methods
#: registered later.
SOLVE_METHODS: tuple[str, ...] = GLOBAL_REGISTRY.names()


def validate_params(method: str, params: dict | None) -> None:
    """Reject unknown wire params instead of silently ignoring them.

    A misplaced key (say a top-level ``node_limit`` on a ``symgd`` request,
    or a typo inside its nested ``solver_options``) would otherwise change
    the request fingerprint -- fragmenting the cache -- while having no
    effect on the solve.  Failing loudly keeps the fingerprint space aligned
    with actual solver behaviour.
    """
    get_method(method).validate_options(params)


def effective_params(method: str, params: dict | None = None) -> dict:
    """The canonical post-merge options a ``(method, params)`` pair resolves to.

    Wire params are merged over the method's service-friendly defaults and
    every remaining default is spelled out, so ``{}`` and a default written
    out explicitly address the same cache entry (see
    :meth:`~repro.api.registry.SynthesisMethod.resolve_options`).
    """
    return get_method(method).resolve_options(params)


def build_solver(method: str, params: dict | None = None):
    """Turn ``(method, params)`` into a ``problem -> SynthesisResult`` callable.

    ``params`` is the wire-format options mapping; it is resolved through the
    method's :meth:`resolve_options`, so the solver configuration is exactly
    what the request fingerprint covers.
    """
    adapter = get_method(method)
    return adapter.build(adapter.resolve_options(params)).solve


def solve_request_task(payload: tuple) -> SynthesisResult:
    """Solve one ``(problem, method, effective_params)`` request.

    Picklable entry point for the executors; the options dict is expected to
    be already resolved (see :func:`effective_params`) so the work the
    front-end did for fingerprinting is not repeated in the worker.

    ``method`` may be the registered name or the
    :class:`~repro.api.registry.SynthesisMethod` instance itself.  The engine
    sends the instance: it pickles by reference, so a process-pool worker
    imports the adapter's defining module (registering it as a side effect)
    instead of depending on the worker's registry already containing a
    method that was registered at runtime in the parent.
    """
    problem, method, effective = payload
    assert isinstance(problem, RankingProblem)
    if isinstance(method, str):
        method = get_method(method)
    return method.synthesize_resolved(problem, effective)

