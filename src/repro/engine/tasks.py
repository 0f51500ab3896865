"""The picklable task function behind :meth:`SolveEngine.solve_batch`.

``ProcessPoolExecutor`` ships tasks to workers by pickling the callable and
its payload; closures and bound methods do not survive that trip, so the
function the engine fans out lives here at module level.  Payloads are
plain tuples of picklable objects -- :class:`~repro.core.problem.RankingProblem`
and every options dataclass pickle cleanly.

Method dispatch itself lives in the :mod:`repro.api` registry; this module
is the thin, picklable bridge between the executor backends and the
registered :class:`~repro.api.registry.SynthesisMethod` adapters.
"""

from __future__ import annotations

from repro.api.registry import get_method
from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult

__all__ = ["solve_request_task"]


def solve_request_task(payload: tuple) -> SynthesisResult:
    """Solve one ``(problem, method, effective)`` request.

    Picklable entry point for the executors; the options dict is expected to
    be already resolved (``SynthesisRequest.effective``) so the work the
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

