"""Cross-solve artifact carrier for delta-aware incremental synthesis.

A :class:`SolveContext` travels along an edit chain and does two jobs:

* **Warm side (in)** -- artifacts captured from the parent solve of the
  chain: its batched :class:`~repro.core.cells.CellBoundEvaluator`.
* **Capture side (out)** -- the same artifacts for *this* problem, recorded
  so the engine can stash them for the next edit in the chain.

Only artifacts that cannot change a solver's output are reused: the batched
cell evaluator, whose incremental row updates are bit-identical to a
rebuild.  Every incremental solve therefore returns exactly what the cold
solve of the same request returns.

This module is an engine leaf: nothing here imports the rest of
:mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolveArtifacts", "SolveContext"]


@dataclass
class SolveArtifacts:
    """Reusable leftovers of one solve, keyed by the request they came from.

    Attributes:
        request_fingerprint: Fingerprint of the request that produced these
            artifacts (the engine's side-table key).
        problem_fingerprint: Fingerprint of the problem that was solved.
        cell_evaluator: A :class:`~repro.core.cells.CellBoundEvaluator`
            built for the problem (reused or incrementally row-updated for
            tuple deltas by :meth:`SolveContext.evaluator_for`).
    """

    request_fingerprint: str = ""
    problem_fingerprint: str = ""
    cell_evaluator: object | None = None


@dataclass
class SolveContext:
    """One step's view of the edit chain: warm artifacts in, captured out.

    Attributes:
        warm: Artifacts of the parent solve (``None`` on a cold chain head).
        captured: Artifacts recorded for the current problem.
    """

    warm: SolveArtifacts | None = None
    captured: SolveArtifacts = field(default_factory=SolveArtifacts)

    def evaluator_for(self, problem):
        """A :class:`CellBoundEvaluator` for ``problem``, reusing the parent's.

        Falls back from (a) the parent evaluator verbatim when the problem
        fingerprint still matches, through (b) an incremental row update when
        only unranked tuples were appended or dropped (see
        :meth:`CellBoundEvaluator.updated_for`), to (c) a fresh build.  The
        updated/rebuilt evaluator is also captured for the next edit.
        """
        from repro.core.cells import CellBoundEvaluator

        evaluator = None
        if self.warm is not None and self.warm.cell_evaluator is not None:
            parent = self.warm.cell_evaluator
            if self.warm.problem_fingerprint == problem.fingerprint():
                evaluator = parent
            else:
                evaluator = parent.updated_for(problem)
        if evaluator is None:
            evaluator = CellBoundEvaluator(problem)
        self.captured.cell_evaluator = evaluator
        return evaluator
