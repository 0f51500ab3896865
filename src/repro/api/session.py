"""The edit-solve-edit loop: :class:`SynthesisSession`.

A session is the client-side unit of interactive synthesis: it pins a base
:class:`~repro.core.problem.RankingProblem`, accumulates
:class:`~repro.core.delta.ProblemDelta` edits, and solves the current head
through the engine (:meth:`~repro.engine.engine.SolveEngine.solve_batch`):
a head the chain visited before (after an undo, or on a resumed session)
carries the same composed fingerprint and is answered from the cache, and
any other head is solved cold.

Quick start::

    from repro import RankHowClient

    with RankHowClient() as client:
        session = client.session(problem, method="rankhow",
                                 options={"node_limit": 500})
        first = session.solve()
        session.tighten_tolerance()          # an edit ...
        second = session.solve()             # ... solved cold
        print(second.cache_hit, second.result.describe())

A session is **exact-parity safe**: every solve returns exactly what a
cold solve of the edited problem returns (the differential oracle's
``incremental_parity`` invariant).

Sessions serialize: :meth:`to_dict` captures the base problem and the wire
form of the delta chain, and :meth:`from_dict` replays it -- fingerprints
compose identically, so a resumed session dedupes against the same cache
entries the original populated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.request import SynthesisRequest
from repro.core.cells import cell_error_bounds_many
from repro.core.delta import (
    AddTuplesDelta,
    ConstraintDelta,
    DropTuplesDelta,
    PermuteTuplesDelta,
    ProblemDelta,
    RerankDelta,
    RescaleDelta,
    ReweightDelta,
    ToleranceDelta,
    deltas_from_dicts,
)
from repro.core.problem import RankingProblem, ToleranceSettings

__all__ = ["SessionStep", "SynthesisSession"]


@dataclass
class SessionStep:
    """One solve in the session's history."""

    step: int
    edits: int
    fingerprint: str
    cache_hit: bool
    error: int
    wall_time: float


class SynthesisSession:
    """Stateful edit-solve-edit loop over one problem and its edits.

    Args:
        engine: The :class:`~repro.engine.engine.SolveEngine` solves run on
            (shared with the owning client; the session never closes it).
        problem: The base problem the edit chain starts from.
        method: Default registered method for :meth:`solve`.
        options: Default wire options for :meth:`solve`.
    """

    def __init__(
        self,
        engine,
        problem: RankingProblem,
        method: str = "symgd",
        options: dict | None = None,
    ) -> None:
        self.engine = engine
        self.method = method
        self.options = dict(options or {})
        self._base = problem
        self._problem = problem
        self._deltas: list[ProblemDelta] = []
        self._pending_edits = 0
        self.history: list[SessionStep] = []
        # Fail fast on an unknown method/options pair, before the first edit.
        SynthesisRequest(problem, method, dict(self.options))

    # -- state ----------------------------------------------------------------

    @property
    def problem(self) -> RankingProblem:
        """The current head of the edit chain."""
        return self._problem

    @property
    def base(self) -> RankingProblem:
        """The problem the chain started from."""
        return self._base

    @property
    def delta_chain(self) -> list[ProblemDelta]:
        """Every edit applied so far, in order."""
        return list(self._deltas)

    def __len__(self) -> int:
        return len(self._deltas)

    # -- editing --------------------------------------------------------------

    def edit(self, *deltas: ProblemDelta) -> "SynthesisSession":
        """Apply one or more deltas to the head (chainable)."""
        for delta in deltas:
            if not isinstance(delta, ProblemDelta):
                raise TypeError(f"edit() expects ProblemDelta objects, got {delta!r}")
        head = self._problem.apply_delta(list(deltas))
        self._problem = head
        self._deltas.extend(deltas)
        self._pending_edits += len(deltas)
        return self

    def rewind(self, steps: int = 1) -> "SynthesisSession":
        """Undo the last ``steps`` edits (chainable).

        The head is rebuilt by replaying the surviving chain prefix through
        ``apply_delta``; composed fingerprints are a pure function of
        (base, chain), so the rewound head's fingerprint equals the one it
        had when first visited -- a re-solve after rewind is an exact cache
        hit, not a new solve.  This is the undo/redo half of the interactive
        loop (and what the incremental benchmark leans on).
        """
        if not 0 <= steps <= len(self._deltas):
            raise ValueError(
                f"cannot rewind {steps} step(s); chain has {len(self._deltas)}"
            )
        if steps == 0:
            return self
        kept = self._deltas[: len(self._deltas) - steps]
        self._deltas = kept
        self._problem = self._base.apply_delta(kept)
        self._pending_edits = 0
        return self

    # Convenience edit constructors, one per delta kind -----------------------

    def add_tuples(self, columns, positions=()) -> "SynthesisSession":
        """Append tuples (unranked unless ``positions`` says otherwise)."""
        return self.edit(AddTuplesDelta(columns=columns, positions=tuple(positions)))

    def drop_tuples(self, indices) -> "SynthesisSession":
        """Remove tuples by index."""
        if np.isscalar(indices):
            indices = (int(indices),)
        return self.edit(DropTuplesDelta(indices=tuple(int(i) for i in indices)))

    def reweight(self, columns) -> "SynthesisSession":
        """Replace the values of one or more columns."""
        return self.edit(ReweightDelta(columns=columns))

    def rescale(self, factor: float) -> "SynthesisSession":
        """Scale attributes and tolerances by ``factor``."""
        return self.edit(RescaleDelta(factor=factor))

    def permute(self, order) -> "SynthesisSession":
        """Re-order the tuples."""
        return self.edit(PermuteTuplesDelta(order=tuple(int(i) for i in order)))

    def set_tolerances(self, tolerances: ToleranceSettings) -> "SynthesisSession":
        """Replace the tie / indicator tolerances."""
        return self.edit(ToleranceDelta.from_settings(tolerances))

    def tighten_tolerance(self, factor: float = 2.0) -> "SynthesisSession":
        """Divide every tolerance by ``factor`` (the classic analyst edit)."""
        old = self._problem.tolerances
        return self.set_tolerances(
            ToleranceSettings(
                tie_eps=old.tie_eps / factor,
                eps1=old.eps1 / factor,
                eps2=old.eps2 / factor,
            )
        )

    def add_constraints(self, *constraints) -> "SynthesisSession":
        """Add weight / position / precedence constraints."""
        from repro.core.constraints import ConstraintSet

        added = ConstraintSet()
        for constraint in constraints:
            added.add(constraint)
        return self.edit(ConstraintDelta(add=added))

    def remove_constraints(self, *constraints) -> "SynthesisSession":
        """Remove constraints (must be present on the head problem)."""
        from repro.core.constraints import ConstraintSet

        removed = ConstraintSet()
        for constraint in constraints:
            removed.add(constraint)
        return self.edit(ConstraintDelta(remove=removed))

    def rerank(self, positions) -> "SynthesisSession":
        """Replace the given ranking."""
        return self.edit(RerankDelta(positions=tuple(int(p) for p in positions)))

    # -- solving --------------------------------------------------------------

    def solve(self, method: str | None = None, options: dict | None = None):
        """Solve the current head; returns a ``SolveOutcome``.

        Answered from the engine's cache when the head's composed
        fingerprint was solved before, solved cold otherwise.
        """
        request = SynthesisRequest(
            self._problem,
            method or self.method,
            dict(options if options is not None else self.options),
        )
        outcome = self.engine.solve_batch([request])[0]
        self.history.append(
            SessionStep(
                step=len(self.history),
                edits=self._pending_edits,
                fingerprint=outcome.fingerprint,
                cache_hit=outcome.cache_hit,
                error=int(outcome.result.error),
                wall_time=outcome.wall_time,
            )
        )
        self._pending_edits = 0
        return outcome

    def cell_error_bounds(self, cells):
        """Batched cell-error bounds on the head (see
        :func:`~repro.core.cells.cell_error_bounds_many`)."""
        return cell_error_bounds_many(self._problem, cells)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form of the session: base problem + the delta chain."""
        return {
            "base": self._base.to_dict(),
            "deltas": [delta.to_dict() for delta in self._deltas],
            "method": self.method,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict, engine) -> "SynthesisSession":
        """Replay a serialized session (inverse of :meth:`to_dict`).

        The delta chain is re-applied through ``apply_delta``, so the
        resumed head's composed fingerprint equals the original's and its
        next solve dedupes against the cache entries the original populated.
        Keys it does not read are ignored, so older exports still resume.
        """
        session = cls(
            engine,
            RankingProblem.from_dict(data["base"]),
            method=data.get("method", "symgd"),
            options=dict(data.get("options") or {}),
        )
        deltas = deltas_from_dicts(data.get("deltas") or [])
        if deltas:
            session.edit(*deltas)
        return session

    def __repr__(self) -> str:
        return (
            f"SynthesisSession(method={self.method!r}, edits={len(self._deltas)}, "
            f"solves={len(self.history)})"
        )
