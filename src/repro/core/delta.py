"""First-class problem edits: :class:`ProblemDelta` and its concrete kinds.

RankHow's headline use case is interactive: an analyst tweaks the given
ranking, drops a tuple, re-weights an attribute column, or tightens the
tolerance and expects a fresh weight vector immediately.  A
:class:`ProblemDelta` captures one such edit as a small, serializable value
object that every layer of the stack understands:

* the **data layer** applies it through :class:`~repro.data.relation.Relation`'s
  structural-sharing edit constructors,
* the **core layer** turns ``parent.apply_delta(delta)`` into a new
  :class:`~repro.core.problem.RankingProblem` whose fingerprint is *composed*
  from the parent's digest and the delta's digest (no re-hash of the full
  attribute matrix, and equal edit chains dedupe byte-for-byte),
* the **engine** answers a revisited edit state from its cache, because the
  composed fingerprint of an equal chain is equal (exact hit, else cold),
* the **api/service layers** ship deltas over the wire
  (``base_fingerprint`` + ``deltas`` on a request, stateful server sessions).

Every delta is a pure function of the parent problem: ``apply`` never mutates
its input (relations and problems are enforced-immutable) and two
applications of the same delta to the same parent produce identical content.
The pure whole-problem transforms that :mod:`repro.scenarios` replays
(:func:`permute_problem`, :func:`rescale_problem_by`) live here too, so the
scenario generator and the metamorphic invariants share one implementation.
"""

from __future__ import annotations

import abc
import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.constraints import (
    ConstraintSet,
    PositionRangeConstraint,
    PrecedenceConstraint,
)
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.ranking import Ranking
from repro.data.relation import Relation

__all__ = [
    "ProblemDelta",
    "AddTuplesDelta",
    "DropTuplesDelta",
    "ReweightDelta",
    "RescaleDelta",
    "PermuteTuplesDelta",
    "ToleranceDelta",
    "ConstraintDelta",
    "RerankDelta",
    "delta_from_dict",
    "deltas_from_dicts",
    "compose_fingerprints",
    "permute_problem",
    "rescale_problem_by",
]


def _canonical_json(value) -> str:
    """Deterministic JSON encoding of a delta payload (sorted, sanitized)."""
    # Local import: repro.core.result owns the jsonable sanitizer; delta
    # payloads may carry numpy scalars from callers that built them from
    # array slices.
    from repro.core.result import jsonable

    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def compose_fingerprints(parent_fingerprint: str, delta_fingerprint: str) -> str:
    """Digest of "the problem addressed by ``parent`` after this delta".

    The composed digest is a sound cache key: the parent fingerprint
    determines the parent's content and the delta fingerprint determines the
    transformation, so together they determine the child's content -- without
    re-hashing the child's full attribute matrix.  Equal edit chains applied
    to equal parents therefore collide (dedupe) by construction.  The
    ``delta:`` domain prefix keeps composed digests disjoint from the
    content digests of cold-built problems.
    """
    h = hashlib.sha256()
    h.update(b"delta:")
    h.update(parent_fingerprint.encode())
    h.update(b"+")
    h.update(delta_fingerprint.encode())
    return h.hexdigest()


#: Registry of wire ``kind`` tags -> delta classes (see :func:`delta_from_dict`).
_DELTA_KINDS: dict[str, type] = {}


def _register_delta(cls):
    _DELTA_KINDS[cls.kind] = cls
    return cls


class ProblemDelta(abc.ABC):
    """One edit of a :class:`RankingProblem`, as a serializable value object.

    Subclasses define a ``kind`` tag (the wire discriminator), the payload
    fields, and :meth:`apply`.  Deltas are immutable dataclasses: equality is
    structural and :meth:`fingerprint` is a content digest, so the same edit
    expressed twice addresses the same cache entries.
    """

    #: Wire discriminator; unique per concrete class.
    kind: str = ""

    #: Whether applying this delta can change the ``(n, m)`` ranking-attribute
    #: matrix.  ``apply_delta`` shares the parent's memoized matrix with the
    #: child when it cannot.
    preserves_matrix: bool = False

    @abc.abstractmethod
    def apply(self, problem: RankingProblem) -> RankingProblem:
        """Pure application: a new problem, the parent untouched."""

    def payload(self) -> dict:
        """Wire-format fields (everything except the ``kind`` tag)."""
        return {
            f.name: _wire_value(getattr(self, f.name)) for f in fields(self)
        }

    def to_dict(self) -> dict:
        """JSON-serializable representation (inverse: :func:`delta_from_dict`)."""
        return {"kind": self.kind, **self.payload()}

    def fingerprint(self) -> str:
        """SHA-256 content digest of this delta (kind + canonical payload)."""
        h = hashlib.sha256()
        h.update(b"problem-delta:")
        h.update(self.kind.encode())
        h.update(b":")
        h.update(_canonical_json(self.payload()).encode())
        return h.hexdigest()

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ProblemDelta":
        """Rebuild from wire payload; concrete classes override as needed."""
        return cls(**payload)

    def describe(self) -> str:
        """One-line human-readable summary (session logs, CLI demos)."""
        return f"{self.kind}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _wire_value(value):
    """Payload values as plain JSON types (arrays/tuples become lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_wire_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _wire_value(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _columns_payload(columns: Mapping[str, Sequence]) -> dict:
    """Normalize a per-column mapping to ``{name: tuple(values)}``."""
    normalized = {}
    for name, values in columns.items():
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"column {name!r} must be one-dimensional")
        normalized[str(name)] = tuple(array.tolist())
    return normalized


# -- concrete deltas ----------------------------------------------------------------


@_register_delta
@dataclass(frozen=True)
class AddTuplesDelta(ProblemDelta):
    """Append tuples to the relation (and their given positions, if ranked).

    Attributes:
        columns: Per-column values of the new rows; every column of the
            relation must be present and all value lists equal-length.
        positions: Given-ranking position of each appended tuple
            (:data:`~repro.core.ranking.UNRANKED` = 0 for "not ranked", the
            common case of adding candidate tuples).  Omitted positions
            default to unranked.
    """

    kind = "add_tuples"
    columns: Mapping[str, tuple] = field(default_factory=dict)
    positions: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", _columns_payload(self.columns))
        lengths = {len(v) for v in self.columns.values()}
        if not self.columns or lengths == {0}:
            raise ValueError("add_tuples needs at least one new row")
        if len(lengths) != 1:
            raise ValueError("all columns must add the same number of rows")
        count = lengths.pop()
        positions = tuple(int(p) for p in self.positions)
        if not positions:
            positions = (0,) * count
        if len(positions) != count:
            raise ValueError(
                f"positions has {len(positions)} entries for {count} new rows"
            )
        object.__setattr__(self, "positions", positions)

    def apply(self, problem: RankingProblem) -> RankingProblem:
        relation = problem.relation.with_rows(self.columns)
        positions = np.concatenate(
            [problem.ranking.positions, np.asarray(self.positions, dtype=int)]
        )
        return RankingProblem(
            relation,
            Ranking(positions),
            attributes=problem.attributes,
            constraints=problem.constraints.copy(),
            tolerances=problem.tolerances,
        )

    def describe(self) -> str:
        return f"add_tuples(+{len(self.positions)})"


@_register_delta
@dataclass(frozen=True)
class DropTuplesDelta(ProblemDelta):
    """Remove tuples by index; tuple-indexed constraints are remapped.

    Constraints that reference a dropped tuple are removed (matching
    ``scenarios.mutate(kind="drop_unranked")``); the surviving given
    positions are kept verbatim, so dropping a *ranked* tuple raises when
    the remaining ranking violates Definition 1 (no silent re-ranking).
    """

    kind = "drop_tuples"
    indices: tuple = ()

    def __post_init__(self) -> None:
        indices = tuple(sorted({int(i) for i in self.indices}))
        if not indices:
            raise ValueError("drop_tuples needs at least one index")
        object.__setattr__(self, "indices", indices)

    def apply(self, problem: RankingProblem) -> RankingProblem:
        n = problem.num_tuples
        dropped = np.asarray(self.indices, dtype=int)
        if dropped.min() < 0 or dropped.max() >= n:
            raise IndexError(f"drop index out of range for {n} tuples")
        drop_set = set(self.indices)
        keep = np.asarray([i for i in range(n) if i not in drop_set], dtype=int)
        if keep.size == 0:
            raise ValueError("cannot drop every tuple")

        def shift(index: int) -> int:
            return index - int(np.searchsorted(dropped, index))

        constraints = ConstraintSet(
            list(problem.constraints.weight_constraints),
            [
                PositionRangeConstraint(
                    shift(c.tuple_index), c.min_position, c.max_position
                )
                for c in problem.constraints.position_constraints
                if c.tuple_index not in drop_set
            ],
            [
                PrecedenceConstraint(shift(c.above), shift(c.below))
                for c in problem.constraints.precedence_constraints
                if c.above not in drop_set and c.below not in drop_set
            ],
        )
        return RankingProblem(
            problem.relation.take(keep),
            Ranking(problem.ranking.positions[keep]),
            attributes=problem.attributes,
            constraints=constraints,
            tolerances=problem.tolerances,
        )

    def describe(self) -> str:
        return f"drop_tuples({list(self.indices)})"


@_register_delta
@dataclass(frozen=True)
class ReweightDelta(ProblemDelta):
    """Replace the values of one or more columns (jitter, manual re-weighting).

    The given ranking, constraints, and tolerances are untouched; only the
    named columns' values change, so a previously perfect fit may become
    imperfect -- exactly the ``jitter`` mutation's semantics.
    """

    kind = "reweight"
    columns: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", _columns_payload(self.columns))
        if not self.columns:
            raise ValueError("reweight needs at least one column")

    def apply(self, problem: RankingProblem) -> RankingProblem:
        relation = problem.relation
        for name, values in self.columns.items():
            if name not in relation:
                raise KeyError(f"unknown column {name!r}")
            if len(values) != relation.num_tuples:
                raise ValueError(
                    f"column {name!r} has {len(values)} values for "
                    f"{relation.num_tuples} tuples"
                )
            relation = relation.with_column(name, np.asarray(values, dtype=float))
        return RankingProblem(
            relation,
            Ranking(problem.ranking.positions, validate=False),
            attributes=problem.attributes,
            constraints=problem.constraints.copy(),
            tolerances=problem.tolerances,
        )

    def describe(self) -> str:
        return f"reweight({sorted(self.columns)})"


@_register_delta
@dataclass(frozen=True)
class RescaleDelta(ProblemDelta):
    """Scale every ranking attribute AND the tolerances by one factor.

    Semantically neutral (scores scale uniformly), mirroring the ``rescale``
    mutation and the metamorphic rescaling invariant.
    """

    kind = "rescale"
    factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", float(self.factor))
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def apply(self, problem: RankingProblem) -> RankingProblem:
        return rescale_problem_by(problem, self.factor)

    def describe(self) -> str:
        return f"rescale(x{self.factor:g})"


@_register_delta
@dataclass(frozen=True)
class PermuteTuplesDelta(ProblemDelta):
    """Re-order the tuples; ranking and tuple-indexed constraints follow."""

    kind = "permute_tuples"
    order: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "order", tuple(int(i) for i in np.asarray(self.order).ravel())
        )
        if not self.order:
            raise ValueError("permute_tuples needs a non-empty order")

    def apply(self, problem: RankingProblem) -> RankingProblem:
        return permute_problem(problem, np.asarray(self.order, dtype=int))

    def describe(self) -> str:
        return f"permute_tuples(n={len(self.order)})"


@_register_delta
@dataclass(frozen=True)
class ToleranceDelta(ProblemDelta):
    """Replace the tie / indicator tolerances (e.g. tighten ``eps``)."""

    kind = "tolerance"
    preserves_matrix = True
    tie_eps: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self) -> None:
        # Validate eagerly: a session edit with inverted eps1/eps2 should
        # fail at edit time, not at the next solve.
        settings = ToleranceSettings(
            tie_eps=float(self.tie_eps), eps1=float(self.eps1), eps2=float(self.eps2)
        )
        object.__setattr__(self, "tie_eps", settings.tie_eps)
        object.__setattr__(self, "eps1", settings.eps1)
        object.__setattr__(self, "eps2", settings.eps2)

    @classmethod
    def from_settings(cls, tolerances: ToleranceSettings) -> "ToleranceDelta":
        return cls(
            tie_eps=tolerances.tie_eps, eps1=tolerances.eps1, eps2=tolerances.eps2
        )

    def apply(self, problem: RankingProblem) -> RankingProblem:
        return problem.with_tolerances(
            ToleranceSettings(tie_eps=self.tie_eps, eps1=self.eps1, eps2=self.eps2)
        )

    def describe(self) -> str:
        return f"tolerance(eps={self.tie_eps:g})"


@_register_delta
@dataclass(frozen=True)
class ConstraintDelta(ProblemDelta):
    """Add and/or remove constraints (both sides in ConstraintSet wire form).

    ``remove`` entries are matched structurally against the problem's current
    constraints; removing a constraint that is not present raises (a session
    edit that silently removes nothing would be a confusing no-op).
    """

    kind = "constraints"
    preserves_matrix = True
    add: Mapping = field(default_factory=dict)
    remove: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        add = self.add.to_dict() if isinstance(self.add, ConstraintSet) else dict(self.add or {})
        remove = (
            self.remove.to_dict()
            if isinstance(self.remove, ConstraintSet)
            else dict(self.remove or {})
        )
        # Round-trip through the wire form for canonical payloads (and to
        # fail fast on malformed constraint dicts).
        add_set = ConstraintSet.from_dict(add)
        remove_set = ConstraintSet.from_dict(remove)
        if not len(add_set) and not len(remove_set):
            raise ValueError("constraints delta adds and removes nothing")
        object.__setattr__(self, "add", add_set.to_dict())
        object.__setattr__(self, "remove", remove_set.to_dict())

    def apply(self, problem: RankingProblem) -> RankingProblem:
        add_set = ConstraintSet.from_dict(self.add)
        remove_set = ConstraintSet.from_dict(self.remove)
        current = problem.constraints

        def prune(existing: list, to_remove: list, label: str) -> list:
            remaining = list(existing)
            for constraint in to_remove:
                try:
                    remaining.remove(constraint)
                except ValueError:
                    raise ValueError(
                        f"cannot remove {label} constraint {constraint!r}: "
                        "not present on the problem"
                    ) from None
            return remaining

        merged = ConstraintSet(
            prune(current.weight_constraints, remove_set.weight_constraints, "weight")
            + list(add_set.weight_constraints),
            prune(
                current.position_constraints,
                remove_set.position_constraints,
                "position",
            )
            + list(add_set.position_constraints),
            prune(
                current.precedence_constraints,
                remove_set.precedence_constraints,
                "precedence",
            )
            + list(add_set.precedence_constraints),
        )
        return problem.with_constraints(merged)

    def describe(self) -> str:
        add_n = sum(len(v) for v in self.add.values())
        remove_n = sum(len(v) for v in self.remove.values())
        return f"constraints(+{add_n}/-{remove_n})"


@_register_delta
@dataclass(frozen=True)
class RerankDelta(ProblemDelta):
    """Replace the given ranking ``pi`` (the analyst re-ordered the top-k)."""

    kind = "rerank"
    preserves_matrix = True
    positions: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "positions",
            tuple(int(p) for p in np.asarray(self.positions).ravel()),
        )
        if not self.positions:
            raise ValueError("rerank needs a positions vector")

    def apply(self, problem: RankingProblem) -> RankingProblem:
        if len(self.positions) != problem.num_tuples:
            raise ValueError(
                f"rerank has {len(self.positions)} positions for "
                f"{problem.num_tuples} tuples"
            )
        return RankingProblem(
            problem.relation,
            Ranking(np.asarray(self.positions, dtype=int)),
            attributes=problem.attributes,
            constraints=problem.constraints.copy(),
            tolerances=problem.tolerances,
        )

    def describe(self) -> str:
        k = sum(1 for p in self.positions if p != 0)
        return f"rerank(k={k})"


# -- wire dispatch ------------------------------------------------------------------


def delta_from_dict(data: Mapping) -> ProblemDelta:
    """Rebuild any registered delta from its wire dict (inverse of ``to_dict``)."""
    if isinstance(data, ProblemDelta):
        return data
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ValueError(f"delta dict needs a 'kind' tag, got {data!r}") from None
    try:
        cls = _DELTA_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown delta kind {kind!r}; registered kinds: "
            f"{sorted(_DELTA_KINDS)}"
        ) from None
    payload = {k: v for k, v in data.items() if k != "kind"}
    return cls.from_payload(payload)


def deltas_from_dicts(items: Sequence) -> list[ProblemDelta]:
    """Convenience: a whole wire chain back into delta objects."""
    return [delta_from_dict(item) for item in items]


# -- pure whole-problem transforms --------------------------------------------------


def permute_problem(problem: RankingProblem, order: np.ndarray) -> RankingProblem:
    """The same problem with its tuples re-ordered by ``order``.

    ``order[j]`` is the old index of the tuple placed at new position ``j``.
    The given ranking and every tuple-indexed constraint are remapped, so
    the transformed problem is semantically identical: any weight vector
    scores the permuted problem with exactly the same position error.
    """
    order = np.asarray(order, dtype=int)
    n = problem.num_tuples
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of range(num_tuples)")
    new_of_old = np.empty(n, dtype=int)
    new_of_old[order] = np.arange(n)

    relation = problem.relation.take(order)
    positions = problem.ranking.positions[order]
    constraints = ConstraintSet(
        list(problem.constraints.weight_constraints),
        [
            PositionRangeConstraint(
                int(new_of_old[c.tuple_index]), c.min_position, c.max_position
            )
            for c in problem.constraints.position_constraints
        ],
        [
            PrecedenceConstraint(int(new_of_old[c.above]), int(new_of_old[c.below]))
            for c in problem.constraints.precedence_constraints
        ],
    )
    return RankingProblem(
        relation,
        Ranking(positions),
        attributes=problem.attributes,
        constraints=constraints,
        tolerances=problem.tolerances,
    )


def rescale_problem_by(problem: RankingProblem, factor: float) -> RankingProblem:
    """Scale every ranking attribute AND the tolerances by ``factor``.

    Scores under any fixed weight vector scale by the same factor, so the
    induced ranking -- and therefore the position error -- is invariant.
    Powers of two make the float scaling exact (no rounding at tolerance
    boundaries); the metamorphic invariant uses those.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    columns = {
        name: problem.relation.column(name)
        for name in problem.relation.attribute_names
    }
    for name in problem.attributes:
        columns[name] = columns[name].astype(float) * factor
    relation = Relation(columns, key=problem.relation.key)
    tolerances = ToleranceSettings(
        tie_eps=problem.tolerances.tie_eps * factor,
        eps1=problem.tolerances.eps1 * factor,
        eps2=problem.tolerances.eps2 * factor,
    )
    return RankingProblem(
        relation,
        Ranking(problem.ranking.positions, validate=False),
        attributes=problem.attributes,
        constraints=problem.constraints.copy(),
        tolerances=tolerances,
    )
