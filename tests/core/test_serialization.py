"""Round-trip serialization of problems, results, cells, and solver options."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cells import Cell, cell_around
from repro.core.constraints import (
    ConstraintSet,
    PositionRangeConstraint,
    PrecedenceConstraint,
    group_weight_bound,
    min_weight,
)
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.result import SynthesisResult, jsonable
from repro.core.symgd import SymGD, SymGDOptions
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.data.synthetic import generate_uniform


def round_trip(data):
    """Force an actual JSON encode/decode, not just a dict copy."""
    return json.loads(json.dumps(data))


def build_problem() -> RankingProblem:
    relation = generate_uniform(25, 3, seed=3)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    constraints = (
        ConstraintSet()
        .add(min_weight("A1", 0.1))
        .add(group_weight_bound(["A2", "A3"], "<=", 0.8))
        .add(PrecedenceConstraint(above=int(np.argmax(scores)), below=0))
    )
    return RankingProblem(
        relation,
        ranking_from_scores(scores, k=5),
        constraints=constraints,
        tolerances=ToleranceSettings(tie_eps=1e-4, eps1=2e-4, eps2=0.0),
    )


def test_relation_round_trip():
    relation = Relation(
        {"A1": [1.0, 2.0], "A2": [3, 4], "name": np.array(["x", "y"])},
        key="name",
    )
    rebuilt = Relation.from_dict(round_trip(relation.to_dict()))
    assert rebuilt.attribute_names == relation.attribute_names
    assert rebuilt.key == "name"
    assert np.allclose(rebuilt.matrix(["A1", "A2"]), relation.matrix(["A1", "A2"]))
    assert list(rebuilt.column("name")) == ["x", "y"]


def test_constraint_set_round_trip():
    constraints = (
        ConstraintSet()
        .add(min_weight("A1", 0.1))
        .add(PositionRangeConstraint(tuple_index=2, min_position=1, max_position=3))
        .add(PrecedenceConstraint(above=1, below=2))
    )
    rebuilt = ConstraintSet.from_dict(round_trip(constraints.to_dict()))
    assert len(rebuilt) == len(constraints)
    assert rebuilt.weight_constraints[0] == constraints.weight_constraints[0]
    assert rebuilt.position_constraints[0] == constraints.position_constraints[0]
    assert rebuilt.precedence_constraints[0] == constraints.precedence_constraints[0]


def test_problem_round_trip_preserves_solve_semantics():
    problem = build_problem()
    rebuilt = RankingProblem.from_dict(round_trip(problem.to_dict()))
    assert np.allclose(rebuilt.matrix, problem.matrix)
    assert np.array_equal(rebuilt.ranking.positions, problem.ranking.positions)
    assert rebuilt.attributes == problem.attributes
    assert rebuilt.tolerances == problem.tolerances
    assert len(rebuilt.constraints) == len(problem.constraints)
    weights = np.asarray([0.4, 0.35, 0.25])
    assert rebuilt.error_of(weights) == problem.error_of(weights)
    assert rebuilt.weights_feasible(weights) == problem.weights_feasible(weights)


def test_synthesis_result_round_trip_with_ndarray_diagnostics():
    problem = build_problem()
    options = SymGDOptions(
        max_iterations=3,
        solver_options=RankHowOptions(
            node_limit=50, verify=False, warm_start_strategy="none"
        ),
    )
    result = SymGD(options).solve(problem)
    # SYM-GD stuffs an ndarray seed and tuple trajectory into diagnostics;
    # both must survive the JSON round trip as lists.
    assert isinstance(result.diagnostics["seed"], np.ndarray)
    rebuilt = SynthesisResult.from_dict(round_trip(result.to_dict()))
    assert rebuilt.error == result.error
    assert rebuilt.method == result.method
    assert isinstance(rebuilt.weights, np.ndarray)
    assert np.allclose(rebuilt.weights, result.weights)
    assert rebuilt.diagnostics["seed"] == list(result.diagnostics["seed"])
    assert rebuilt.verified == result.verified
    assert rebuilt.scoring_function.describe() == result.scoring_function.describe()


def test_rankhow_result_round_trip():
    problem = build_problem()
    result = RankHow(RankHowOptions(node_limit=60, time_limit=5.0)).solve(problem)
    rebuilt = SynthesisResult.from_dict(round_trip(result.to_dict()))
    assert rebuilt.error == result.error
    assert rebuilt.optimal == result.optimal
    assert rebuilt.nodes == result.nodes


def test_cell_round_trip():
    cell = cell_around(np.asarray([0.4, 0.3, 0.3]), 0.25)
    rebuilt = Cell.from_dict(round_trip(cell.to_dict()))
    assert np.allclose(rebuilt.lower, cell.lower)
    assert np.allclose(rebuilt.upper, cell.upper)


def test_options_round_trips():
    rankhow = RankHowOptions(
        time_limit=3.5,
        node_limit=123,
        error_weights={0: 2.0, 4: 0.5},
    )
    rebuilt = RankHowOptions.from_dict(round_trip(rankhow.to_dict()))
    assert rebuilt == rankhow

    symgd = SymGDOptions(
        cell_size=0.05,
        adaptive=True,
        seed_point=np.asarray([0.2, 0.3, 0.5]),
        solver_options=rankhow,
    )
    rebuilt = SymGDOptions.from_dict(round_trip(symgd.to_dict()))
    assert rebuilt.cell_size == symgd.cell_size
    assert rebuilt.adaptive == symgd.adaptive
    assert np.allclose(rebuilt.seed_point, symgd.seed_point)
    assert rebuilt.solver_options == symgd.solver_options

    defaults = SymGDOptions.from_dict({})
    assert defaults.solver_options.node_limit == 2000
    assert not defaults.solver_options.verify


def test_jsonable_sanitizes_numpy_types():
    value = jsonable(
        {
            "array": np.asarray([1.0, 2.0]),
            "scalar": np.int64(3),
            "nested": [(1, 2), {"x": np.float64(0.5)}],
        }
    )
    assert value == {"array": [1.0, 2.0], "scalar": 3, "nested": [[1, 2], {"x": 0.5}]}
    json.dumps(value)


def test_tolerance_settings_validation_on_from_dict():
    with pytest.raises(ValueError):
        ToleranceSettings.from_dict({"tie_eps": 1e-5, "eps1": 0.0, "eps2": 0.0})
