"""Tests for RankingProblem and ToleranceSettings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import ConstraintSet, PositionRangeConstraint, PrecedenceConstraint, min_weight
from repro.core.metrics import position_error
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.ranking import UNRANKED, Ranking
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.data.synthetic import generate_uniform
from repro.scenarios import generate_one, list_families


def test_tolerance_settings_validation():
    ToleranceSettings(tie_eps=0.0, eps1=1e-6, eps2=0.0)
    with pytest.raises(ValueError):
        ToleranceSettings(tie_eps=-1.0)
    with pytest.raises(ValueError):
        ToleranceSettings(eps1=0.0, eps2=0.0)


def test_tolerance_settings_from_precision_matches_lemmas():
    settings = ToleranceSettings.from_precision(tie_eps=1e-3, tau=1e-5)
    # Lemma 3: eps2 = eps - tau; Lemma 2: eps1 - eps2 > 2 tau.
    assert settings.eps2 == pytest.approx(1e-3 - 1e-5)
    assert settings.eps1 - settings.eps2 > 2e-5
    with pytest.raises(ValueError):
        ToleranceSettings.from_precision(tie_eps=1e-3, tau=-1.0)
    with pytest.raises(ValueError):
        ToleranceSettings.from_precision(tie_eps=1e-3, tau=1e-5, tau_plus=1e-6)


def test_problem_construction_and_properties(linear_problem):
    assert linear_problem.num_tuples == 40
    assert linear_problem.num_attributes == 4
    assert linear_problem.k == 5
    assert linear_problem.matrix.shape == (40, 4)
    assert len(linear_problem.top_k_indices()) == 5
    assert "RankingProblem" in repr(linear_problem)


def test_problem_rejects_mismatched_sizes():
    relation = generate_uniform(10, 3, seed=0)
    ranking = Ranking([1, 2, 0, 0, 0])  # only 5 tuples
    with pytest.raises(ValueError):
        RankingProblem(relation, ranking)


def test_problem_rejects_unknown_constraint_attributes():
    relation = generate_uniform(10, 3, seed=0)
    ranking = ranking_from_scores(relation.matrix()[:, 0], k=3)
    constraints = ConstraintSet().add(min_weight("NOPE", 0.1))
    with pytest.raises(KeyError):
        RankingProblem(relation, ranking, constraints=constraints)


def test_problem_rejects_position_constraints_on_unranked_tuples():
    relation = generate_uniform(10, 3, seed=0)
    ranking = ranking_from_scores(relation.matrix()[:, 0], k=3)
    unranked = int(ranking.unranked_indices()[0])
    constraints = ConstraintSet().add(PositionRangeConstraint(unranked, 1, 2))
    with pytest.raises(ValueError):
        RankingProblem(relation, ranking, constraints=constraints)
    with pytest.raises(IndexError):
        RankingProblem(
            relation,
            ranking,
            constraints=ConstraintSet().add(PositionRangeConstraint(99, 1, 2)),
        )
    with pytest.raises(IndexError):
        RankingProblem(
            relation,
            ranking,
            constraints=ConstraintSet().add(PrecedenceConstraint(0, 99)),
        )


def test_error_of_and_scores(linear_problem):
    # The hidden weights reproduce the ranking exactly.
    hidden = np.array([0.4, 0.3, 0.2, 0.1])
    assert linear_problem.error_of(hidden) == 0
    # A clearly wrong weight vector has positive error.
    assert linear_problem.error_of(np.array([0.0, 0.0, 0.0, 1.0])) > 0
    scores = linear_problem.scores(hidden)
    assert scores.shape == (40,)
    with pytest.raises(ValueError):
        linear_problem.scores(np.array([1.0, 0.0]))


def test_weights_feasible(linear_problem):
    assert linear_problem.weights_feasible(np.array([0.25, 0.25, 0.25, 0.25]))
    assert not linear_problem.weights_feasible(np.array([0.5, 0.5, 0.5, 0.5]))
    assert not linear_problem.weights_feasible(np.array([1.2, -0.2, 0.0, 0.0]))
    assert not linear_problem.weights_feasible(np.array([1.0, 0.0]))
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A1", 0.5))
    )
    assert not constrained.weights_feasible(np.array([0.25, 0.25, 0.25, 0.25]))
    assert constrained.weights_feasible(np.array([0.7, 0.1, 0.1, 0.1]))


def test_with_constraints_and_with_tolerances_return_new_problems(linear_problem):
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A1", 0.1))
    )
    assert len(constrained.constraints) == 1
    assert len(linear_problem.constraints) == 0
    tolerant = linear_problem.with_tolerances(ToleranceSettings(tie_eps=0.1, eps1=0.2))
    assert tolerant.tolerances.tie_eps == 0.1
    # The original problem keeps the default settings.
    assert linear_problem.tolerances.tie_eps == pytest.approx(5e-6)


def test_restricted_to_positions():
    relation = generate_uniform(20, 3, seed=5)
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    ranking = ranking_from_scores(scores, k=10)
    problem = RankingProblem(relation, ranking)
    window = problem.restricted_to_positions(4, 7)
    assert window.k == 4
    # The tuple originally at position 4 is now at position 1.
    original_positions = ranking.positions
    index_at_4 = int(np.where(original_positions == 4)[0][0])
    assert window.ranking.position_of(index_at_4) == 1
    # Tuples outside the window are unranked.
    index_at_1 = int(np.where(original_positions == 1)[0][0])
    assert window.ranking.position_of(index_at_1) == UNRANKED
    with pytest.raises(ValueError):
        problem.restricted_to_positions(5, 4)
    with pytest.raises(ValueError):
        problem.restricted_to_positions(15, 20)


def test_scoring_function_wrapper(linear_problem):
    function = linear_problem.scoring_function(np.array([0.4, 0.3, 0.2, 0.1]))
    assert function.attributes == linear_problem.attributes
    assert function.weights == pytest.approx([0.4, 0.3, 0.2, 0.1])


def test_problem_requires_at_least_one_attribute():
    relation = Relation({"name": np.array(["x", "y"])})
    ranking = Ranking([1, 2])
    with pytest.raises(ValueError):
        RankingProblem(relation, ranking)


def _full_rank_error(problem, weights):
    return position_error(problem.ranking, problem.induced_positions(weights))


def test_error_of_matches_full_rank_reference(linear_problem):
    """The ranked-only evaluator equals the error of the full induced ranking."""
    rng = np.random.default_rng(9)
    problems = [linear_problem] + [
        generate_one(family, 0, 20260730).problem for family in list_families()
    ]
    for problem in problems:
        m = problem.num_attributes
        candidates = np.vstack(
            [rng.dirichlet(np.ones(m), size=20), np.eye(m), np.full((1, m), 1.0 / m)]
        )
        for weights in candidates:
            assert problem.error_of(weights) == _full_rank_error(problem, weights)


def test_error_of_ranks_float32_relations_like_induced_positions():
    """float32 scores are cast to float64 before the tie tolerance is added."""
    # 0.5 + 5e-6 rounds up to this float32, so the tuple beats the ranked
    # one by more than tie_eps in float64 but ties it in float32 arithmetic.
    rows = np.array([[0.5], [0.5000050067901611], [0.1]])
    problem = RankingProblem(
        Relation.from_matrix(rows, ["A"]).astype(np.float32),
        Ranking.from_ordered_indices([0], 3),
    )
    assert problem.matrix.dtype == np.float32
    assert problem.error_of(np.ones(1)) == _full_rank_error(problem, np.ones(1)) == 1

    family = generate_one("tied_scores", 0, 20260730).problem
    narrow = RankingProblem(
        family.relation.astype(np.float32),
        family.ranking,
        family.attributes,
        tolerances=family.tolerances,
    )
    rng = np.random.default_rng(4)
    for weights in rng.dirichlet(np.ones(narrow.num_attributes), size=30):
        assert narrow.error_of(weights) == _full_rank_error(narrow, weights)


def test_error_of_rejects_bad_shapes(linear_problem):
    with pytest.raises(ValueError):
        linear_problem.error_of(np.ones(linear_problem.num_attributes + 1))
    with pytest.raises(ValueError):
        linear_problem.error_of(np.ones((2, linear_problem.num_attributes)))


def test_fingerprint_is_memoized_and_content_addressed(linear_problem):
    first = linear_problem.fingerprint()
    assert linear_problem._fingerprint == first  # computed once, stored
    assert linear_problem.fingerprint() is first  # repeat returns the memo
    rebuilt = RankingProblem.from_dict(linear_problem.to_dict())
    assert rebuilt.fingerprint() == first  # content-addressed, not identity
