"""Tests for linear scoring functions and eps-tolerant induced rankings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import LinearScoringFunction, induced_ranks, normalize_weights


def test_normalize_weights():
    assert normalize_weights([2.0, 2.0]).tolist() == [0.5, 0.5]
    assert normalize_weights([1.0, -1e-12, 3.0]).sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize_weights([0.0, 0.0])


def test_induced_ranks_matches_definition_2():
    scores = np.array([9.0, 6.0, 6.0, 5.0])
    assert induced_ranks(scores).tolist() == [1, 2, 2, 4]
    # Paper example with eps = 0.3.
    assert induced_ranks(np.array([2.2, 2.1, 2.0, 1.5]), 0.3).tolist() == [1, 1, 1, 4]
    assert induced_ranks(np.array([])).tolist() == []
    with pytest.raises(ValueError):
        induced_ranks(scores, tie_eps=-0.5)


def test_construction_and_normalization():
    function = LinearScoringFunction([2.0, 6.0], ["a", "b"])
    assert function.weights.tolist() == [0.25, 0.75]
    assert function.attributes == ["a", "b"]
    assert function.num_attributes == 2
    assert function.weight_of("b") == pytest.approx(0.75)
    with pytest.raises(KeyError):
        function.weight_of("missing")
    with pytest.raises(ValueError):
        LinearScoringFunction([1.0], ["a", "b"])
    with pytest.raises(ValueError):
        LinearScoringFunction([-1.0, 2.0], ["a", "b"])  # negative + normalize


def test_negative_weights_allowed_without_normalization():
    function = LinearScoringFunction([-0.5, 1.0], ["a", "b"], normalize=False)
    assert function.weights.tolist() == [-0.5, 1.0]
    assert "b" in function.describe()


def test_scores_and_ranking():
    function = LinearScoringFunction([0.5, 0.5], ["a", "b"])
    matrix = np.array([[4.0, 2.0], [1.0, 1.0], [3.0, 3.0]])
    assert function.scores(matrix).tolist() == [3.0, 1.0, 3.0]
    assert function.induced_positions(matrix).tolist() == [1, 3, 1]
    assert set(function.top_k_indices(matrix, 2).tolist()) == {0, 2}
    with pytest.raises(ValueError):
        function.scores(np.ones((2, 3)))


def test_score_relation_by_attribute_name():
    from repro.data.relation import Relation

    relation = Relation.from_rows([(1.0, 10.0), (2.0, 0.0)], ["a", "b"])
    function = LinearScoringFunction([1.0, 0.0], ["b", "a"])
    # Attributes are matched by name, not by column position.
    assert function.score_relation(relation).tolist() == [10.0, 0.0]


def test_describe_matches_paper_style():
    function = LinearScoringFunction([0.02, 0.14, 0.84], ["REB", "AST", "BLK"])
    text = function.describe(precision=2)
    assert "0.02*REB" in text and "0.84*BLK" in text
    sparse = LinearScoringFunction([1.0, 0.0], ["a", "b"])
    assert "b" not in sparse.describe()


def test_equality():
    a = LinearScoringFunction([0.5, 0.5], ["x", "y"])
    b = LinearScoringFunction([1.0, 1.0], ["x", "y"])
    c = LinearScoringFunction([0.4, 0.6], ["x", "y"])
    assert a == b
    assert a != c
    assert a != 42


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=5),
)
def test_induced_ranks_invariants(seed, n, m):
    """Ranks are a valid competition ranking: min is 1, counts are consistent."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(size=(n, m))
    weights = rng.dirichlet(np.ones(m))
    function = LinearScoringFunction(weights, [f"A{j}" for j in range(m)])
    ranks = function.induced_positions(matrix)
    assert ranks.min() == 1
    scores = function.scores(matrix)
    for r in range(n):
        assert ranks[r] == 1 + int(np.sum(scores > scores[r]))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scaling_scores_does_not_change_ranking_without_eps(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=20)
    assert np.array_equal(induced_ranks(scores), induced_ranks(scores * 7.3))
