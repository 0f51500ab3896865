"""Safety tests for rank-dominance tuple pruning (:mod:`repro.core.prune`).

RankHow prunes every problem it solves; the prune is a presolve, never a
semantic fork.  The battery asserts, in order of strength:

* **error invariance** -- any weight vector's position error is unchanged
  by the prune (the criterion's semantic guarantee);
* **formulation identity** -- under the default dominance elimination the
  pruned MILP is the full MILP (same variables, bounds, objective, rows),
  on the whole simplex, in SYM-GD cells and with per-tuple error weights,
  and without elimination it is strictly smaller;
* **bitwise solve parity** -- RankHow and SYM-GD return bit-identical
  weights/errors/node counts with the prune step as shipped and with it
  stubbed out, across every scenario family, under default seeding;
* **adversarial margins** -- tuples at or inside the float-safety margin
  of the dominance band are never pruned;
* **protection, lifetime and staleness** -- constraint-referenced tuples
  survive, a solve leaves no pruned copy behind on the caller's problem,
  and edited (delta-built) problems are pruned over their own tuples.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import rankhow as rankhow_module
from repro.core.cells import cell_around
from repro.core.constraints import (
    ConstraintSet,
    PositionRangeConstraint,
    PrecedenceConstraint,
)
from repro.core.delta import AddTuplesDelta, DropTuplesDelta
from repro.core.formulation import RankHowFormulation
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.prune import PruneInfo, prune_problem, prune_threshold
from repro.core.ranking import Ranking
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.seeds import get_seed_strategy
from repro.core.symgd import SymGD, SymGDOptions
from repro.data.relation import Relation
from repro.scenarios import generate_one, list_families
from repro.testing import model_differences

SEED = 20260730


def _problem(matrix, ranked_count, tolerances=None, constraints=None):
    """A problem from a raw matrix ranking the first ``ranked_count`` rows."""
    matrix = np.asarray(matrix, dtype=float)
    names = [f"A{j + 1}" for j in range(matrix.shape[1])]
    relation = Relation.from_matrix(matrix, names)
    ranking = Ranking.from_ordered_indices(
        list(range(ranked_count)), matrix.shape[0]
    )
    return RankingProblem(
        relation,
        ranking,
        constraints=constraints,
        tolerances=tolerances,
    )


# -- semantic guarantee -------------------------------------------------------------


@pytest.mark.parametrize("family", list_families())
def test_error_invariant_under_any_weights(family):
    """Pruning never changes any simplex weight vector's position error."""
    problem = generate_one(family, 0, SEED).problem
    info = prune_problem(problem)
    rng = np.random.default_rng(7)
    m = problem.num_attributes
    weights = rng.dirichlet(np.ones(m), size=25)
    corners = np.eye(m)
    for w in np.vstack([weights, corners, np.full((1, m), 1.0 / m)]):
        assert problem.error_of(w) == info.problem.error_of(w)


# -- formulation identity -----------------------------------------------------------


def _correlated_problem(n=300, m=4, k=8, seed=3):
    rng = np.random.default_rng(seed)
    quality = rng.uniform(0.0, 1.0, size=(n, 1))
    noise = rng.uniform(0.0, 1.0, size=(n, m))
    matrix = np.clip(0.85 * quality + 0.15 * noise, 0.0, 1.0)
    order = np.argsort(-matrix.sum(axis=1))[:k]
    names = [f"A{j + 1}" for j in range(m)]
    relation = Relation.from_matrix(matrix, names)
    ranking = Ranking.from_ordered_indices(list(order), n)
    return RankingProblem(relation, ranking)


def _assert_same_model(problem, info, cell_bounds=None, error_weights=None):
    full = RankHowFormulation(
        problem, cell_bounds=cell_bounds, error_weights=error_weights
    )
    pruned = RankHowFormulation(
        info.problem,
        cell_bounds=cell_bounds,
        error_weights=None if error_weights is None else info.reindex(error_weights),
    )
    assert full.num_indicator_variables == pruned.num_indicator_variables
    # The whole model: variables, objective, plain rows, indicator rows and
    # big-Ms.
    assert model_differences(full.model, pruned.model) == []
    assert full.model.rows.is_indicator.sum() == 2 * full.num_indicator_variables


def test_pruned_milp_identical_under_dominance_elimination():
    """With elimination on, pruning removes no variables -- only scan work."""
    problem = _correlated_problem()
    info = prune_problem(problem)
    assert info.num_pruned > 0, "fixture must actually prune"
    _assert_same_model(problem, info)

    pruning = 0
    for family in list_families():
        problem = generate_one(family, 0, SEED).problem
        info = prune_problem(problem)
        pruning += info.num_pruned > 0
        seed = get_seed_strategy("ordinal_regression")(problem)
        ranked = problem.top_k_indices()
        error_weights = {
            int(r): float(position) for position, r in enumerate(ranked, start=1)
        }
        _assert_same_model(problem, info)
        _assert_same_model(problem, info, cell_around(seed, 0.1).bounds())
        _assert_same_model(problem, info, error_weights=error_weights)
    assert pruning >= 5, "most families must actually prune"


def test_prune_shrinks_naive_formulation():
    """Without elimination the pruned MILP is strictly smaller (the win)."""
    problem = _correlated_problem()
    info = prune_problem(problem)
    full = RankHowFormulation(problem, eliminate_dominated=False)
    pruned = RankHowFormulation(info.problem, eliminate_dominated=False)
    assert pruned.num_indicator_variables < full.num_indicator_variables
    assert pruned.model.num_vars < full.model.num_vars
    # The reduction tracks the prune ratio: k ranked tuples each lose their
    # indicator pair against every pruned tuple.
    k = problem.k
    assert full.num_indicator_variables - pruned.num_indicator_variables == (
        k * info.num_pruned
    )


# -- bitwise solve parity -----------------------------------------------------------


def _no_prune(problem):
    n = problem.num_tuples
    return PruneInfo(
        problem=problem,
        kept=np.arange(n),
        pruned=np.zeros(0, dtype=int),
        original_n=n,
    )


def _assert_same_answer(on, off):
    assert int(on.error) == int(off.error)
    assert np.asarray(on.weights, dtype=float).tobytes() == (
        np.asarray(off.weights, dtype=float).tobytes()
    )
    assert on.nodes == off.nodes
    assert on.optimal == off.optimal


@pytest.mark.parametrize("family", list_families())
def test_rankhow_bitwise_parity_all_families(family, monkeypatch):
    """RankHow's prune step on vs. stubbed out: identical answer and search.

    Default seeding: the warm start is computed before the prune, so even
    the SYM-GD warm start (which reads unranked tuples) sees the full
    problem.
    """
    problem = generate_one(family, 0, SEED).problem
    options = RankHowOptions(node_limit=150)
    on = RankHow(options).solve(problem)
    monkeypatch.setattr(rankhow_module, "prune_problem", _no_prune)
    off = RankHow(options).solve(problem)
    _assert_same_answer(on, off)
    assert on.verified == off.verified
    assert on.diagnostics["pruned_tuples"] == prune_problem(problem).num_pruned
    assert off.diagnostics["pruned_tuples"] == 0


@pytest.mark.parametrize("family", ("tied_scores", "heavy_tail", "large_k"))
def test_symgd_bitwise_parity(family, monkeypatch):
    """SYM-GD, whose cell solves prune, follows the unpruned descent exactly."""
    problem = generate_one(family, 0, SEED).problem
    options = SymGDOptions(
        cell_size=0.25,
        max_iterations=5,
        solver_options=RankHowOptions(
            node_limit=60, verify=False, warm_start_strategy="none"
        ),
    )
    on = SymGD(options).solve(problem)
    monkeypatch.setattr(rankhow_module, "prune_problem", _no_prune)
    off = SymGD(options).solve(problem)
    _assert_same_answer(on, off)
    assert on.iterations == off.iterations
    # The engine's pruned-tuples counter reads these cell-solve diagnostics.
    assert on.diagnostics["pruned_tuples"] == prune_problem(problem).num_pruned


def test_error_weights_follow_the_kept_tuples():
    """Per-tuple error weights are renumbered with the pruned tuples.

    Tuple 0 is prunable and every other index shifts down by one in the
    pruned problem; weights keyed by the caller's indices must still weigh
    the caller's tuples, so RankHow returns the full model's optimum.
    """
    matrix = [[0.0, 0.0], [0.74, 0.25], [0.22, 0.67], [0.49, 0.59], [0.65, 0.35]]
    relation = Relation.from_matrix(np.array(matrix), ["A1", "A2"])
    problem = RankingProblem(relation, Ranking.from_ordered_indices([1, 2, 3], 5))
    assert prune_problem(problem).pruned.tolist() == [0]
    options = RankHowOptions(
        node_limit=1000,
        verify=False,
        warm_start_strategy="uniform",
        error_weights={1: 100.0, 2: 1.0, 3: 1.0},
    )
    result = RankHow(options).solve(problem)
    assert result.optimal
    assert result.objective == 2.0
    assert result.error == 2


# -- criterion edges ----------------------------------------------------------------


def test_no_op_when_every_tuple_is_ranked():
    matrix = np.array([[0.9, 0.8], [0.7, 0.6], [0.2, 0.1]])
    all_ranked = _problem(matrix, 3)
    info = prune_problem(all_ranked)
    assert info.problem is all_ranked and info.num_pruned == 0


def test_nothing_prunable_returns_the_same_instance():
    # The unranked tuple beats the ranked minimum in one attribute.
    matrix = np.array([[0.9, 0.2], [0.1, 0.95]])
    problem = _problem(matrix, 1)
    info = prune_problem(problem)
    assert info.problem is problem and info.num_pruned == 0


def test_near_band_tuples_survive_the_margin():
    """Tuples at or inside the dominance band's float margin are kept."""
    tolerances = ToleranceSettings(tie_eps=1e-4, eps1=2e-4, eps2=1e-4)
    thr = min(tolerances.eps2, tolerances.tie_eps)
    ranked = [[0.8, 0.7], [0.9, 0.75]]
    floor = np.array([0.8, 0.7])  # componentwise min over ranked tuples
    rows = ranked + [
        list(floor + thr),  # exactly on the band edge: margin must keep it
        list(floor + thr / 2),  # strictly inside the band: pruned
        list(floor),  # at the floor (difference 0 < thr_eff): pruned
        list(floor - 0.1),  # comfortably dominated: pruned
    ]
    problem = _problem(rows, 2, tolerances=tolerances)
    info = prune_problem(problem)
    assert info.threshold < thr  # margin strictly tightens the band
    assert sorted(info.pruned.tolist()) == [3, 4, 5]
    assert 2 in info.kept

    # With the paper-default eps2 = 0 the band is empty: a tuple exactly at
    # the floor must survive (thr_eff < 0), only strictly-below ones go.
    default = _problem(
        ranked + [list(floor), list(floor - 1e-6)], 2
    )
    info = prune_problem(default)
    assert info.pruned.tolist() == [3]


def test_constraint_referenced_tuples_are_protected():
    matrix = np.array(
        [[0.9, 0.9], [0.8, 0.85], [0.2, 0.2], [0.1, 0.15], [0.05, 0.1]]
    )
    constraints = ConstraintSet(
        [],
        [PositionRangeConstraint(1, 1, 3)],
        [PrecedenceConstraint(0, 3)],
    )
    problem = _problem(matrix, 2, constraints=constraints)
    info = prune_problem(problem)
    # Tuple 3 is dominated but precedence-referenced; 2 and 4 may go.
    assert info.pruned.tolist() == [2, 4]
    new_constraints = info.problem.constraints
    assert new_constraints.position_constraints[0].tuple_index == 1
    assert new_constraints.precedence_constraints[0].above == 0
    assert new_constraints.precedence_constraints[0].below == 2  # 3 shifted


def test_prune_threshold_uses_the_matrix_dtype():
    problem = _correlated_problem(n=50, m=3, k=4)
    thr64 = prune_threshold(problem)
    thr32 = prune_threshold(
        RankingProblem(
            problem.relation.astype(np.float32),
            Ranking(problem.ranking.positions),
        )
    )
    # float32 spacing is coarser, so the float32 margin is strictly wider.
    assert thr32 < thr64 <= min(
        problem.tolerances.eps2, problem.tolerances.tie_eps
    )


# -- lifetime and staleness ------------------------------------------------------


def test_solve_keeps_no_pruned_copy_on_the_problem(monkeypatch):
    """The pruned copy lives only as long as the solve that made it."""
    problem = _correlated_problem()
    copies = []

    def recording_prune(target):
        info = prune_problem(target)
        copies.append(weakref.ref(info.problem))
        return info

    monkeypatch.setattr(rankhow_module, "prune_problem", recording_prune)
    result = RankHow(
        RankHowOptions(node_limit=50, verify=False, warm_start_strategy="uniform")
    ).solve(problem)
    assert result.diagnostics["pruned_tuples"] > 0
    gc.collect()
    assert len(copies) == 1 and copies[0]() is None
    assert not any(
        isinstance(value, (PruneInfo, RankingProblem)) for value in vars(problem).values()
    )


def test_deltas_never_see_a_stale_prune():
    """Edited problems are pruned over their own tuples."""
    problem = _correlated_problem(n=120, m=3, k=5)
    info = prune_problem(problem)
    assert info.num_pruned > 0

    # Append an unranked tuple that beats every ranked one: it must survive
    # the edited problem's prune even though the original was pruned first.
    columns = {name: (1.0,) for name in problem.relation.attribute_names}
    edited = AddTuplesDelta(columns=columns).apply(problem)
    edited_info = prune_problem(edited)
    new_index = edited.num_tuples - 1
    assert new_index in edited_info.kept
    assert new_index not in edited_info.pruned

    # Dropping tuples likewise rebuilds: the new prune is over the new data.
    dropped = DropTuplesDelta(indices=(int(info.pruned[0]),)).apply(problem)
    dropped_info = prune_problem(dropped)
    assert dropped_info.original_n == problem.num_tuples - 1


def test_prune_ratio_and_diagnostics_shape():
    problem = _correlated_problem()
    info = prune_problem(problem)
    assert 0.0 < info.ratio < 1.0
    assert info.num_pruned + info.kept.shape[0] == info.original_n
    result = RankHow(
        RankHowOptions(node_limit=150, verify=False, warm_start_strategy="uniform")
    ).solve(problem)
    assert result.diagnostics["pruned_tuples"] == info.num_pruned
    assert result.diagnostics["prune_original_n"] == info.original_n
    assert result.diagnostics["prune_ratio"] == pytest.approx(info.ratio)
