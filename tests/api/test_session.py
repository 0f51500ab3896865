"""Tests for SynthesisSession, delta wire fields, and rejected options."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.client import RankHowClient
from repro.api.request import SynthesisRequest
from repro.core.constraints import max_weight
from repro.core.delta import RescaleDelta, ToleranceDelta
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.rankhow import RankHowOptions
from repro.core.ranking import Ranking
from repro.data.relation import Relation

SYMGD_OPTS = {
    "cell_size": 0.25,
    "max_iterations": 4,
    "solver_options": {"node_limit": 40, "verify": False, "warm_start_strategy": "none"},
}


@pytest.fixture
def problem() -> RankingProblem:
    rng = np.random.default_rng(3)
    relation = Relation.from_matrix(rng.uniform(size=(12, 3)))
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    order = np.argsort(-scores)[:4]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, 12))


def tighten_delta(problem):
    t = problem.tolerances
    return ToleranceDelta(tie_eps=t.tie_eps / 2, eps1=t.eps1 / 2, eps2=t.eps2 / 2)


# -- the edit-solve-edit loop -------------------------------------------------------


def test_session_edit_solve_loop(problem):
    with RankHowClient() as client:
        session = client.session(problem, method="symgd", options=SYMGD_OPTS)
        first = session.solve()
        assert not first.cache_hit

        session.tighten_tolerance()
        second = session.solve()
        assert not second.cache_hit
        assert len(session) == 1

        # Re-solving the unchanged head is an exact cache hit.
        third = session.solve()
        assert third.cache_hit
        assert third.result.error == second.result.error

        assert [step.cache_hit for step in session.history] == [False, False, True]
        cache = client.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 2)


def test_session_convenience_edits_cover_every_kind(problem):
    with RankHowClient() as client:
        session = client.session(problem, method="linear_regression")
        session.reweight({"A1": np.linspace(0.1, 0.9, problem.num_tuples)})
        session.rescale(2.0)
        session.permute(np.arange(problem.num_tuples)[::-1])
        session.add_tuples({"A1": [0.5], "A2": [0.5], "A3": [0.5]})
        session.drop_tuples(problem.num_tuples)  # the tuple just added
        session.set_tolerances(ToleranceSettings(1e-6, 2e-6, 0.0))
        session.tighten_tolerance()
        session.add_constraints(max_weight("A1", 0.9))
        session.remove_constraints(max_weight("A1", 0.9))
        positions = session.problem.ranking.positions
        session.rerank(positions)
        assert len(session) == 10
        outcome = session.solve()
        assert outcome.result.error >= 0


def test_session_rewind_revisits_cached_state(problem):
    with RankHowClient() as client:
        session = client.session(problem, method="symgd", options=SYMGD_OPTS)
        base_outcome = session.solve()
        session.tighten_tolerance()
        session.solve()
        session.rescale(2.0)
        session.solve()

        session.rewind(2)
        assert len(session) == 0
        assert session.problem.fingerprint() == problem.fingerprint()
        again = session.solve()
        assert again.cache_hit
        assert again.fingerprint == base_outcome.fingerprint

        with pytest.raises(ValueError):
            session.rewind(5)


def test_session_serialization_resume_dedupes(problem):
    with RankHowClient() as client:
        session = client.session(problem, method="symgd", options=SYMGD_OPTS)
        session.edit(tighten_delta(problem), RescaleDelta(factor=2.0))
        original = session.solve()

        # A key an older export carried (and this version does not read)
        # must not stop the resume.
        resumed = client.resume_session({**session.to_dict(), "retired_flag": True})
        assert resumed.problem.fingerprint() == session.problem.fingerprint()
        replay = resumed.solve()
        assert replay.cache_hit
        assert replay.result.error == original.result.error
        assert np.array_equal(replay.result.weights, original.result.weights)


def test_session_validates_method_eagerly(problem):
    with RankHowClient() as client:
        with pytest.raises(ValueError):
            client.session(problem, method="no_such_method")
        with pytest.raises(ValueError):
            client.session(problem, method="symgd", options={"bogus_key": 1})


# -- delta wire fields on SynthesisRequest ------------------------------------------


def test_from_deltas_records_provenance_and_dedupes(problem):
    deltas = [tighten_delta(problem)]
    a = SynthesisRequest.from_deltas(problem, deltas, method="symgd", options=SYMGD_OPTS)
    b = SynthesisRequest.from_deltas(problem, deltas, method="symgd", options=SYMGD_OPTS)
    assert a.base_fingerprint == problem.fingerprint()
    assert a.deltas == [deltas[0].to_dict()]
    assert a.fingerprint == b.fingerprint

    payload = a.to_dict()
    assert payload["base_fingerprint"] == problem.fingerprint()
    assert payload["deltas"] == a.deltas
    # Wire dicts (not delta objects) work identically.
    c = SynthesisRequest.from_deltas(
        problem, payload["deltas"], method="symgd", options=SYMGD_OPTS
    )
    assert c.fingerprint == a.fingerprint


def test_delta_request_roundtrip_is_a_true_inverse(problem):
    """to_dict ships (base, chain); from_dict replays it -- fingerprints equal."""
    request = SynthesisRequest.from_deltas(
        problem, [tighten_delta(problem)], method="symgd", options=SYMGD_OPTS
    )
    payload = request.to_dict()
    assert set(payload) == {"base", "base_fingerprint", "deltas", "method", "options"}
    rebuilt = SynthesisRequest.from_dict(payload)
    assert rebuilt.fingerprint == request.fingerprint
    assert rebuilt.base_fingerprint == request.base_fingerprint
    assert rebuilt.deltas == request.deltas


def test_from_dict_resolves_base_fingerprint(problem):
    request = SynthesisRequest.from_deltas(
        problem, [tighten_delta(problem)], method="symgd", options=SYMGD_OPTS
    )
    # The compact client-to-server form: edit addressed by fingerprint only.
    compact = {
        "base_fingerprint": request.base_fingerprint,
        "deltas": request.deltas,
        "method": "symgd",
        "options": dict(SYMGD_OPTS),
    }

    def resolver(fingerprint):
        return problem if fingerprint == problem.fingerprint() else None

    rebuilt = SynthesisRequest.from_dict(compact, base_resolver=resolver)
    assert rebuilt.fingerprint == request.fingerprint

    # Unknown base (or no resolver) with nothing inline fails loudly.
    with pytest.raises(KeyError):
        SynthesisRequest.from_dict(compact, base_resolver=lambda fp: None)
    with pytest.raises(KeyError):
        SynthesisRequest.from_dict(compact)
    with pytest.raises(KeyError):
        SynthesisRequest.from_dict({"method": "symgd"})


def test_plain_request_wire_format_unchanged(problem):
    """Requests without deltas must not grow new wire keys."""
    request = SynthesisRequest(problem, "symgd", dict(SYMGD_OPTS))
    payload = request.to_dict()
    assert set(payload) == {"problem", "method", "options"}


# -- the removed RankHowOptions.extra switch ----------------------------------------


def test_removed_extra_option_is_rejected(problem):
    """Rank-dominance pruning always runs, so no request may ask for it."""
    with pytest.raises(TypeError):
        RankHowOptions(extra={})
    with pytest.raises(ValueError, match="extra"):
        SynthesisRequest(problem, "rankhow", {"extra": {"prune": True}})
    nested = {
        **SYMGD_OPTS,
        "solver_options": {**SYMGD_OPTS["solver_options"], "extra": {}},
    }
    with pytest.raises(ValueError, match="extra"):
        SynthesisRequest(problem, "symgd", nested)


def test_session_cell_error_bounds_follow_the_head(problem):
    from repro.core.cells import CellBoundEvaluator, grid_cells

    cells = grid_cells(3, 0.5)
    with RankHowClient() as client:
        session = client.session(problem, method="symgd", options=SYMGD_OPTS)
        bounds = session.cell_error_bounds(cells)
        assert bounds == CellBoundEvaluator(problem).bounds_many(cells)
        session.add_tuples({"A1": [0.9], "A2": [0.8], "A3": [0.7]})
        edited = session.cell_error_bounds(cells)
        assert edited == CellBoundEvaluator(session.problem).bounds_many(cells)
