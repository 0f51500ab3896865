"""Interactive incremental synthesis: the edit-solve-edit loop end to end.

The headline RankHow use case is an analyst iterating on a ranking problem:
drop a candidate, tighten the tie tolerance, second-guess an edit and undo
it -- and expect a fresh weight vector after every step.  This script drives
that loop through ``RankHowClient.session()``:

* each edit is a first-class :class:`repro.core.delta.ProblemDelta` whose
  fingerprint composes with the parent's, so revisited states are answered
  from the engine's content-addressed cache without solving;
* the session serializes (base problem + delta chain) and resumes with
  identical fingerprints -- the resumed analyst continues against the same
  cache entries;
* a ``scenarios.mutate()`` chain replays as session edits bit-for-bit, which
  is exactly what the differential oracle's ``incremental_parity`` invariant
  checks across every scenario family.

Run with::

    PYTHONPATH=src python examples/interactive_session.py
"""

from __future__ import annotations

import numpy as np

from repro import RankingProblem, Ranking
from repro.api.client import RankHowClient
from repro.data.synthetic import generate_uniform
from repro.scenarios import mutation_delta

SYMGD = {
    "cell_size": 0.2,
    "max_iterations": 8,
    "solver_options": {"node_limit": 150, "verify": False, "warm_start_strategy": "none"},
}


def build_problem() -> RankingProblem:
    relation = generate_uniform(num_tuples=60, num_attributes=4, seed=42)
    hidden = np.array([0.4, 0.3, 0.2, 0.1])
    scores = relation.matrix() @ hidden
    order = np.argsort(-scores)[:8]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, 60))


def show(label: str, outcome) -> None:
    result = outcome.result
    print(
        f"  {label:>28s}: cache_hit={outcome.cache_hit!s:<5s} error={result.error:<3d} "
        f"wall={outcome.wall_time * 1e3:7.1f}ms fingerprint={outcome.fingerprint[:10]}"
    )


def main() -> None:
    problem = build_problem()
    print(f"base problem: {problem}")

    with RankHowClient() as client:
        session = client.session(problem, method="symgd", options=SYMGD)

        print("\n-- analyst loop ------------------------------------------------")
        show("initial solve", session.solve())

        session.tighten_tolerance()
        show("tighten tolerance", session.solve())

        # Drop two unranked also-rans the analyst decided are out of scope.
        unranked = session.problem.ranking.unranked_indices()
        session.drop_tuples(unranked[:2])
        show("drop 2 unranked tuples", session.solve())

        # Second-guess the drop: undo it (rewind replays the chain prefix,
        # so this state's fingerprint matches the earlier solve -- exact hit).
        session.rewind(1)
        show("undo the drop (cache hit)", session.solve())

        # Replay a generated mutation workload as session edits.
        print("\n-- scenarios.mutate() chain as deltas --------------------------")
        for kind in ("jitter", "permute", "rescale"):
            deltas, applied = mutation_delta(session.problem, kind=kind, seed=7)
            session.edit(*deltas)
            show(f"mutate[{applied}]", session.solve())

        print("\n-- serialize & resume ------------------------------------------")
        exported = session.to_dict()
        print(
            f"  exported session: {len(exported['deltas'])} deltas, "
            f"base n={session.base.num_tuples}"
        )
        resumed = client.resume_session(exported)
        show("resumed head (cache hit)", resumed.solve())

        cache = client.stats()["cache"]
        print(f"\ncache: hits={cache['hits']} misses={cache['misses']}")


if __name__ == "__main__":
    main()
