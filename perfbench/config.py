"""Sizes and solver budgets of the three workloads.

Budgets are node and iteration counts, never wall-clock limits, so every
answer -- and with it ``error_sum`` and ``optimal_rate`` -- depends only on
the seed and the code, not on how fast the machine happens to be.
"""

#: Cold exact solves: small relations whose given top-k no linear function
#: reproduces (the "hard" share), mixed at a fixed rate with ones a linear
#: function can reproduce exactly.  The node budget caps the in-repo
#: branch-and-bound at well under a second per answer.
#:
#: A solve leg answers the ``quality_answers`` first inputs, then passes over
#: the first ``pool`` of them again, cold on a fresh client each time, until
#: each pooled input has ``passes`` answers and the leg has run its seconds.
#: Timings take each pooled input's best pass.  The SYM-GD warm start gives
#: ``exact`` a heavy-tailed cost per input, so its pool is the whole quality
#: set; ``symgd`` costs about the same on every input, so a few suffice.
EXACT = {
    "method": "rankhow",
    "options": {"time_limit": None, "node_limit": 60},
    "n": 10,
    "m": 3,
    "k": 6,
    "easy_every": 4,
    "quality_answers": 52,
    "pool": 52,
    "passes": 3,
}

#: Cold SYM-GD solves on larger uniform relations.  A fixed iteration cap and
#: per-cell node budget keep every answer's work about the same size, so a
#: run averages over enough relations to be steady.
SYMGD = {
    "method": "symgd",
    "options": {"max_iterations": 1, "solver_options": {"node_limit": 20}},
    "n": 1000,
    "m": 4,
    "k": 10,
    "quality_answers": 48,
    "pool": 8,
    "passes": 4,
}

#: Cheap, bounded SYM-GD on the small scenario-family problems the query
#: mix and the edit chain draw from.
SERVE_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 2,
    "solver_options": {"node_limit": 20, "verify": False, "warm_start_strategy": "none"},
}

#: One serve round: a fresh 2-shard cluster driven by two closed-loop lanes.
SERVE = {
    "shards": 2,
    "queries": 150,
    "pool": 40,
    "edits": 10,
    "quality_rounds": 8,
}

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 3
