"""Seeded inputs and closed-loop drivers of the ``exact``, ``symgd`` and ``serve`` workloads.

Every input is derived from ``(seed, stream, index)`` alone, so the same seed
always yields the same problems, in the same order.  A leg (one timed pass of
a workload) keeps sending requests until it has been busy for the requested
number of seconds *and* has answered the workload's fixed quality set -- the
first answers of the stream -- so the quality metrics cover the same inputs
on every run of a seed while the timing metrics average over as many inputs
as the time allows.  The solve workloads answer their quality set once and
then pass over its first ``pool`` inputs again, cold, and time each pooled
input by its best pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import config
from tracing import Tracer
from repro import Ranking, RankingProblem, RankHowClient
from repro.data import Relation

_EXACT_STREAM, _SYMGD_STREAM = 1, 2


# -- inputs --------------------------------------------------------------------


def _ranked(matrix: np.ndarray, k: int) -> RankingProblem:
    """Rank the top ``k`` tuples by a hidden non-linear score (sum of squares)."""
    scores = np.sum(matrix**2, axis=1)
    order = np.argsort(-scores, kind="stable")
    positions = np.zeros(matrix.shape[0], dtype=int)
    positions[order[:k]] = np.arange(1, k + 1)
    return RankingProblem(Relation.from_matrix(matrix), Ranking(positions))


def _anticorrelated(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    quality = rng.uniform(size=(n, 1))
    signs = np.where(np.arange(m) < m // 2, 1.0, -1.0)
    base = quality * signs + (1.0 - quality) * (signs < 0)
    return np.clip(0.85 * base + 0.15 * rng.uniform(size=(n, m)), 0.0, 1.0)


def _heavy_tail(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    matrix = rng.lognormal(0.0, 1.2, size=(n, m))
    low = matrix.min(axis=0)
    return (matrix - low) / (matrix.max(axis=0) - low)


def _pair_differences(problem: RankingProblem) -> np.ndarray:
    """Rows ``x_hi - x_lo`` for every order the given top-k asserts.

    Each ranked tuple above the next one, and the last ranked tuple above
    every unranked one; a weight vector with ``rows @ w > 0`` reproduces the
    top-k exactly.
    """
    positions = problem.ranking.positions
    ranked = [int(i) for i in np.argsort(positions, kind="stable") if positions[i] > 0]
    unranked = [int(i) for i in np.flatnonzero(positions == 0)]
    higher = ranked[:-1] + [ranked[-1]] * len(unranked)
    lower = ranked[1:] + unranked
    return problem.matrix[higher] - problem.matrix[lower]


def _simplex_lp(objective, a_ub, m: int, extra_bounds: tuple):
    """``min objective @ v`` s.t. ``a_ub @ v <= 0``, ``v[:m]`` on the weight simplex."""
    from scipy.optimize import linprog

    extra = a_ub.shape[1] - m
    return linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=np.append(np.ones(m), np.zeros(extra))[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [extra_bounds] * extra,
        method="highs",
    )


def linearly_reproducible(problem: RankingProblem) -> bool:
    """Whether some weight vector on the simplex reproduces the top-k strictly.

    Maximises the smallest margin of the asserted orders.  Used only to fix
    the easy/hard mix of the ``exact`` workload, so that mix does not vary
    from seed to seed.
    """
    rows = _pair_differences(problem)
    m = rows.shape[1]
    # Variables (w, margin): maximise the margin s.t. margin - rows @ w <= 0.
    a_ub = np.hstack([-rows, np.ones((len(rows), 1))])
    solution = _simplex_lp(np.append(np.zeros(m), -1.0), a_ub, m, (None, 1.0))
    return bool(solution.status == 0 and -solution.fun > 1e-4)


def baseline_error(problem: RankingProblem) -> int:
    """Error of the LP ordinal-regression scorer the answers are compared with.

    Minimises the total amount by which the weights violate the asserted
    orders (Srinivasan's LP, computed here with scipy, not by the program).
    Its error tracks how hard an instance is, so ``error_ratio`` -- answers'
    error over this -- varies far less from seed to seed than raw error.
    """
    rows = _pair_differences(problem)
    m = rows.shape[1]
    if not len(rows):
        return 0
    # Variables (w, slack per order): minimise total slack s.t. -rows @ w - slack <= 0.
    a_ub = np.hstack([-rows, -np.eye(len(rows))])
    solution = _simplex_lp(np.append(np.zeros(m), np.ones(len(rows))), a_ub, m, (0.0, None))
    return problem.error_of(solution.x[:m])


def exact_instance(seed: int, index: int) -> RankingProblem:
    """Instance ``index`` of the ``exact`` stream: easy every ``easy_every``-th."""
    spec = config.EXACT
    want_easy = index % spec["easy_every"] == 0
    make = _anticorrelated if index % 2 else _heavy_tail
    rng = np.random.default_rng([seed, _EXACT_STREAM, index])
    while True:
        problem = _ranked(make(rng, spec["n"], spec["m"]), spec["k"])
        if linearly_reproducible(problem) == want_easy:
            return problem


def symgd_instance(seed: int, index: int) -> RankingProblem:
    """Instance ``index`` of the ``symgd`` stream: a larger uniform relation."""
    spec = config.SYMGD
    rng = np.random.default_rng([seed, _SYMGD_STREAM, index])
    return _ranked(rng.uniform(size=(spec["n"], spec["m"])), spec["k"])


def tiny_instance(seed: int) -> RankingProblem:
    """A small problem for warm-up and the set-up probe."""
    rng = np.random.default_rng([seed, 0])
    return _ranked(rng.uniform(size=(10, 3)), 3)


def problem_digest(problem: RankingProblem, digest) -> None:
    digest.update(np.ascontiguousarray(problem.matrix, dtype=np.float64).tobytes())
    digest.update(np.asarray(problem.ranking.positions, dtype=np.int64).tobytes())


def answer_key(result) -> str:
    """Digest of what an answer says (weights, error, optimality), not its timing."""
    digest = hashlib.sha256()
    digest.update(np.asarray(result.weights, dtype=np.float64).tobytes())
    digest.update(f"{int(result.error)}:{bool(result.optimal)}".encode())
    return digest.hexdigest()


# -- legs ----------------------------------------------------------------------


@dataclass
class Answer:
    """One answered request, with what the correctness gate needs."""

    key: tuple
    problem: RankingProblem
    result: object
    method: str


@dataclass
class Leg:
    """What one timed pass of a workload produced."""

    latencies: list = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    errors: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    quality: list = field(default_factory=list)
    #: (request fingerprint, answer digest) of every answer.
    digests: list = field(default_factory=list)
    #: Pool index -> latencies of its answers, when a leg passes over a pool.
    samples: dict = field(default_factory=dict)

    def _best(self) -> list:
        return [min(values) for values in self.samples.values()]

    @property
    def throughput(self) -> float:
        if self.samples:
            # Each pooled input counts once, at its best latency over the
            # passes: slow spells of a shared host only ever add time, so the
            # best of several cold solves is the steadiest reading of one.
            return len(self.samples) / sum(self._best())
        return len(self.latencies) / self.busy if self.busy > 0 else 0.0

    @property
    def latency_p50(self) -> float:
        return statistics.median(self._best()) if self.samples else percentile(self.latencies, 50)


class SolveWorkload:
    """One caller sending cold requests of one method, one at a time."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = config.EXACT if name == "exact" else config.SYMGD
        self._make = exact_instance if name == "exact" else symgd_instance
        self._instances: dict = {}

    def instance(self, index: int) -> RankingProblem:
        if index not in self._instances:
            self._instances[index] = self._make(self.seed, index)
        return self._instances[index]

    def inputs_digest(self) -> str:
        digest = hashlib.sha256()
        for index in range(self.spec["quality_answers"]):
            problem_digest(self.instance(index), digest)
        return digest.hexdigest()

    def run_leg(self, seconds: float, tracer) -> Leg:
        quality, pool = self.spec["quality_answers"], self.spec["pool"]
        min_requests = quality + (self.spec["passes"] - 1) * pool
        leg = Leg()
        client = RankHowClient()
        try:
            client.synthesize(tiny_instance(self.seed), self.spec["method"], self.spec["options"])  # warm-up
            request = 0
            while leg.busy < seconds or request < min_requests:
                # The quality set once, then passes over the pool (its first
                # inputs), each pass on a fresh client so its cache is empty
                # and every answer is solved cold again.
                index = request if request < quality else (request - quality) % pool
                if request >= quality and index == 0:
                    client.close()
                    client = RankHowClient()
                self._request(client, index, leg, tracer, in_quality=request < quality)
                request += 1
        finally:
            client.close()
        return leg

    def _request(self, client, index: int, leg: Leg, tracer, in_quality: bool) -> None:
        method, options = self.spec["method"], self.spec["options"]
        problem = self.instance(index)
        leg.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.request():
                outcome = client.synthesize(problem, method, options)
        except Exception as error:  # a failed request is counted, not fatal
            leg.errors.append(f"{self.name}[{index}]: {type(error).__name__}: {error}")
            outcome = None
        elapsed = time.perf_counter() - started
        leg.busy += elapsed
        if outcome is None:
            return
        leg.latencies.append(elapsed)
        if index < self.spec["pool"]:
            leg.samples.setdefault(index, []).append(elapsed)
        leg.digests.append((outcome.fingerprint, answer_key(outcome.result)))
        answer = Answer((index,), problem, outcome.result, method)
        leg.answers.append(answer)
        if in_quality:
            leg.quality.append(answer)


class _RecordingTarget:
    """The cluster as the load generator sees it, keeping every answer.

    Each answered request opens the benchmark's root span (when tracing), and
    the answer is kept with what the correctness gate needs to re-derive the
    problem it answers: the query's problem, or the session's edit chain.
    """

    def __init__(self, cluster, tracer) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self.queries: list = []  # (problem, method, response)
        self.sessions: dict = {}  # session id -> (base problem, method)
        self.edits: list = []  # (session id, wire deltas, response), in lane order

    async def submit(self, problem, method="symgd", params=None, **kwargs):
        with self.tracer.request():
            response = await self.cluster.submit(problem, method, params, **kwargs)
        self.queries.append((problem, method, response))
        return response

    async def open_session(self, problem, method="symgd", params=None, **kwargs):
        session_id = await self.cluster.open_session(problem, method, params, **kwargs)
        self.sessions[session_id] = (problem, method)
        return session_id

    async def submit_session(self, session_id, deltas=None, **kwargs):
        with self.tracer.request():
            response = await self.cluster.submit_session(session_id, deltas=deltas, **kwargs)
        self.edits.append((session_id, list(deltas or []), response))
        return response


class ServeWorkload:
    """A 2-shard cluster under a read lane (query mix) and a write lane (edits)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._plans: dict = {}

    def plan(self, round_index: int, queries=None, pool=None, edits=None) -> dict:
        from repro.loadgen import QueryMixUser, SessionEditUser, build_plan

        spec = config.SERVE
        users = [
            QueryMixUser(
                "reads",
                count=queries or spec["queries"],
                pool_size=pool or spec["pool"],
                params=dict(config.SERVE_PARAMS),
            ),
            SessionEditUser(
                "edits",
                edits=edits or spec["edits"],
                params=dict(config.SERVE_PARAMS),
            ),
        ]
        return build_plan(users, seed=self.seed * 1000 + round_index)

    def round_plan(self, round_index: int) -> dict:
        if round_index not in self._plans:
            self._plans[round_index] = self.plan(round_index)
        return self._plans[round_index]

    def inputs_digest(self) -> str:
        digest = hashlib.sha256()
        for round_index in range(config.SERVE["quality_rounds"]):
            for lane, operations in sorted(self.round_plan(round_index).items()):
                for op in operations:
                    digest.update(f"{lane}:{op.index}:{op.kind}:{op.method}".encode())
                    if op.problem is not None:
                        problem_digest(op.problem, digest)
                    if op.deltas:
                        digest.update(json.dumps(op.deltas, sort_keys=True).encode())
        return digest.hexdigest()

    def run_leg(self, seconds: float, tracer) -> Leg:
        return asyncio.run(self._run_leg(seconds, tracer))

    async def _round(self, plan: dict, tracer):
        from repro.cluster import ClusterOptions, ClusterRouter
        from repro.loadgen import run_closed_loop

        async with ClusterRouter(ClusterOptions(num_shards=config.SERVE["shards"])) as cluster:
            target = _RecordingTarget(cluster, tracer)
            results, wall = await run_closed_loop(target, plan)
        return target, results, wall

    async def _run_leg(self, seconds: float, tracer) -> Leg:
        from repro.core.delta import deltas_from_dicts

        leg = Leg()
        # Warm-up on a small plan of its own: first-solve imports and lazy
        # set-up land here, not in the timed rounds' tail latencies.
        await self._round(self.plan(-1, queries=6, pool=3, edits=2), INACTIVE)
        round_index = 0
        while leg.busy < seconds or round_index < config.SERVE["quality_rounds"]:
            plan = self.round_plan(round_index)
            target, results, wall = await self._round(plan, tracer)
            leg.busy += wall
            answered = [r for r in results if r.kind != "session_open"]
            leg.attempted += len(answered)
            for r in results:
                if not r.ok:
                    leg.errors.append(f"serve[{round_index}] {r.lane}#{r.index}: {r.error or 'shed'}")
            leg.latencies.extend(r.latency for r in answered if r.ok)
            leg.digests.extend((r.fingerprint, r.digest) for r in answered if r.ok)
            answers = [
                Answer((round_index, "q", number), problem, response.result, method)
                for number, (problem, method, response) in enumerate(target.queries)
            ]
            heads = dict(target.sessions)
            for number, (session_id, deltas, response) in enumerate(target.edits):
                head, method = heads[session_id]
                if deltas:
                    head = head.apply_delta(deltas_from_dicts(deltas))
                heads[session_id] = (head, method)
                answers.append(Answer((round_index, "e", number), head, response.result, method))
            leg.answers.extend(answers)
            if round_index < config.SERVE["quality_rounds"]:
                leg.quality.extend(answers)
            round_index += 1
        return leg


#: The tracer of untraced legs: never installed, so it records nothing.
INACTIVE = Tracer()


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else math.nan
