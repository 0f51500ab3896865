"""The client facade: every registered method through one cached front door.

:class:`RankHowClient` is the synchronous, in-process counterpart of the
async query service: it owns (or shares) a
:class:`~repro.engine.engine.SolveEngine` and routes every
:class:`~repro.api.request.SynthesisRequest` through it, so batch
deduplication, the content-addressed result cache, and the process executor
backend apply uniformly to baselines and exact solves alike -- not just
SYM-GD.

Quick start::

    from repro import RankHowClient, SynthesisRequest

    with RankHowClient() as client:
        outcome = client.synthesize(SynthesisRequest(problem, "sampling"))
        print(outcome.result.describe(), outcome.cache_hit)
        report = client.compare(problem, methods=["symgd", "linear_regression"])
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

from repro.api.registry import GLOBAL_REGISTRY, method_capabilities
from repro.api.request import SynthesisRequest
from repro.core.problem import RankingProblem
from repro.engine.engine import SolveEngine, SolveOutcome
from repro.service.retry import RetryPolicy

__all__ = ["RankHowClient"]


class RankHowClient:
    """Synchronous facade over the solve engine for any registered method.

    Args:
        engine: A shared :class:`SolveEngine`; when ``None`` the client owns
            one built from the remaining arguments (and closes it on
            :meth:`close`).
        backend: Executor backend of the owned engine (``serial`` /
            ``process`` / ``auto``).
        max_workers: Worker cap for pooled backends.
        cache_capacity: In-memory entry capacity of the owned engine's cache.
        cache_dir: Optional on-disk cache directory of the owned engine.
    """

    def __init__(
        self,
        engine: SolveEngine | None = None,
        *,
        backend: str = "serial",
        max_workers: int | None = None,
        cache_capacity: int = 512,
        cache_dir: str | Path | None = None,
    ) -> None:
        self._owns_engine = engine is None
        self.engine = engine or SolveEngine(
            backend=backend,
            max_workers=max_workers,
            cache_capacity=cache_capacity,
            cache_dir=cache_dir,
        )

    # -- synthesis ------------------------------------------------------------

    def synthesize(
        self,
        request: SynthesisRequest | RankingProblem,
        method: str | None = None,
        options: dict | None = None,
        retry: RetryPolicy | None = None,
    ) -> SolveOutcome:
        """Solve one request (cache-aware) and report how it was served.

        Accepts either a prepared :class:`SynthesisRequest` or a bare
        problem plus ``method`` (default ``"symgd"``) / ``options`` (a wire
        dict or an options dataclass -- anything the request accepts).

        With a :class:`~repro.service.RetryPolicy`, transient failures
        (anything carrying a truthy ``retryable`` attribute -- injected
        chaos faults, busy/crashed shards when the engine fronts a remote
        tier) are retried with seeded exponential backoff, keyed by the
        request fingerprint so repeated runs back off identically.
        Non-retryable errors and budget exhaustion re-raise.
        """
        if isinstance(request, RankingProblem):
            request = SynthesisRequest(
                request, method or "symgd", options if options is not None else {}
            )
        elif method is not None or options is not None:
            # A prepared request carries its own method and options;
            # silently dropping the explicit arguments would dispatch the
            # wrong method without any error.
            raise TypeError(
                "pass method/options either inside the SynthesisRequest or "
                "with a bare problem, not both"
            )
        if retry is None:
            return self.synthesize_many([request])[0]
        attempt = 0
        while True:
            try:
                return self.synthesize_many([request])[0]
            except Exception as error:
                if not retry.retryable(error) or attempt >= retry.max_retries:
                    raise
                time.sleep(retry.backoff(attempt, key=(request.fingerprint,)))
                attempt += 1

    def synthesize_many(
        self, requests: Sequence[SynthesisRequest]
    ) -> list[SolveOutcome]:
        """Solve a batch of (possibly mixed-method) requests.

        Outcomes are aligned with the input order; identical requests
        collapse onto one solve and repeats of anything seen before are
        answered from the result cache.  Requests go to the engine as-is
        (the engine's ``SolveRequest`` IS :class:`SynthesisRequest`), so
        options already resolved and fingerprints already computed are not
        recomputed here.
        """
        return self.engine.solve_batch(list(requests))

    def compare(
        self,
        problem: RankingProblem,
        methods: Sequence[str] | None = None,
        options: dict | None = None,
    ) -> dict[str, SolveOutcome]:
        """Run several methods on one problem and return outcomes by name.

        Args:
            problem: The problem every method runs on.
            methods: Method names to compare; defaults to every registered
                method (pass an explicit list to exclude the slow ones).
            options: Optional per-method wire options, keyed by method name.
        """
        names = list(methods) if methods is not None else list(GLOBAL_REGISTRY.names())
        options = options or {}
        # A typoed method name in the options mapping would silently run
        # that method with defaults -- the exact failure mode the option
        # validation layer exists to prevent.
        unknown = set(options) - set(names)
        if unknown:
            raise ValueError(
                f"options given for method(s) not being compared: "
                f"{sorted(unknown)} (comparing: {sorted(names)})"
            )
        requests = [
            SynthesisRequest(problem, name, options.get(name) or {})
            for name in names
        ]
        outcomes = self.synthesize_many(requests)
        return dict(zip(names, outcomes))

    # -- sessions -------------------------------------------------------------

    def session(
        self,
        problem: RankingProblem,
        method: str = "symgd",
        options: dict | None = None,
    ):
        """Open an edit-solve-edit loop over ``problem``.

        Returns a :class:`~repro.api.session.SynthesisSession` bound to this
        client's engine: a head the session solved before is answered from
        the engine's cache.  Many sessions can share one client; closing the
        client ends them all.
        """
        from repro.api.session import SynthesisSession

        return SynthesisSession(self.engine, problem, method=method, options=options)

    def resume_session(self, data: dict):
        """Replay a serialized session (see ``SynthesisSession.to_dict``)."""
        from repro.api.session import SynthesisSession

        return SynthesisSession.from_dict(data, self.engine)

    # -- introspection / lifecycle --------------------------------------------

    def list_methods(self) -> tuple:
        """Names of every method this client can dispatch."""
        return GLOBAL_REGISTRY.names()

    def capabilities(self) -> dict:
        """Capabilities of every registered method, keyed by name."""
        return method_capabilities()

    def stats(self) -> dict:
        """Engine, executor, and cache counters."""
        return self.engine.stats()

    def close(self) -> None:
        """Release the owned engine (shared engines are left running)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "RankHowClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
