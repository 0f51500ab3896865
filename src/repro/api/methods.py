"""Adapters registering every synthesis algorithm in the method registry.

Each adapter owns one method's canonical name, its wire-format option
surface (which keys are accepted, how partial options merge over
service-friendly defaults), and the construction of the underlying solver.
These are the ONLY places in the package that instantiate solver / baseline
classes on behalf of a method name -- the engine's worker tasks, the query
service, the benchmark harness, and the client facade all route through
them.

Defaults here are deliberately service-friendly (modest node limits, no
exact-arithmetic verification for the heuristic methods): an interactive
query should come back in seconds.  Callers that want exhaustive solves
spell the budgets out, which the fingerprint layer canonicalizes anyway.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.baselines.adarank import AdaRankBaseline, AdaRankOptions
from repro.baselines.linear_regression import LinearRegressionBaseline
from repro.baselines.ordinal_regression import (
    OrdinalRegressionBaseline,
    OrdinalRegressionOptions,
)
from repro.baselines.sampling import SamplingBaseline, SamplingOptions
from repro.core.problem import RankingProblem
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.result import SynthesisResult
from repro.core.symgd import SymGD, SymGDOptions
from repro.core.tree import TreeOptions, TreeSolver
from repro.api.registry import GLOBAL_REGISTRY, SynthesisMethod, register_method

__all__ = [
    "RankHowMethod",
    "SymGDMethod",
    "SamplingMethod",
    "OrdinalRegressionMethod",
    "LinearRegressionMethod",
    "AdaRankMethod",
    "TreeMethod",
]

_RANKHOW_KEYS = frozenset(RankHowOptions.__dataclass_fields__)


class _WarmStartedRankHow(RankHow):
    """A RankHow whose resolved wire-format warm start is baked in.

    ``warm_start`` is part of the resolved options (it changes what a
    truncated search returns, so it must be covered by the fingerprint), but
    :class:`RankHowOptions` has no such field -- it is a ``solve`` argument.
    Binding it here keeps the ``build`` contract honest: the returned solver
    runs exactly the configuration the fingerprint describes.
    """

    def __init__(self, options: RankHowOptions, warm_start) -> None:
        super().__init__(options)
        self._warm_start = warm_start

    def solve(self, problem, cell_bounds=None, warm_start=None):
        if warm_start is None:
            warm_start = self._warm_start
        return super().solve(problem, cell_bounds, warm_start=warm_start)


@register_method("rankhow")
class RankHowMethod(SynthesisMethod):
    """The exact MILP solver (Sections III and V).

    Beyond :class:`RankHowOptions`, the wire format accepts ``warm_start``
    (a weight vector used as the initial incumbent).  The warm start changes
    which solution a truncated search returns, so it is part of the resolved
    options and therefore of the request fingerprint.
    """

    def param_keys(self) -> frozenset:
        return _RANKHOW_KEYS | {"warm_start"}

    def default_options(self) -> dict:
        return {"node_limit": 2000, "time_limit": 30.0}

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        warm_start = options.pop("warm_start", None)
        effective = RankHowOptions.from_dict(
            {**self.default_options(), **options}
        ).to_dict()
        effective["warm_start"] = (
            None
            if warm_start is None
            else [float(w) for w in np.asarray(warm_start, dtype=float)]
        )
        return effective

    def capabilities(self) -> dict:
        return {
            "kind": "exact",
            "exact": True,
            "stochastic": False,
            "supports_executor": False,
            "options": sorted(self.param_keys()),
        }

    def build(self, effective: dict) -> RankHow:
        warm_start = effective.get("warm_start")
        options = {k: v for k, v in effective.items() if k != "warm_start"}
        return _WarmStartedRankHow(
            RankHowOptions.from_dict(options),
            None if warm_start is None else np.asarray(warm_start, dtype=float),
        )


class SymGDMethod(SynthesisMethod):
    """SYM-GD (Algorithm 1) / adaptive SYM-GD (Algorithm 2).

    ``adaptive`` is not a wire key: the method name itself decides it, so the
    two variants cannot alias each other in the cache.  Nested
    ``solver_options`` are deep-merged over the per-cell defaults, so tweaking
    one knob does not silently re-enable exact verification.
    """

    def __init__(self, adaptive: bool = False) -> None:
        self.adaptive = adaptive

    def param_keys(self) -> frozenset:
        return frozenset(SymGDOptions.__dataclass_fields__) - {"adaptive"}

    def default_options(self) -> dict:
        return {
            "cell_size": 1e-4 if self.adaptive else 0.1,
            "solver_options": {
                "node_limit": 500,
                "verify": False,
                "warm_start_strategy": "none",
            },
        }

    def from_dataclass_dump(self, dump: dict) -> dict:
        dump = dict(dump)
        adaptive = dump.pop("adaptive", self.adaptive)
        if bool(adaptive) != self.adaptive:
            other = "symgd" if self.adaptive else "symgd_adaptive"
            raise ValueError(
                f"options set adaptive={bool(adaptive)}, which conflicts with "
                f"method {self.name!r}; use method {other!r} instead"
            )
        nested = dump.get("solver_options")
        if hasattr(nested, "to_dict"):
            dump["solver_options"] = nested.to_dict()
        return dump

    def validate_options(self, options: Mapping | None) -> None:
        super().validate_options(options)
        nested = (options or {}).get("solver_options")
        if nested is not None and hasattr(nested, "to_dict"):
            # A dataclass nested inside a plain wire dict would crash the
            # deep-merge below with an opaque TypeError; reject it clearly.
            raise ValueError(
                f"solver_options for method {self.name!r} must be a plain "
                f"mapping, got {type(nested).__name__}; pass its .to_dict() "
                "(or pass a whole SymGDOptions dataclass as the options)"
            )
        if nested is not None:
            nested_unknown = set(nested) - _RANKHOW_KEYS
            if nested_unknown:
                raise ValueError(
                    f"unknown solver_options key(s) for method {self.name!r}: "
                    f"{sorted(nested_unknown)} (allowed: {sorted(_RANKHOW_KEYS)})"
                )

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        defaults = self.default_options()
        merged = {**defaults, **options}
        merged["solver_options"] = {
            **defaults["solver_options"],
            **(options.get("solver_options") or {}),
        }
        merged["adaptive"] = self.adaptive
        return SymGDOptions.from_dict(merged).to_dict()

    def capabilities(self) -> dict:
        return {
            "kind": "local_search",
            "exact": False,
            "stochastic": False,
            "supports_executor": False,
            "options": sorted(self.param_keys()),
        }

    def build(self, effective: dict) -> SymGD:
        return SymGD(SymGDOptions.from_dict(effective))


GLOBAL_REGISTRY.register("symgd", SymGDMethod(adaptive=False))
GLOBAL_REGISTRY.register("symgd_adaptive", SymGDMethod(adaptive=True))


@register_method("sampling")
class SamplingMethod(SynthesisMethod):
    """Random weight vectors under the problem constraints.

    ``chunk_size`` is excluded from the wire format: it only shapes the
    chunked executor fan-out and cannot affect the returned result, so
    accepting it could only fragment the fingerprint space.
    """

    def param_keys(self) -> frozenset:
        return frozenset(SamplingOptions.__dataclass_fields__) - {"chunk_size"}

    def from_dataclass_dump(self, dump: dict) -> dict:
        # chunk_size cannot affect the returned result (only how trials are
        # chunked over an executor), so dropping it is semantically safe.
        return {k: v for k, v in dump.items() if k != "chunk_size"}

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        effective = SamplingOptions(**options).to_dict()
        effective.pop("chunk_size", None)
        return effective

    def capabilities(self) -> dict:
        return {
            "kind": "baseline",
            "exact": False,
            "stochastic": True,
            "supports_executor": True,
            "options": sorted(self.param_keys()),
        }

    def build(self, effective: dict) -> SamplingBaseline:
        return SamplingBaseline(SamplingOptions(**effective))

    def synthesize_resolved(
        self, problem: RankingProblem, effective: dict, *, executor=None
    ) -> SynthesisResult:
        baseline = SamplingBaseline(
            SamplingOptions(**effective), executor=executor
        )
        return baseline.solve(problem)


@register_method("ordinal_regression")
class OrdinalRegressionMethod(SynthesisMethod):
    """Srinivasan's LP ordinal regression (the paper's strongest baseline)."""

    def param_keys(self) -> frozenset:
        return frozenset(OrdinalRegressionOptions.__dataclass_fields__)

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        return OrdinalRegressionOptions.from_dict(options).to_dict()

    def build(self, effective: dict) -> OrdinalRegressionBaseline:
        return OrdinalRegressionBaseline(OrdinalRegressionOptions.from_dict(effective))


@register_method("linear_regression")
class LinearRegressionMethod(SynthesisMethod):
    """OLS / NNLS on rank-derived labels."""

    def param_keys(self) -> frozenset:
        return frozenset(LinearRegressionBaseline.__dataclass_fields__)

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        # Derive the canonical dict from the dataclass fields so a future
        # field cannot be accepted by validation yet dropped here.
        baseline = LinearRegressionBaseline(**options)
        return {key: getattr(baseline, key) for key in sorted(self.param_keys())}

    def build(self, effective: dict) -> LinearRegressionBaseline:
        return LinearRegressionBaseline(**effective)


@register_method("adarank")
class AdaRankMethod(SynthesisMethod):
    """AdaRank boosting over single-attribute weak rankers."""

    def param_keys(self) -> frozenset:
        return frozenset(AdaRankOptions.__dataclass_fields__)

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        return AdaRankOptions.from_dict(options).to_dict()

    def build(self, effective: dict) -> AdaRankBaseline:
        return AdaRankBaseline(AdaRankOptions.from_dict(effective))


class TreeMethod(SynthesisMethod):
    """The TREE enumeration baseline of the Section VI-B case study.

    Like SYM-GD's ``adaptive``, the ``use_separation_gap`` / ``prune_by_bound``
    switches are decided by the method name (``tree`` vs ``tree_naive``), not
    by wire options.

    :class:`TreeOptions`' own defaults (2M nodes, no wall clock) assume the
    offline case study; an unsuspecting service or client request must not
    inherit an effectively unbounded enumeration, so the registry defaults
    cap both budgets.  Exhaustive runs spell the budgets out (the benchmark
    harness does).
    """

    def __init__(self, with_gap: bool = True) -> None:
        self.with_gap = with_gap

    def param_keys(self) -> frozenset:
        return frozenset(TreeOptions.__dataclass_fields__) - {
            "use_separation_gap",
            "prune_by_bound",
        }

    def default_options(self) -> dict:
        return {"time_limit": 30.0, "node_limit": 20000}

    def from_dataclass_dump(self, dump: dict) -> dict:
        dump = dict(dump)
        for key in ("use_separation_gap", "prune_by_bound"):
            value = dump.pop(key, self.with_gap)
            if bool(value) != self.with_gap:
                other = "tree_naive" if self.with_gap else "tree"
                raise ValueError(
                    f"options set {key}={bool(value)}, which conflicts with "
                    f"method {self.name!r}; use method {other!r} instead"
                )
        return dump

    def resolve_options(self, options: Mapping | None = None) -> dict:
        options = dict(options or {})
        self.validate_options(options)
        merged = {**self.default_options(), **options}
        merged["use_separation_gap"] = self.with_gap
        merged["prune_by_bound"] = self.with_gap
        return TreeOptions.from_dict(merged).to_dict()

    def capabilities(self) -> dict:
        return {
            "kind": "enumeration",
            "exact": False,
            "stochastic": False,
            "supports_executor": False,
            "options": sorted(self.param_keys()),
        }

    def build(self, effective: dict) -> TreeSolver:
        return TreeSolver(TreeOptions.from_dict(effective))


GLOBAL_REGISTRY.register("tree", TreeMethod(with_gap=True))
GLOBAL_REGISTRY.register("tree_naive", TreeMethod(with_gap=False))
