"""The method registry: one synthesis interface over every algorithm.

Every way of synthesizing a scoring function -- the exact RankHow MILP,
SYM-GD, TREE, and all Section VI baselines -- is wrapped in a
:class:`SynthesisMethod` and registered under a canonical string name.  The
engine, the query service, the benchmark harness, and the
:class:`~repro.api.client.RankHowClient` facade all dispatch through this
registry, so a new method plugs into caching, executor fan-out, and the
service wire format by writing one adapter class::

    @register_method("my_method")
    class MyMethod(SynthesisMethod):
        def synthesize_resolved(self, problem, effective, executor=None):
            ...

This module is a leaf: it imports nothing from :mod:`repro.engine` or
:mod:`repro.service`, so the engine's task layer can depend on it without an
import cycle.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping

from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult

__all__ = [
    "SynthesisMethod",
    "MethodRegistry",
    "GLOBAL_REGISTRY",
    "register_method",
    "get_method",
    "list_methods",
    "method_capabilities",
]


class SynthesisMethod(abc.ABC):
    """One registered way of synthesizing a ranking function.

    Subclasses describe a method's identity (:attr:`name`), its wire-format
    option surface (:meth:`param_keys`, :meth:`default_options`,
    :meth:`resolve_options`), and how to run it (:meth:`synthesize_resolved`).
    Options always travel as plain JSON-able dicts -- the same wire format the
    engine fingerprints and the service accepts -- so every method is
    cacheable and serializable by construction.
    """

    #: Canonical registry name; set by :func:`register_method`.
    name: str = ""

    # -- option surface -------------------------------------------------------

    @abc.abstractmethod
    def param_keys(self) -> frozenset:
        """Wire-format option keys this method accepts."""

    def default_options(self) -> dict:
        """Service-friendly default options (wire format, may be partial)."""
        return {}

    def validate_options(self, options: Mapping | None) -> None:
        """Reject unknown wire options instead of silently ignoring them.

        A misplaced key would change the request fingerprint -- fragmenting
        the cache -- while having no effect on the solve, so it fails loudly
        at request-construction time.
        """
        options = options or {}
        unknown = set(options) - set(self.param_keys())
        if unknown:
            allowed = sorted(self.param_keys()) or "none"
            raise ValueError(
                f"unknown parameter(s) for method {self.name!r}: "
                f"{sorted(unknown)} (allowed: {allowed})"
            )

    @abc.abstractmethod
    def resolve_options(self, options: Mapping | None = None) -> dict:
        """Canonical post-merge options for ``options`` (fully spelled out).

        Requests are fingerprinted on this dict, so ``{}`` and a default
        written out explicitly must resolve to the same mapping.
        """

    def from_dataclass_dump(self, dump: dict) -> dict:
        """Wire options from a full options-dataclass ``to_dict`` dump.

        A full dump naturally contains keys the wire format fixes by method
        name (SYM-GD's ``adaptive``) or excludes (sampling's ``chunk_size``).
        Methods with such keys override this to strip them -- raising when a
        stripped value *conflicts* with what the method name implies, never
        silently changing semantics.  The default accepts the dump as-is.
        """
        return dict(dump)

    # -- identity / metadata --------------------------------------------------

    def capabilities(self) -> dict:
        """Describe what this method is and supports (for docs and clients)."""
        return {
            "kind": "baseline",
            "exact": False,
            "stochastic": False,
            "supports_executor": False,
            "options": sorted(self.param_keys()),
        }

    # -- execution ------------------------------------------------------------

    def synthesize(
        self,
        problem: RankingProblem,
        options: Mapping | None = None,
        *,
        executor=None,
    ) -> SynthesisResult:
        """Run the method on ``problem`` with wire-format ``options``."""
        return self.synthesize_resolved(
            problem, self.resolve_options(options), executor=executor
        )

    @abc.abstractmethod
    def build(self, effective: dict):
        """Construct the configured solver object for resolved options.

        The returned object exposes ``solve(problem) -> SynthesisResult``;
        callers that want a reusable solver get the instance itself rather
        than a closure.
        """

    def synthesize_resolved(
        self,
        problem: RankingProblem,
        effective: dict,
        *,
        executor=None,
    ) -> SynthesisResult:
        """Run the method with already-resolved options (no re-merging).

        This is the entry point the engine's worker tasks call: the front-end
        resolves (and fingerprints) the options once, and the worker must not
        repeat that work.  Methods that can exploit an executor override this.
        """
        return self.build(effective).solve(problem)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class MethodRegistry:
    """Name -> :class:`SynthesisMethod` mapping with loud failure modes."""

    def __init__(self) -> None:
        self._methods: dict[str, SynthesisMethod] = {}

    def register(
        self, name: str, method: SynthesisMethod, *, replace: bool = False
    ) -> SynthesisMethod:
        """Register ``method`` under ``name``; duplicate names are an error.

        Silently shadowing an existing method would change what every call
        site (bench, service, client) runs, so re-registration requires an
        explicit ``replace=True``.
        """
        if not name:
            raise ValueError("method name must be a non-empty string")
        if name in self._methods and not replace:
            raise ValueError(
                f"method {name!r} is already registered "
                f"({type(self._methods[name]).__name__}); "
                "pass replace=True to override"
            )
        method.name = name
        self._methods[name] = method
        return method

    def get(self, name: str) -> SynthesisMethod:
        """Look up a method by name; unknown names list what IS registered."""
        try:
            return self._methods[name]
        except KeyError:
            raise ValueError(
                f"unknown method {name!r}; registered methods: "
                f"{list(self.names())}"
            ) from None

    def names(self) -> tuple:
        """Registered method names, in registration order."""
        return tuple(self._methods)

    def capabilities(self) -> dict:
        """``{name: capabilities}`` for every registered method."""
        return {name: method.capabilities() for name, method in self._methods.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._methods

    def __iter__(self):
        return iter(self._methods.values())

    def __len__(self) -> int:
        return len(self._methods)


#: The process-wide registry every dispatch path consults.
GLOBAL_REGISTRY = MethodRegistry()


def register_method(
    name: str, *, registry: MethodRegistry | None = None, replace: bool = False
):
    """Class decorator registering a :class:`SynthesisMethod` subclass.

    The class is instantiated once (adapters are stateless) and registered
    under ``name``::

        @register_method("sampling")
        class SamplingMethod(SynthesisMethod):
            ...
    """

    def decorator(cls):
        target = registry if registry is not None else GLOBAL_REGISTRY
        target.register(name, cls(), replace=replace)
        return cls

    return decorator


def get_method(name: str) -> SynthesisMethod:
    """Look up a method in the global registry."""
    return GLOBAL_REGISTRY.get(name)


def list_methods() -> tuple:
    """Names of every registered method (the public API smoke test)."""
    return GLOBAL_REGISTRY.names()


def method_capabilities() -> dict:
    """Capabilities of every registered method, keyed by name."""
    return GLOBAL_REGISTRY.capabilities()
