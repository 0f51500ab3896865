"""MethodRegistry: registration, lookup failure modes, capabilities."""

from __future__ import annotations

import pytest

from repro.api import (
    GLOBAL_REGISTRY,
    MethodRegistry,
    SynthesisMethod,
    get_method,
    list_methods,
    method_capabilities,
    register_method,
)

#: The six methods the unified API promises (plus variants).
EXPECTED_METHODS = {
    "rankhow",
    "symgd",
    "symgd_adaptive",
    "sampling",
    "ordinal_regression",
    "linear_regression",
    "adarank",
    "tree",
    "tree_naive",
}


class _ToyMethod(SynthesisMethod):
    def param_keys(self):
        return frozenset({"knob"})

    def resolve_options(self, options=None):
        options = dict(options or {})
        self.validate_options(options)
        return {"knob": int(options.get("knob", 0))}

    def build(self, effective):  # pragma: no cover - never solved in tests
        raise NotImplementedError


def test_all_methods_are_registered():
    assert EXPECTED_METHODS <= set(list_methods())
    for name in EXPECTED_METHODS:
        assert get_method(name).name == name


def test_unknown_method_error_lists_registered_names():
    with pytest.raises(ValueError) as excinfo:
        get_method("gradient_descent")
    message = str(excinfo.value)
    assert "gradient_descent" in message
    # The error must teach the caller what IS available.
    for name in ("rankhow", "symgd", "sampling"):
        assert name in message


def test_duplicate_registration_raises():
    registry = MethodRegistry()
    registry.register("toy", _ToyMethod())
    with pytest.raises(ValueError, match="already registered"):
        registry.register("toy", _ToyMethod())
    # Explicit replacement is allowed.
    replacement = _ToyMethod()
    registry.register("toy", replacement, replace=True)
    assert registry.get("toy") is replacement


def test_duplicate_registration_raises_in_global_registry():
    with pytest.raises(ValueError, match="already registered"):
        register_method("symgd")(_ToyMethod)


def test_register_method_decorator_on_private_registry():
    registry = MethodRegistry()

    @register_method("toy", registry=registry)
    class Toy(_ToyMethod):
        pass

    assert registry.names() == ("toy",)
    assert isinstance(registry.get("toy"), Toy)
    assert registry.get("toy").name == "toy"
    # The decorator must not leak into the global registry.
    assert "toy" not in GLOBAL_REGISTRY


def test_capabilities_shape():
    capabilities = method_capabilities()
    assert EXPECTED_METHODS <= set(capabilities)
    for name, caps in capabilities.items():
        assert isinstance(caps["options"], list), name
        assert "kind" in caps and "exact" in caps, name
    assert capabilities["rankhow"]["exact"] is True
    assert capabilities["sampling"]["supports_executor"] is True
    assert capabilities["sampling"]["stochastic"] is True


def test_validate_options_rejects_unknown_keys():
    with pytest.raises(ValueError, match="warm_start_typo"):
        get_method("rankhow").validate_options({"warm_start_typo": [0.5, 0.5]})
    with pytest.raises(ValueError, match="chunk_size"):
        get_method("sampling").validate_options({"chunk_size": 10})


def test_resolve_options_spells_out_defaults():
    # {} and an explicitly spelled default must resolve identically, so they
    # share a fingerprint (and therefore a cache entry).
    adapter = get_method("ordinal_regression")
    assert adapter.resolve_options({}) == adapter.resolve_options(
        {"support_ties": True}
    )
    symgd = get_method("symgd")
    assert symgd.resolve_options({})["adaptive"] is False
    assert symgd.resolve_options({})["solver_options"]["verify"] is False
    adaptive = get_method("symgd_adaptive").resolve_options({})
    assert adaptive["adaptive"] is True
    assert adaptive["cell_size"] == pytest.approx(1e-4)


def test_tree_variants_fix_their_switches():
    tree = get_method("tree").resolve_options({})
    naive = get_method("tree_naive").resolve_options({})
    assert tree["use_separation_gap"] and tree["prune_by_bound"]
    assert not naive["use_separation_gap"] and not naive["prune_by_bound"]
    with pytest.raises(ValueError, match="use_separation_gap"):
        get_method("tree").validate_options({"use_separation_gap": False})
    # A bare service/client request must not inherit TreeOptions' offline
    # budgets (2M nodes, no wall clock): the registry caps both.
    assert tree["time_limit"] == pytest.approx(30.0)
    assert tree["node_limit"] == 20000
    # Exhaustive budgets stay reachable by spelling them out.
    exhaustive = get_method("tree").resolve_options({"time_limit": None})
    assert exhaustive["time_limit"] is None


def test_nested_dataclass_solver_options_rejected_clearly():
    from repro.core.rankhow import RankHowOptions

    with pytest.raises(ValueError, match="plain mapping"):
        get_method("symgd").validate_options(
            {"solver_options": RankHowOptions(node_limit=10)}
        )


@pytest.mark.parametrize("name", ["bogus", "symgd"])
def test_rankhow_request_rejects_an_unknown_warm_start_strategy(name, small_api_problem):
    from repro.api import SynthesisRequest

    with pytest.raises(ValueError, match=rf"{name!r}.*'ordinal_regression'.*'none'"):
        get_method("rankhow").resolve_options({"warm_start_strategy": name})
    request = SynthesisRequest(small_api_problem, "rankhow", {"warm_start_strategy": name})
    with pytest.raises(ValueError, match=repr(name)):
        request.effective
