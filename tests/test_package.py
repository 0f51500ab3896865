"""Package-level tests: public API surface and example scripts."""

from __future__ import annotations

import importlib
import pathlib
import re
import subprocess
import sys
import tomllib

import pytest

import repro


def test_version_and_public_api():
    assert repro.__version__ == "1.0.0"
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_pyproject_declares_version_and_dependencies():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dependency).group(0): dependency
        for dependency in project["dependencies"]
    }
    assert {"numpy", "scipy"} <= set(declared)
    # Both HiGHS backends drive HiGHS through scipy.optimize._highspy; the
    # MILP options, setSolution and the getInfo() fields they use were
    # checked on SciPy 1.17 (HiGHS 1.12).
    assert declared["scipy"] == "scipy>=1.17"


def test_list_methods_smoke():
    """The CI smoke step: the registry is reachable from the top level."""
    names = repro.list_methods()
    assert "rankhow" in names and "symgd" in names and "sampling" in names
    assert set(repro.method_capabilities()) == set(names)


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.solvers",
        "repro.data",
        "repro.baselines",
        "repro.bench",
        "repro.bench.experiments",
        "repro.engine",
        "repro.service",
        "repro.api",
        "repro.obs",
        "repro.testing",
        "repro.cluster",
        "repro.loadgen",
        "repro.chaos",
        "repro.scenarios",
    ],
)
def test_submodules_importable(module):
    imported = importlib.import_module(module)
    assert imported is not None
    for name in getattr(imported, "__all__", []):
        assert hasattr(imported, name), f"{module}.{name} missing"


def test_examples_are_importable_scripts():
    examples_dir = pathlib.Path(__file__).resolve().parents[1] / "examples"
    scripts = sorted(examples_dir.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        source = script.read_text()
        assert "def main()" in source
        assert '__name__ == "__main__"' in source
        compile(source, str(script), "exec")  # syntax check


def test_quickstart_example_runs_end_to_end():
    examples_dir = pathlib.Path(__file__).resolve().parents[1] / "examples"
    completed = subprocess.run(
        [sys.executable, str(examples_dir / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Exact RankHow" in completed.stdout
    assert "SYM-GD" in completed.stdout
