"""``python -m repro.service`` CLI: method dispatch and the --methods allowlist."""

from __future__ import annotations

import json

import pytest

from repro.service.__main__ import main


def run_cli(extra: list[str], capsys) -> dict:
    argv = [
        "--queries", "4",
        "--distinct", "2",
        "--tuples", "25",
        "--json",
    ] + extra
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_serves_a_baseline_method_end_to_end(capsys):
    payload = run_cli(["--method", "linear_regression"], capsys)
    assert payload["stats"]["requests"] == 4
    # 2 distinct problems, repeated: repeats coalesce or hit the cache.
    assert payload["stats"]["solver_invocations"] == 2
    for record in payload["responses"]:
        assert record["result"]["method"] == "linear_regression"


def test_methods_flag_restricts_server(capsys):
    payload = run_cli(
        ["--methods", "linear_regression,adarank", "--method", "adarank"], capsys
    )
    assert all(
        record["result"]["method"] == "adarank"
        for record in payload["responses"]
    )


def test_methods_flag_rejects_method_outside_allowlist(capsys):
    with pytest.raises(SystemExit):
        main(["--methods", "symgd", "--method", "sampling"])
    assert "allowlist" in capsys.readouterr().err


def test_methods_flag_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit):
        main(["--methods", "symgd,bogus_method"])
    assert "bogus_method" in capsys.readouterr().err


def test_methods_flag_without_method_uses_first_allowed(capsys):
    payload = run_cli(["--methods", "linear_regression,adarank"], capsys)
    assert all(
        record["result"]["method"] == "linear_regression"
        for record in payload["responses"]
    )


def test_methods_flag_rejects_empty_allowlist(capsys):
    with pytest.raises(SystemExit):
        main(["--methods", ","])
    assert "at least one" in capsys.readouterr().err


def test_scenario_flag_serves_generated_workloads(capsys):
    payload = run_cli(
        [
            "--scenario", "rank_reversal,degenerate",
            "--method", "linear_regression",
            "--seed", "20260730",
        ],
        capsys,
    )
    assert payload["stats"]["requests"] == 4
    # Two generated problems, repeated: repeats must dedup exactly like
    # dataset-built problems do (the generator is fingerprint-stable).
    assert payload["stats"]["solver_invocations"] == 2
    for record in payload["responses"]:
        assert record["result"]["method"] == "linear_regression"


def test_scenario_flag_rejects_unknown_families(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "rank_reversal,bogus_family"])
    assert "bogus_family" in capsys.readouterr().err
