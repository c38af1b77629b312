"""Smoke tests: every CLI subcommand runs end-to-end via ``cli.main``.

Each case invokes the real argparse entry point with fast parameters and
asserts a zero exit code plus non-empty output — the contract a user (or
a CI script) relies on for ``python -m repro <command>``.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro import cli

SMOKE_CASES = [
    pytest.param(["info"], id="info"),
    pytest.param(["demo", "--seed", "7"], id="demo"),
    pytest.param(
        ["experiment", "--flows", "1", "--seconds", "2", "--rate", "0.2"],
        id="experiment",
    ),
    pytest.param(
        ["turret", "--iterations", "1", "--seconds", "2", "--seed", "0"],
        id="turret",
    ),
    pytest.param(
        ["chaos", "--seconds", "5", "--flows", "1", "--link-level",
         "--print-schedule"],
        id="chaos",
    ),
    pytest.param(
        ["stats", "--seconds", "2", "--flows", "1"],
        id="stats",
    ),
    pytest.param(
        ["live", "--nodes", "2", "--duration", "1", "--rate", "10"],
        id="live",
    ),
    pytest.param(
        ["live", "--nodes", "3", "--duration", "1.5", "--rate", "10",
         "--chaos", "soak", "--seed", "5"],
        id="live-chaos",
    ),
    pytest.param(
        ["stats", "--live", "--seconds", "1", "--seed", "5"],
        id="stats-live",
    ),
    pytest.param(
        ["cluster", "--nodes", "6", "--shards", "2", "--duration", "2",
         "--rate", "5", "--joins", "0", "--leaves", "0", "--seed", "4"],
        id="cluster",
    ),
    pytest.param(
        ["perfbench", "--quick", "--seed", "0"],
        id="perfbench",
    ),
    pytest.param(
        ["overload", "--nodes", "6", "--duration", "2", "--drain", "1",
         "--base-rate", "10", "--multipliers", "1,4", "--seed", "0"],
        id="overload",
    ),
    pytest.param(
        ["slo", "--nodes", "6", "--duration", "2", "--drain", "1",
         "--base-rate", "10", "--multipliers", "1", "--intensity", "0",
         "--skip-off", "--seed", "0"],
        id="slo",
    ),
]


@pytest.mark.parametrize("argv", SMOKE_CASES)
def test_subcommand_smoke(argv, capsys):
    exit_code = cli.main(argv)
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert out.strip(), f"{argv[0]} produced no output"


def test_parser_covers_every_command():
    # The smoke list above must not silently fall behind the parser.
    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(sub.choices) == sorted({case.values[0][0] for case in SMOKE_CASES})


@pytest.mark.parametrize("command", ["overload", "slo"])
@pytest.mark.parametrize("multipliers", ["1,,2", "0", "-1", "nan"])
def test_bad_multipliers_are_usage_errors(command, multipliers, capsys):
    # A malformed, non-positive or NaN multiplier list is rejected by
    # argparse (exit 2) before any sweep runs, never a traceback or an
    # empty sweep reported as a result.
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--nodes", "6", "--duration", "1",
                  f"--multipliers={multipliers}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--multipliers" in captured.err
    assert "running" not in captured.out


def test_stats_json_is_valid(tmp_path):
    out_path = tmp_path / "report.json"
    exit_code = cli.main(
        ["stats", "--seconds", "2", "--flows", "1", "--output", str(out_path)]
    )
    assert exit_code == 0
    report = json.loads(out_path.read_text())
    assert report["params"]["flows"] == 1


def test_live_json_report_and_min_delivery(tmp_path, capsys):
    out_path = tmp_path / "live.json"
    exit_code = cli.main(
        ["live", "--nodes", "2", "--duration", "1", "--rate", "10",
         "--output", str(out_path), "--min-delivery", "0.9"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, out
    report = json.loads(out_path.read_text())
    assert report["nodes"] == 2
    assert report["delivery_ratio"] >= 0.9
    assert not report["runtime_errors"]


def test_live_chaos_report_sections(tmp_path, capsys):
    out_path = tmp_path / "live_chaos.json"
    exit_code = cli.main(
        ["live", "--nodes", "3", "--duration", "1.5", "--rate", "10",
         "--chaos", "soak", "--seed", "5", "--min-delivery", "0.99",
         "--output", str(out_path)]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "chaos:" in out and "supervision:" in out and "invariants:" in out
    assert "rx drops:" in out
    report = json.loads(out_path.read_text())
    assert report["chaos"]["injector"].keys() >= {"losses", "duplicates"}
    assert "kills" in report["supervision"]
    assert report["invariants"]["violations"] == 0
    assert report["ok"] is True


def test_live_min_delivery_gate_fails_when_unreachable(capsys):
    # An impossible bar (> 100%) must flip the exit code — this is the
    # CI gate's failure path.
    exit_code = cli.main(
        ["live", "--nodes", "2", "--duration", "1", "--rate", "10",
         "--min-delivery", "1.1"]
    )
    capsys.readouterr()
    assert exit_code == 1
