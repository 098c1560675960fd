"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_prints_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for fid in ["fig3a", "fig4d", "fig8", "mb-memcpy"]:
        assert fid in out


def test_unknown_figure_id_rejected():
    with pytest.raises(SystemExit):
        main(["figures", "fig99"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "doom", "--machine", "testbed"])


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "vpic", "--ranks", "0"],
    ["run", "--workload", "vpic", "--ranks", "many"],
    ["profile", "--workload", "doom"],
    ["cache", "--ranks", "-8"],
    ["cache", "--tiers", "floppy"],
    ["sched", "--jobs", "0"],
    ["sched", "--fault-rate", "-1"],
    ["sched", "--load", "nan"],
    ["sched", "--seeds", "-1"],
    ["sweep", "--workers", "0"],
    ["sweep", "--workload", "doom"],
    ["sweep", "--machines", "nowhere"],
    ["sweep", "--scales", "0"],
    ["sweep", "--kind", "sched", "--faults", "-1"],
    ["sweep", "--kind", "sched", "--cache", "on"],
    ["sweep", "--faults", "1"],
    ["check", "--workers", "0"],
    ["check", "--concurrency"],
    ["check", "--diff"],
    ["check", "--baseline", "no-such-baseline.json"],
], ids=lambda argv: " ".join(argv))
def test_invalid_input_exits_2_with_one_line_error(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err.strip().splitlines()[-1]


def test_check_with_no_paths_exits_2(tmp_path, monkeypatch, capsys):
    # No src/ or tests/ under the working directory and no paths given
    # is a usage error, not "findings found" (exit 1).
    monkeypatch.chdir(tmp_path)
    try:
        code = main(["check"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "repro check: error: no paths to check" in capsys.readouterr().err


def test_run_vpic_on_testbed(capsys):
    code = main(["run", "--workload", "vpic", "--machine", "testbed",
                 "--mode", "sync", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "peak bandwidth" in out
    assert "ranks / nodes   8 / 2" in out


def test_run_read_workload_with_prepopulate(capsys):
    code = main(["run", "--workload", "bdcats", "--machine", "testbed",
                 "--mode", "async", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bdcats (read)" in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["figures", "fig3a", "--profile", "quick"])
    assert args.ids == ["fig3a"]
    assert args.profile == "quick"
    with pytest.raises(SystemExit):
        parser.parse_args(["figures", "--profile", "warp"])


def test_figures_writes_output_files(tmp_path, capsys):
    code = main(["figures", "mb-memcpy", "--out", str(tmp_path)])
    assert code == 0
    saved = tmp_path / "mb-memcpy.txt"
    assert saved.exists()
    assert "memcpy bandwidth" in saved.read_text()


def test_profile_command(capsys):
    code = main(["profile", "--workload", "vpic", "--machine", "testbed",
                 "--mode", "async", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "I/O profile" in out
    assert "I/O-blocked fraction" in out
    assert "async" in out


def test_sweep_cache_axis(tmp_path, capsys):
    out = tmp_path / "cache.json"
    code = main(["sweep", "--workload", "bdcats", "--modes", "async",
                 "--scales", "4", "--cache", "off", "on", "--quiet",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "cache=off" in text and "cache=on" in text
    merged = json.loads(out.read_text())
    assert merged["spec"]["cache"] == ["off", "on"]
    assert [p["cache"] for p in merged["points"]] == ["off", "on"]
