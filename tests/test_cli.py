"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from defectflow.cli import main

MEDIUM = ["--alpha", "1", "--beta", "2", "--n-alpha", "1", "--n-beta", "1"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_velocity_table_csv(capsys):
    code, out, err = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid", "1/8:9/8:1/4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("y,f,f_lower,f_upper,singular,M,n,")
    assert len(lines) == 6
    # y = 5/8 is below the pinning threshold 3/4; y = 7/8 moves with f = 2
    pinned = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert pinned["y"] == "5/8"
    assert pinned["f"] == "0"
    assert pinned["trend"] == "pinned"
    row = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert row["y"] == "7/8"
    assert row["f"] == "2"
    assert row["singular"] == "false"


def test_velocity_table_json_and_singular_row(capsys):
    code, out, _ = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid", "3/4:3/4:1", "--format", "json"],
        capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["singular"] == "true"
    assert rows[0]["f"] == ""
    assert rows[0]["f_lower"] == "0"


def test_velocity_table_rejects_decimal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["velocity-table", *MEDIUM, "--y-grid", "0.5:2:0.25"])
    assert exc.value.code == 2


def test_orbit_csv(capsys):
    code, out, _ = run_cli(["orbit", *MEDIUM, "--y", "7/8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,position,step,pre_period,period_steps,period_cells,velocity"
    last = lines[-1].split(",")
    assert last[-1] == "2"


def test_orbit_json_singular(capsys):
    code, out, _ = run_cli(
        ["orbit", *MEDIUM, "--y", "3/4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["singular"] is True
    assert payload["f_lower"] == "0"


def test_orbit_rejects_nonpositive_y(capsys):
    code, _, err = run_cli(["orbit", *MEDIUM, "--y=-1/2"], capsys)
    assert code == 2
    assert "positive" in err


def test_evolve_json_unit_square(capsys):
    code, out, _ = run_cli(
        ["evolve", *MEDIUM, "--l1", "1", "--l2", "1", "--t-max", "1",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "vanishing"
    assert payload["stop_reason"] == "collapse"
    seg0 = payload["segments"][0]
    assert seg0["t_end"] == "3/28"
    assert seg0["slope1"] == "-4"
    assert payload["extinction_window"][0] == "41/308"


def test_evolve_csv_pinned(capsys):
    code, out, _ = run_cli(
        ["evolve", *MEDIUM, "--l1", "10", "--l2", "10", "--t-max", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[4:] == ["0", "0"]


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        ["simulate", "--alpha", "1", "--beta", "2", "--n-alpha", "2",
         "--n-beta", "1", "--epsilon", "1/11", "--steps", "1",
         "--rect", "2:11:2:11", "--gamma", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["d_left"] == "1" and row["d_top"] == "1"
    assert row["x_min"] == "3" and row["x_max"] == "10"


def test_simulate_brute_json(capsys):
    code, out, _ = run_cli(
        ["simulate", "--alpha", "1", "--beta", "2", "--n-alpha", "2",
         "--n-beta", "1", "--epsilon", "1/20", "--steps", "2",
         "--rect", "2:41:2:41", "--gamma", "7/4", "--mode", "brute",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stop_reason"] == "steps"
    assert len(payload["rows"]) == 2


def test_simulate_rejects_non_alpha_rect(capsys):
    code, _, err = run_cli(
        ["simulate", "--alpha", "1", "--beta", "2", "--n-alpha", "2",
         "--n-beta", "1", "--epsilon", "1/11", "--steps", "1",
         "--rect", "1:11:2:11"], capsys)
    assert code == 2
    assert "error" in err


def test_simulate_family_bound_error_exits_1(capsys):
    # the exhaustive minimizer here is the empty set, which the family lacks
    code, out, err = run_cli(
        ["simulate", "--alpha", "1", "--n-alpha", "1", "--n-beta", "0",
         "--epsilon", "1/10", "--steps", "2", "--rect", "0:9:0:9",
         "--mode", "brute"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_output_to_file(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid", "1/8:9/8:1/4",
         "--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    assert text.startswith("y,f,")


def test_output_file_error(capsys):
    code, _, err = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid", "1/8:9/8:1/4",
         "--out", "/nonexistent-dir/table.csv"], capsys)
    assert code == 1
    assert "error" in err


def test_deterministic_output(capsys):
    argv = ["velocity-table", *MEDIUM, "--y-grid", "1/8:21/8:1/4",
            "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_validate_small_sweep(capsys):
    code, out, _ = run_cli(["validate", "--n-alpha-max", "4"], capsys)
    assert code == 0
    assert "PASS oracle_equivalence" in out
    assert "PASS invariants" in out


def test_validate_injected_mismatch_fails(capsys):
    code, out, _ = run_cli(
        ["validate", "--n-alpha-max", "4", "--inject-mismatch"], capsys)
    assert code == 1
    assert "FAIL oracle_equivalence" in out


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
