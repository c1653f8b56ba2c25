"""Command-line interface: subcommands, formats, exit codes, determinism."""

import dataclasses
import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectflow import cli, orbit
from defectflow.cli import main
from defectflow.closedform import closed_form_velocity
from defectflow.flow import CandidateFamily

MEDIUM = ["--alpha", "1", "--beta", "2", "--n-alpha", "1", "--n-beta", "1"]
M21 = ["--alpha", "1", "--beta", "2", "--n-alpha", "2", "--n-beta", "1"]
M23 = ["--alpha", "3/2", "--beta", "3", "--n-alpha", "2", "--n-beta", "3"]
HOM = ["--alpha", "1", "--n-alpha", "1", "--n-beta", "0"]


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


def test_velocity_table_rejects_huge_grid(capsys):
    code, out, err = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid", "1/8:100000:1/4"], capsys)
    assert code == 2
    assert out == ""
    assert "400000 rows" in err and "Traceback" not in err
    # the cap is 10000 grid points; points with y <= 0 cost no orbit work
    code, out, err = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid=-9999:0:1"], capsys)
    assert code == 0 and out.count("\n") == 1
    code, out, err = run_cli(
        ["velocity-table", *MEDIUM, "--y-grid=-10000:0:1"], capsys)
    assert code == 2 and "10001 rows" in err


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
    # an out-of-range x0 is refused whether or not y is on the jump grid
    for y in ("3/4", "7/8"):
        code, out, err = run_cli(["orbit", *MEDIUM, "--y", y, "--x0", "99"], capsys)
        assert (code, out) == (2, "")
        assert "x0 must lie in [0, 2)" in err


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


def test_evolve_large_period_is_fast(capsys):
    # period 2001: the Fraction scan took about 40 s for this trajectory
    start = time.perf_counter()
    code, out, err = run_cli(
        ["evolve", "--alpha", "1", "--beta", "2", "--n-alpha", "2000", "--n-beta", "1",
         "--gamma", "10", "--l1", "3", "--l2", "5", "--t-max", "100",
         "--format", "json"], capsys)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["stop_reason"] == "collapse"
    assert len(payload["segments"]) == 1
    assert payload["extinction_window"] == ["7505/42021", "13830677717/1961960490"]
    assert elapsed < 1.0


def test_velocity_table_computes_one_cycle_per_row(capsys):
    # the case_label column is derived from the row's f, not from a second cycle
    calls = []
    cycle = orbit.component_cycle

    def counted(*args):
        calls.append(args)
        return cycle(*args)

    argv = ["velocity-table", "--alpha", "1", "--beta", "2", "--n-alpha", "150",
            "--n-beta", "2", "--y-grid", "1/16:20:1/4", "--format", "json"]
    with patch.object(orbit, "component_cycle", counted):
        code, out, err = run_cli(argv, capsys)
    rows = json.loads(out)
    assert (code, err, len(rows), len(calls)) == (0, "", 80, 80)
    assert {row["singular"] for row in rows} == {"false"}
    for row in rows:
        assert row["case_label"] == closed_form_velocity(150, 2, 1, Fraction(row["y"])).case.label


def test_velocity_table_large_period_is_fast(capsys):
    # period 1000003 at alpha = 1: the walk is too slow to serve as a reference
    # here, so the rows are checked against the pinning slope and the band
    n_beta = 3
    start = time.perf_counter()
    code, out, err = run_cli(
        ["velocity-table", "--alpha", "1", "--beta", "2", "--n-alpha", "1000000",
         "--n-beta", str(n_beta), "--y-grid", "1/16:20:1/4", "--format", "json"], capsys)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert len(rows) == 80
    for row in rows:
        y, f = Fraction(row["y"]), Fraction(row["f"])
        if y < Fraction(n_beta + 2, 4):
            assert f == 0
        assert abs(f - 2 * y) <= Fraction(2 * n_beta + 1, 2)
    assert elapsed < 1.0


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


def test_simulate_brute_empty_set_is_extinction(capsys):
    # the exhaustive minimizer is the empty set: 11/5 against 51/20 for the
    # best rectangle in the first case, 172/77 against 134/55 in the second
    for argv in (["--epsilon", "1/10", "--steps", "2", "--rect", "0:9:0:9"],
                 ["--gamma", "77/160", "--epsilon", "1/20", "--steps", "1",
                  "--rect", "1:15:1:11"]):
        code, out, err = run_cli(["simulate", *HOM, *argv, "--mode", "brute",
                                  "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"rows": [], "stop_reason": "extinction"}


def test_simulate_brute_family_bound_with_three_defect_rows(capsys):
    # for n_beta >= 2 the family bound must not stop below n_beta
    code, out, err = run_cli(
        ["simulate", "--alpha", "1", "--beta", "2", "--n-alpha", "2",
         "--n-beta", "3", "--gamma", "39/40", "--epsilon", "1/20", "--steps", "1",
         "--rect", "4:24:4:29", "--mode", "brute"], capsys)
    assert (code, err) == (0, "")
    assert out.strip().split("\n")[1] == "1,5,23,5,28,1,1,1,1,43/10,3/13"


@pytest.mark.parametrize("module, argv", [
    ("defectflow.cli", ["orbit", *MEDIUM, "--y", "7/8"]),
    ("defectflow.evolution", ["evolve", *MEDIUM, "--l1", "1", "--l2", "1",
                              "--t-max", "1"]),
])
def test_internal_assertion_exits_1_without_traceback(monkeypatch, capsys, module, argv):
    def broken(*args, **kwargs):
        raise AssertionError("orbit failed to close within the pigeonhole bound")
    name = "run_orbit" if module == "defectflow.cli" else "component_velocity"
    monkeypatch.setattr(f"{module}.{name}", broken)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: internal: orbit failed to close within the pigeonhole bound\n"


def test_family_bound_breach_exits_1_as_internal(monkeypatch, capsys):
    # every side moves one cell, onto the edge of a family of offsets 0..1
    monkeypatch.setattr("defectflow.flow.default_family",
                        lambda config, current: CandidateFamily(base=current, max_offset=1))
    code, out, err = run_cli(["simulate", *M21, "--gamma", "49/60", "--epsilon", "1/30",
                              "--steps", "1", "--rect", "2:29:2:29", "--mode", "brute"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: internal: minimizer at offsets (1, 1, 1, 1) touches the family bound 1\n"


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


def test_validate_injected_mismatch_fails(monkeypatch, capsys):
    from defectflow import validation

    def off_by_one(*args):
        exact = closed_form_velocity(*args)
        return dataclasses.replace(exact, value=exact.value + 1)

    monkeypatch.setattr(validation, "closed_form_velocity", off_by_one)
    code, out, _ = run_cli(["validate", "--n-alpha-max", "4"], capsys)
    assert code == 1
    assert "FAIL oracle_equivalence" in out


def test_validate_refuses_large_n_alpha_max_before_any_work(monkeypatch, capsys):
    from defectflow import validation

    swept = []
    monkeypatch.setattr(validation, "oracle_equivalence_failures",
                        lambda n_alpha_max: swept.append(n_alpha_max) or [])
    monkeypatch.setattr(validation, "invariant_failures", lambda: [])
    assert run_cli(["validate", "--n-alpha-max", "24"], capsys) == \
        (0, "PASS oracle_equivalence\nPASS invariants\n", "")
    for n in ("25", "96", "10000000"):
        code, out, err = run_cli(["validate", "--n-alpha-max", n], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --n-alpha-max {n} is more than 24\n"
    assert swept == [24]


@pytest.mark.parametrize("argv", [
    ["simulate", *HOM, "--epsilon", "1/10", "--steps", "1", "--rect", "0:9:0:9",
     "--floor", "2"],
    ["validate", "--n-alpha-max", "1", "--inject-mismatch"],
])
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["orbit", "--alpha", "1/0", "--beta", "2", "--n-alpha", "1", "--n-beta", "1",
     "--y", "7/8"],
    ["velocity-table", *MEDIUM, "--y-grid", "1/8:1/0:1/4"],
    ["evolve", *MEDIUM, "--gamma", "1/0", "--l1", "1", "--l2", "1", "--t-max", "1"],
])
def test_zero_denominator_exits_2(capsys, argv):
    # argparse reports the bad literal; Fraction never sees it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "1/0" in captured.err and "Traceback" not in captured.err


# sha256 of "rc\nstdout\nstderr" (stderr left out when argparse exits), first
# 16 hex digits: every subcommand in both formats, a singular orbit, a floor
# stop, an extinction, and exits 1 and 2
PINNED = [
    (["velocity-table", *MEDIUM, "--y-grid", "1/8:21/8:1/4"], "d7967293f0330ec5"),
    (["velocity-table", *MEDIUM, "--y-grid", "1/8:21/8:1/4", "--format", "json"],
     "ec1fd3c900acb1c0"),
    (["velocity-table", *M23, "--y-grid", "1/8:3:1/3"], "8a2dd66332a857b8"),
    (["velocity-table", *M23, "--y-grid", "1/8:3:1/3", "--format", "json"],
     "cc20d749729dd4d4"),
    (["velocity-table", *MEDIUM, "--y-grid", "1/8:9/8:0"], "3ae5c04837fa2fd2"),
    (["velocity-table", *MEDIUM, "--y-grid", "1/8:100000:1/4"], "1feef1aa0bea561f"),
    (["orbit", *MEDIUM, "--y", "7/8"], "abea4fb2b9bf759f"),
    (["orbit", *MEDIUM, "--y", "7/8", "--format", "json"], "9a1695f696fa21b5"),
    (["orbit", *M21, "--y", "13/8", "--x0", "1"], "be0ee77682abfb2f"),
    (["orbit", *M21, "--y", "13/8", "--x0", "1", "--format", "json"], "948a31e77e050fd1"),
    (["orbit", *MEDIUM, "--y", "3/4"], "db6d3c268f630dfb"),
    (["orbit", *MEDIUM, "--y", "3/4", "--format", "json"], "d081b772ee28987e"),
    (["orbit", *MEDIUM, "--y=-1/2"], "b73b4d9d843f0350"),
    (["orbit", *MEDIUM, "--y", "7/8", "--x0", "99"], "4a3ac856104370ed"),
    (["orbit", *MEDIUM], "b182162abfa9c6ff"),
    (["evolve", *MEDIUM, "--l1", "1", "--l2", "1", "--t-max", "1"], "d90ab7b690c6ce92"),
    (["evolve", *MEDIUM, "--l1", "1", "--l2", "1", "--t-max", "1", "--format", "json"],
     "233927c8e6ca3ac2"),
    (["evolve", *MEDIUM, "--l1", "10", "--l2", "10", "--t-max", "2", "--format", "json"],
     "f70f488ef4216e1f"),
    (["evolve", *M21, "--gamma", "3", "--l1", "1", "--l2", "9", "--t-max", "4"],
     "4e4b47d416aa69ec"),
    (["evolve", *M21, "--gamma", "3", "--l1", "1", "--l2", "9", "--t-max", "4",
      "--format", "json"], "00069b311ec910e2"),
    (["evolve", *MEDIUM, "--l1", "0", "--l2", "1", "--t-max", "1"], "1877f613f1808f53"),
    (["simulate", *M21, "--epsilon", "1/11", "--steps", "1", "--rect", "2:11:2:11"],
     "8ddc62420167fe21"),
    (["simulate", *M21, "--epsilon", "1/11", "--steps", "1", "--rect", "2:11:2:11",
      "--format", "json"], "e85ccb0b6ef43eaf"),
    (["simulate", *M21, "--epsilon", "1/12", "--steps", "50", "--gamma", "35/48",
      "--rect", "2:11:2:11"], "4e32688c43a99622"),
    (["simulate", *M21, "--epsilon", "1/12", "--steps", "50", "--gamma", "35/48",
      "--rect", "2:11:2:11", "--format", "json"], "42045a6146a58c05"),
    (["simulate", *HOM, "--epsilon", "1", "--gamma", "10", "--steps", "3",
      "--rect", "0:5:0:5"], "7630a9c35d7307b1"),
    (["simulate", *M21, "--epsilon", "1/20", "--steps", "2", "--rect", "2:41:2:41",
      "--gamma", "7/4", "--mode", "brute"], "76f2df181dfee080"),
    (["simulate", *M21, "--epsilon", "1/20", "--steps", "2", "--rect", "2:41:2:41",
      "--gamma", "7/4", "--mode", "brute", "--format", "json"], "251a3ce06c6717e1"),
    (["simulate", "--alpha", "1", "--beta", "2", "--n-alpha", "2", "--n-beta", "3",
      "--gamma", "39/40", "--epsilon", "1/20", "--steps", "1", "--rect", "4:24:4:29",
      "--mode", "brute"], "0c06ef58c006ec2d"),
    (["simulate", *M21, "--epsilon", "1/11", "--steps", "1", "--rect", "1:11:2:11"],
     "92228e5a163b4d5a"),
    (["simulate", *M21, "--epsilon", "0", "--steps", "1", "--rect", "2:11:2:11"],
     "32c7f9889e8a7ead"),
    (["validate", "--n-alpha-max", "3"], "e7d4115121defa2c"),
    (["velocity-table", *MEDIUM, "--y-grid", "1/8:9/8:1/4",
      "--out", "/nonexistent-dir/t.csv"], "4914fb94e1c563e5"),
    # the exhaustive minimizer is the empty set; the family-bound error
    # (885e8cbe3f1adea0) and the rectangle 3:13:2:10 (ff875f0815e25820) were wrong
    (["simulate", *HOM, "--epsilon", "1/10", "--steps", "2", "--rect", "0:9:0:9",
      "--mode", "brute"], "7630a9c35d7307b1"),
    (["simulate", *HOM, "--gamma", "77/160", "--epsilon", "1/20", "--steps", "1",
      "--rect", "1:15:1:11", "--mode", "brute"], "7630a9c35d7307b1"),
]


@pytest.mark.parametrize("argv, expected", PINNED,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(PINNED)])
def test_pinned_output_bytes(capsys, argv, expected):
    assert pinned_digest(argv, capsys) == expected


def pinned_digest(argv, capsys) -> str:
    try:
        code, keep_err = main(argv), True
    except SystemExit as exc:  # argparse's wording varies between Python versions
        code, keep_err = exc.code, False
    out, err = capsys.readouterr()
    text = f"{code}\n{out}\n{err if keep_err else ''}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_reused_parser_carries_no_state(capsys):
    # every pinned call forward and then in reverse, in one process, with an
    # argparse rejection and a model ValueError between calls
    rejected = ["velocity-table", *MEDIUM, "--y-grid", "0.5:2:0.25"]
    invalid = ["evolve", *MEDIUM, "--l1", "0", "--l2", "1", "--t-max", "1"]
    for argv, expected in PINNED + PINNED[::-1]:
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert (exc.value.code, main(invalid)) == (2, 2)
        capsys.readouterr()
        assert pinned_digest(argv, capsys) == expected, argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    build = cli.build_parser
    assert build() is not build()  # the public builder still returns a new parser
    builds = []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, expected in PINNED[:8]:
        assert pinned_digest(argv, capsys) == expected
    assert len(builds) == 1


def test_main_runs_a_command_replaced_after_the_first_call(monkeypatch, capsys):
    # the parser outlives the call that built it, so dispatch must not hold
    # on to the cmd_* functions it saw then
    argv = ["orbit", *MEDIUM, "--y", "7/8"]
    assert main(argv) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_orbit", lambda args: seen.append(args.y) or 0)
    assert run_cli(argv, capsys) == (0, "", "")
    assert seen == [Fraction(7, 8)]


LENGTHS = ("1/4", "1/2", "3/4", "7/8", "1", "3/2", "2", "3")


@st.composite
def cli_argv(draw):
    """velocity-table, orbit, evolve or simulate argv over small parameter sets."""
    def pick(*values):
        return draw(st.sampled_from(values))

    def count(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def span():  # rect bounds, mostly ordered so that the rectangle has cells
        return sorted(draw(st.integers(-2, 14)) for _ in range(2))

    # valid values first: hypothesis shrinks towards the first of a set
    command = pick("velocity-table", "orbit", "evolve", "simulate")
    argv = [command, "--alpha", pick("1", "1/2", "3/2"),
            "--n-alpha", pick("1", "2", "3", "0", "-1"),
            "--n-beta", pick("1", "0", "2", "3", "-1")]
    beta = pick("2", "3", "1", None)
    if beta is not None:
        argv += ["--beta", beta]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    if command == "velocity-table":
        argv += ["--y-grid", ":".join(pick(*LENGTHS) for _ in range(3))]
    elif command == "orbit":
        argv += ["--y", pick(*LENGTHS), "--x0", count(-1, 4)]
    elif command == "evolve":
        argv += ["--gamma", pick(*LENGTHS), "--l1", pick(*LENGTHS),
                 "--l2", pick(*LENGTHS), "--t-max", pick(*LENGTHS)]
    else:
        argv += ["--gamma", pick(*LENGTHS), "--epsilon", pick(*LENGTHS),
                 "--steps", count(0, 3), "--mode", pick("per-side", "brute"),
                 "--rect=" + ":".join(map(str, [*span(), *span()]))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cli_argv())
def test_cli_exits_0_1_or_2_without_traceback(argv):
    # every example runs in this process, through the one parser main() keeps
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
