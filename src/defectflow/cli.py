"""Command-line front end.

Subcommands: velocity-table, orbit, evolve, simulate, validate.  All model
parameters are exact rationals written as 'p/q' (decimals are rejected) and
all output is deterministic: same arguments, same bytes.

Exit codes: 0 success, 1 validation or runtime failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .closedform import case_tag
from .evolution import RectState, integrate
from .flow import FlowConfig, run_flow
from .lattice import AlphaRectangle, MediumSpec
from .orbit import SingularInputError, effective_velocity, homogeneous_velocity, run_orbit
from .rationals import format_rational, parse_rational

# velocity-table work grows with the row count; larger grids are refused
_MAX_TABLE_ROWS = 10_000
# validate's sweep time grows about 6-fold per doubling (9 s at 24); larger values are refused
_MAX_VALIDATE_N_ALPHA = 24


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_medium_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, default=None)
    p.add_argument("--n-alpha", type=int, required=True)
    p.add_argument("--n-beta", type=int, required=True)


def _medium(args) -> MediumSpec:
    return MediumSpec(alpha=args.alpha, beta=args.beta,
                      n_alpha=args.n_alpha, n_beta=args.n_beta)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:step")
    return tuple(parse_rational(p) for p in parts)


def _fr(q) -> str:
    return "" if q is None else format_rational(q)


def _write(out_path: str, text: str):
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit(args, header, rows, payload) -> int:
    """Write payload as JSON or header and rows as CSV, as --format asks."""
    if args.format == "json":
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        _write(args.out, buf.getvalue())
    return 0


def cmd_velocity_table(args) -> int:
    spec = _medium(args)
    start, stop, step = args.y_grid
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = max(0, (stop - start) // step + 1)
    if count > _MAX_TABLE_ROWS:
        raise ValueError(f"y grid has {count} rows, more than {_MAX_TABLE_ROWS}")
    header = ["y", "f", "f_lower", "f_upper", "singular", "M", "n",
              "homogeneous_f", "case_label", "trend"]
    rows = []
    y = start
    while y <= stop:
        if y > 0:
            res = effective_velocity(spec, y)
            hom = homogeneous_velocity(spec.alpha, y)
            label = ""
            if spec.n_beta in (1, 2) and not res.singular:
                label = case_tag(spec.n_alpha, spec.n_beta, int(hom), res.value).label
            if res.singular:
                trend = ""
            elif res.value == 0:
                trend = "pinned"
            elif res.value > hom:
                trend = "accel"
            elif res.value < hom:
                trend = "decel"
            else:
                trend = "equal"
            rows.append([
                _fr(y), _fr(res.value), _fr(res.lower), _fr(res.upper),
                "true" if res.singular else "false",
                "" if res.period_steps is None else res.period_steps,
                "" if res.period_cells is None else res.period_cells // spec.period,
                _fr(hom), label, trend])
        y += step
    if args.format == "json":  # a list of rows with their keys in column order
        _write(args.out, json.dumps([dict(zip(header, row)) for row in rows]) + "\n")
        return 0
    return _emit(args, header, rows, None)


def cmd_orbit(args) -> int:
    spec = _medium(args)
    try:
        # run_orbit checks x0 before refusing a y on the jump grid
        trace = run_orbit(spec, args.y, args.x0)
    except SingularInputError:
        res = effective_velocity(spec, args.y)
        row = [_fr(args.y), "true", _fr(res.lower), _fr(res.upper)]
        header = ["y", "singular", "f_lower", "f_upper"]
        return _emit(args, header, [row], dict(zip(header, row), singular=True))
    steps, velocity = trace.steps, _fr(trace.velocity)
    # a generator: only the CSV output reads the rows
    rows = ([k, pos, steps[k] if k < len(steps) else "", trace.pre_period,
             trace.period_steps, trace.period_cells, velocity]
            for k, pos in enumerate(trace.positions))
    payload = {"y": _fr(args.y), "x0": args.x0, "singular": False,
               "positions": list(trace.positions), "steps": list(steps),
               "pre_period": trace.pre_period, "period_steps": trace.period_steps,
               "period_cells": trace.period_cells, "velocity": velocity}
    return _emit(args, ["k", "position", "step", "pre_period", "period_steps",
                        "period_cells", "velocity"], rows, payload)


def cmd_evolve(args) -> int:
    spec = _medium(args)
    if args.l1 <= 0 or args.l2 <= 0 or args.t_max <= 0:
        raise ValueError("l1, l2, t_max must be positive")
    traj = integrate(spec, args.gamma, RectState(l1=args.l1, l2=args.l2),
                     t_max=args.t_max)
    header = ["t_start", "t_end", "l1_start", "l2_start", "slope1", "slope2"]
    rows = [[_fr(s.t_start), _fr(s.t_end), _fr(s.l1_start), _fr(s.l2_start),
             _fr(s.slope1), _fr(s.slope2)] for s in traj.segments]
    window = traj.extinction_window
    payload = {"regime": traj.regime, "stop_reason": traj.stop_reason,
               "extinction_window": None if window is None else [_fr(t) for t in window],
               "segments": [dict(zip(header, row)) for row in rows]}
    return _emit(args, header, rows, payload)


def _parse_rect(text: str) -> AlphaRectangle:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("rect must be x_min:x_max:y_min:y_max")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("rect bounds must be integers")
    return AlphaRectangle(*vals)


def cmd_simulate(args) -> int:
    spec = _medium(args)
    mode = "per_side" if args.mode == "per-side" else "brute_force"
    config = FlowConfig(spec=spec, gamma=args.gamma, epsilon=args.epsilon,
                        initial=args.rect, steps=args.steps, mode=mode)
    result = run_flow(config)
    sides = ("left", "right", "bottom", "top")
    rows = [[rec.step, rec.rect.x_min, rec.rect.x_max, rec.rect.y_min, rec.rect.y_max,
             *(rec.displacements[s] for s in sides), _fr(rec.perimeter), _fr(rec.dissipation)]
            for rec in result.records]
    header = ["step", "x_min", "x_max", "y_min", "y_max",
              "d_left", "d_right", "d_bottom", "d_top", "perimeter", "dissipation"]
    return _emit(args, header, rows, {"stop_reason": result.stop_reason,
                                      "rows": [dict(zip(header, row)) for row in rows]})


def cmd_validate(args) -> int:
    if args.n_alpha_max > _MAX_VALIDATE_N_ALPHA:
        raise ValueError(f"--n-alpha-max {args.n_alpha_max} is more than {_MAX_VALIDATE_N_ALPHA}")
    # imported here: only validate needs it, and every CLI start pays for imports
    from .validation import invariant_failures, oracle_equivalence_failures

    fails = oracle_equivalence_failures(n_alpha_max=args.n_alpha_max)
    print(f"FAIL oracle_equivalence: {len(fails)} mismatches, first: {fails[0]}"
          if fails else "PASS oracle_equivalence")
    inv = invariant_failures()
    print(f"FAIL invariants: first: {inv[0]}" if inv else "PASS invariants")
    return 1 if fails or inv else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectflow",
        description="Interface motion in a periodic two-phase lattice medium")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("velocity-table", help="effective velocity over a y grid")
    _add_medium_args(p)
    common(p)
    p.add_argument("--y-grid", type=_parse_grid, required=True,
                   metavar="START:STOP:STEP")

    p = sub.add_parser("orbit", help="orbit of the one-dimensional side scheme")
    _add_medium_args(p)
    common(p)
    p.add_argument("--y", type=_rational, required=True)
    p.add_argument("--x0", type=int, default=0)

    p = sub.add_parser("evolve", help="limit rectangle evolution")
    _add_medium_args(p)
    common(p)
    p.add_argument("--gamma", type=_rational, default=Fraction(1))
    p.add_argument("--l1", type=_rational, required=True)
    p.add_argument("--l2", type=_rational, required=True)
    p.add_argument("--t-max", type=_rational, required=True)

    p = sub.add_parser("simulate", help="discrete rectangle flow at a given epsilon")
    _add_medium_args(p)
    common(p)
    p.add_argument("--gamma", type=_rational, default=Fraction(1))
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=("per-side", "brute"), default="per-side")
    p.add_argument("--rect", type=_parse_rect, required=True,
                   metavar="XMIN:XMAX:YMIN:YMAX")

    p = sub.add_parser("validate", help="cross-check closed forms against orbits")
    p.add_argument("--n-alpha-max", type=int, default=12)

    return parser


# built on main()'s first call and reused after, since the build costs more
# than most jobs; commands are looked up by name at call time so that a
# cmd_* replaced on the module (by a tracer or a test) is the one that runs
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # an orbit, the event walk or the exhaustive step's offsets ran past a bound
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
