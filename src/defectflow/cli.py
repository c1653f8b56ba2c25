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

from .closedform import closed_form_velocity
from .evolution import RectState, classify_regime, integrate
from .flow import FamilyTooSmallError, FlowConfig, run_flow
from .lattice import AlphaRectangle, MediumSpec
from .orbit import (SingularInputError, effective_velocity, homogeneous_velocity,
                    is_singular, pinning_threshold, run_orbit)
from .rationals import format_rational, parse_rational


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
    if q is None:
        return ""
    return format_rational(q)


def _write(out_path: str, text: str):
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def cmd_velocity_table(args) -> int:
    spec = _medium(args)
    start, stop, step = args.y_grid
    if step <= 0:
        print("error: grid step must be positive", file=sys.stderr)
        return 2
    rows = []
    y = start
    while y <= stop:
        if y > 0:
            res = effective_velocity(spec, y)
            hom = homogeneous_velocity(spec.alpha, y)
            label = ""
            if spec.n_beta in (1, 2) and not res.singular:
                label = closed_form_velocity(spec.n_alpha, spec.n_beta, spec.alpha, y).case.label
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
            rows.append({
                "y": _fr(y), "f": _fr(res.value),
                "f_lower": _fr(res.lower), "f_upper": _fr(res.upper),
                "singular": "true" if res.singular else "false",
                "M": "" if res.period_steps is None else res.period_steps,
                "n": "" if res.period_cells is None else res.period_cells // spec.period
                     if spec.period else "",
                "homogeneous_f": _fr(hom),
                "case_label": label, "trend": trend,
            })
        y += step
    header = ["y", "f", "f_lower", "f_upper", "singular", "M", "n",
              "homogeneous_f", "case_label", "trend"]
    if args.format == "json":
        _write(args.out, json.dumps(rows, indent=None, sort_keys=False) + "\n")
    else:
        _write(args.out, _csv_text(header, [[r[h] for h in header] for r in rows]))
    return 0


def cmd_orbit(args) -> int:
    spec = _medium(args)
    if args.y <= 0:
        print("error: y must be positive", file=sys.stderr)
        return 2
    if is_singular(spec, args.y):
        res = effective_velocity(spec, args.y)
        payload = {"y": _fr(args.y), "singular": True,
                   "f_lower": _fr(res.lower), "f_upper": _fr(res.upper)}
        if args.format == "json":
            _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
        else:
            _write(args.out, _csv_text(["y", "singular", "f_lower", "f_upper"],
                                       [[payload["y"], "true",
                                         payload["f_lower"], payload["f_upper"]]]))
        return 0
    trace = run_orbit(spec, args.y, args.x0)
    if args.format == "json":
        payload = {"y": _fr(args.y), "x0": args.x0, "singular": False,
                   "positions": list(trace.positions), "steps": list(trace.steps),
                   "pre_period": trace.pre_period,
                   "period_steps": trace.period_steps,
                   "period_cells": trace.period_cells,
                   "velocity": _fr(trace.velocity)}
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        rows = []
        for k, pos in enumerate(trace.positions):
            step = trace.steps[k] if k < len(trace.steps) else ""
            rows.append([k, pos, step, trace.pre_period, trace.period_steps,
                         trace.period_cells, _fr(trace.velocity)])
        _write(args.out, _csv_text(
            ["k", "position", "step", "pre_period", "period_steps",
             "period_cells", "velocity"], rows))
    return 0


def cmd_evolve(args) -> int:
    spec = _medium(args)
    if args.l1 <= 0 or args.l2 <= 0 or args.t_max <= 0:
        print("error: l1, l2, t_max must be positive", file=sys.stderr)
        return 2
    traj = integrate(spec, args.gamma, RectState(l1=args.l1, l2=args.l2),
                     t_max=args.t_max)
    if args.format == "json":
        payload = {
            "regime": traj.regime,
            "stop_reason": traj.stop_reason,
            "extinction_window": None if traj.extinction_window is None
            else [_fr(traj.extinction_window[0]), _fr(traj.extinction_window[1])],
            "segments": [
                {"t_start": _fr(s.t_start), "t_end": _fr(s.t_end),
                 "l1_start": _fr(s.l1_start), "l2_start": _fr(s.l2_start),
                 "slope1": _fr(s.slope1), "slope2": _fr(s.slope2)}
                for s in traj.segments],
        }
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        rows = [[_fr(s.t_start), _fr(s.t_end), _fr(s.l1_start), _fr(s.l2_start),
                 _fr(s.slope1), _fr(s.slope2)] for s in traj.segments]
        _write(args.out, _csv_text(
            ["t_start", "t_end", "l1_start", "l2_start", "slope1", "slope2"], rows))
    return 0


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
    try:
        config = FlowConfig(spec=spec, gamma=args.gamma, epsilon=args.epsilon,
                            initial=args.rect, steps=args.steps, mode=mode,
                            delta_floor_cells=args.floor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_flow(config)
    rows = []
    for rec in result.records:
        r = rec.rect
        rows.append([rec.step, r.x_min, r.x_max, r.y_min, r.y_max,
                     rec.displacements["left"], rec.displacements["right"],
                     rec.displacements["bottom"], rec.displacements["top"],
                     _fr(rec.perimeter), _fr(rec.dissipation)])
    header = ["step", "x_min", "x_max", "y_min", "y_max",
              "d_left", "d_right", "d_bottom", "d_top", "perimeter", "dissipation"]
    if args.format == "json":
        payload = {"stop_reason": result.stop_reason,
                   "rows": [dict(zip(header, row)) for row in rows]}
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _write(args.out, _csv_text(header, rows))
    return 0


def cmd_validate(args) -> int:
    # imported here: only validate needs it, and every CLI start pays for imports
    from .validation import invariant_failures, oracle_equivalence_failures

    fails = oracle_equivalence_failures(n_alpha_max=args.n_alpha_max,
                                        inject_mismatch=args.inject_mismatch)
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
        p.add_argument("--gamma", type=_rational, default=Fraction(1))

    p = sub.add_parser("velocity-table", help="effective velocity over a y grid")
    _add_medium_args(p)
    common(p)
    p.add_argument("--y-grid", type=_parse_grid, required=True,
                   metavar="START:STOP:STEP")
    p.set_defaults(func=cmd_velocity_table)

    p = sub.add_parser("orbit", help="orbit of the one-dimensional side scheme")
    _add_medium_args(p)
    common(p)
    p.add_argument("--y", type=_rational, required=True)
    p.add_argument("--x0", type=int, default=0)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("evolve", help="limit rectangle evolution")
    _add_medium_args(p)
    common(p)
    p.add_argument("--l1", type=_rational, required=True)
    p.add_argument("--l2", type=_rational, required=True)
    p.add_argument("--t-max", type=_rational, required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("simulate", help="discrete rectangle flow at a given epsilon")
    _add_medium_args(p)
    common(p)
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=("per-side", "brute"), default="per-side")
    p.add_argument("--rect", type=_parse_rect, required=True,
                   metavar="XMIN:XMAX:YMIN:YMAX")
    p.add_argument("--floor", type=int, default=4)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="cross-check closed forms against orbits")
    p.add_argument("--n-alpha-max", type=int, default=12)
    p.add_argument("--inject-mismatch", action="store_true",
                   help="deliberately corrupt one comparison (harness self-test)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except FamilyTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
