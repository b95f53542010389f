"""Command-line entry point.

    verify run       --spacetime <name|file> --suite <name> ... --out report.json
    verify worldline --spacetime <name|file> --x0 .. --v0 .. --out traj.csv
    verify gauge     --spacetime <name|file> --phi "<expr>" [--phi ...] --out report.json
    verify list

Exit status:

    0  every check passes (or the worldline stays in the chart domain)
    1  a check fails, or the worldline leaves the chart domain or exhausts its budget
    2  usage, input or load error
    3  internal error (a defect in rcgeom); the traceback goes to stderr

``--jobs`` is accepted by ``run`` and ``gauge`` and has no effect.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .catalog import _ENTRIES, CATALOG_NAMES, FIXTURE_NAMES, grid_axis
from .errors import GeometryError
from .harness import (
    SUITES,
    canonical_json,
    resolve_model,
    run_suite,
    run_worldline,
)


def _parse_pairs(pairs, option, form):
    """The values of a repeatable ``option`` given as ``form`` (NAME=VALUE),
    as floats by name."""
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise GeometryError(f"bad {option} {pair!r}, expected {form}")
        key, value = pair.split("=", 1)
        try:
            values[key.strip()] = float(value)
        except ValueError:
            raise GeometryError(f"bad {option} value {value!r}") from None
    return values


def _parse_grid(pairs):
    grid = {}
    for pair in pairs or []:
        try:
            name, spec = pair.split("=", 1)
            grid[name.strip()] = grid_axis(spec)
        except ValueError:
            raise GeometryError(f"bad --grid {pair!r}, expected coord=start:stop:count") from None
        except GeometryError as err:
            raise GeometryError(f"bad --grid {pair!r}: {err}") from None
    return grid


def _model_from_args(args):
    return resolve_model(args.spacetime, _parse_pairs(args.param, "--param", "NAME=VALUE"))


def _add_common(p):
    p.add_argument("--spacetime", required=True, help="catalog name, charge-ball, or definition file")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="parameter override (repeatable); G and c set the constants")
    p.add_argument("--diff", choices=("dual", "fd"), default="dual",
                   help="derivative engine (default: dual)")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, and each ``parse_args`` returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Grid verification of the potential-built torsionful geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a verification suite over a grid")
    _add_common(run_p)
    run_p.add_argument("--suite", choices=SUITES, default="all")
    run_p.add_argument("--grid", action="append", metavar="COORD=A:B:N",
                       help="grid override (repeatable)")
    run_p.add_argument("--tol", action="append", metavar="CHECK=VALUE",
                       help="tolerance override (repeatable)")
    run_p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    run_p.add_argument("--timing", action="store_true",
                       help="include wall_ms in the report (breaks byte determinism)")
    run_p.add_argument("--out", required=True, help="report JSON path")

    wl_p = sub.add_parser("worldline", help="integrate a charged worldline")
    _add_common(wl_p)
    wl_p.add_argument("--x0", required=True, help="initial position a,b,c,d")
    wl_p.add_argument("--v0", required=True, help="initial velocity a,b,c,d (rescaled to unit norm)")
    wl_p.add_argument("--charge-ratio", type=float, default=0.0)
    wl_p.add_argument("--ds", type=float, required=True)
    wl_p.add_argument("--steps", type=int, required=True)
    wl_p.add_argument("--method", choices=("rk4", "rk45-adaptive"), default="rk4")
    wl_p.add_argument("--renormalize-every", type=int, default=0)
    wl_p.add_argument("--save-every", type=int, default=1)
    wl_p.add_argument("--out", required=True, help="trajectory CSV path")

    sub.add_parser("list", help="list catalog entries and their parameters")

    gauge_p = sub.add_parser("gauge", help="run the gauge suite for the given gauge functions")
    _add_common(gauge_p)
    gauge_p.add_argument("--phi", required=True, action="append",
                         help="gauge function expression (repeatable; two or more "
                              "also check that the first two compose)")
    gauge_p.add_argument("--tol", action="append", metavar="CHECK=VALUE")
    gauge_p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    gauge_p.add_argument("--timing", action="store_true")
    gauge_p.add_argument("--out", required=True)

    return parser


def _cmd_run(args):
    model = _model_from_args(args)
    report = run_suite(
        args.suite,
        model,
        mode=args.diff,
        grid_overrides=_parse_grid(args.grid),
        tol_overrides=_parse_pairs(args.tol, "--tol", "check=value"),
        include_timing=args.timing,
    )
    return _write_report(report, args.out)


def _write_report(report, out):
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        # a row without a reading ended in an error, which its note names
        res = f"n/a  {c.note}" if c.max_residual is None else format(c.max_residual, ".3e")
        print(f"{status}  {c.check_id:32s} max_residual={res}")
    return 0 if report.passed else 1


def _cmd_worldline(args):
    model = _model_from_args(args)
    try:
        x0, v0 = ([float(v) for v in a.split(",")] for a in (args.x0, args.v0))
    except ValueError as err:
        raise GeometryError(f"--x0 and --v0 need four numbers: {err}") from None
    if len(x0) != 4 or len(v0) != 4:
        raise GeometryError("--x0 and --v0 need exactly four components")
    summary, traj = run_worldline(
        model, x0, v0, args.charge_ratio, ds=args.ds, steps=args.steps, method=args.method,
        renormalize_every=args.renormalize_every, save_every=args.save_every, mode=args.diff,
        out_csv=args.out)
    print(canonical_json(summary))
    return 1 if traj.exited or traj.budget_exhausted else 0


def _cmd_list(_args):
    for title, names in (("catalog entries", CATALOG_NAMES), ("fixtures", FIXTURE_NAMES)):
        print(f"{title}:")
        for name in names:
            declared = _ENTRIES[name].get("params", {})
            params = ", ".join(f"{k}={v}" for k, v in sorted(declared.items()))
            print(f"  {name:24s} params: {params or '(none)'}")
    print("a path to a definition file is accepted wherever a name is.")
    return 0


def _cmd_gauge(args):
    model = _model_from_args(args)
    report = run_suite(
        "gauge",
        model,
        mode=args.diff,
        tol_overrides=_parse_pairs(args.tol, "--tol", "check=value"),
        phis=args.phi,
        include_timing=args.timing,
    )
    return _write_report(report, args.out)


_COMMANDS = {
    "run": _cmd_run,
    "worldline": _cmd_worldline,
    "list": _cmd_list,
    "gauge": _cmd_gauge,
}


def _dash_values(parser, argv):
    """argv with ``--opt -value`` written ``--opt=-value`` for the options of
    its command that take one value (``--x0 -0.1,0,0,0``), also where, as
    argparse reads it, a unique prefix names the option (``--charge``); a next
    token that is an option of the command or starts with ``--`` stays, as do
    an ambiguous prefix and a bad command."""
    sub = parser._subparsers._group_actions[0].choices.get(argv[0] if argv else None, parser)
    takes_one = {s: a.nargs is None for a in sub._actions for s in a.option_strings}

    def named(token):
        matches = [s for s in takes_one if token.startswith("--") and s.startswith(token)]
        return matches[0] if len(matches) == 1 and token not in takes_one else token

    out = argv[:1]
    for token in argv[1:]:
        dash = token.startswith("-") and not token.startswith("--") and token not in takes_one
        if dash and takes_one.get(option := named(out[-1])):
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_dash_values(parser, sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (GeometryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - the boundary that reports defects
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
