"""Command-line interface: analyze, param, theory, version subcommands.

Exit codes: 0 success (including fold warnings), 1 failed theory check or
solver failure, 2 I/O, parse or usage error (including out-of-range
arguments), 3 validation/topology error.  All stored values are radians;
``--degrees`` converts displayed summary lines only, never the JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .beltrami import MeshMap
from .errors import (
    DomainError,
    NonManifoldEdgeError,
    ParseError,
    SolverError,
    TopologyError,
    ValidationError,
)
from .mesh import _read_mesh, load_mesh, save_mesh
from .parameterize import WEIGHT_CHOICES, ParamConfig, tutte_disk
from .report import (
    DEFAULT_BINS,
    FIELD_NAMES,
    export_colored_mesh,
    export_report,
    report_json,
    summarize,
)
from .theory import MIN_GRID, deviation_suite, extremal_bisector_suite, run_all_checks

_ANGLE_FIELDS = ("eps_angle_t", "eps_mu_t")

# exit code of each error type a command may raise; one "error: <message>"
# line goes to stderr
_EXIT_CODES = {
    SolverError: 1,
    OSError: 2,
    ParseError: 2,
    DomainError: 2,
    ValidationError: 3,
    NonManifoldEdgeError: 3,
    TopologyError: 3,
}


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # defined on the root parser and again on every subparser (with a
    # SUPPRESS default) so it is accepted on either side of the subcommand
    parser.add_argument(
        "--quiet", action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="suppress summary output on stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdistort",
        description="Beltrami-coefficient and angular-distortion analysis "
        "of triangle mesh maps.",
    )
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="distortion report for a source/target mesh pair")
    p_an.add_argument("source", help="source mesh (OBJ or OFF)")
    p_an.add_argument("target", help="target mesh with identical connectivity")
    p_an.add_argument("--out", default="report.json", metavar="PATH",
                      help="JSON report path (default: report.json)")
    p_an.add_argument("--csv", metavar="PATH", help="also write a per-face CSV")
    p_an.add_argument("--ply-out", metavar="PATH",
                      help="write the target mesh as color-coded PLY")
    p_an.add_argument("--field", choices=FIELD_NAMES, default="abs_mu",
                      help="field for --ply-out coloring (default: abs_mu)")
    p_an.add_argument("--bins", type=int, default=DEFAULT_BINS,
                      help=f"histogram bin count (default: {DEFAULT_BINS})")
    p_an.add_argument("--json", action="store_true",
                      help="print the full JSON report to stdout instead of "
                           "writing the default file")
    p_an.add_argument("--degrees", action="store_true",
                      help="display angle summaries in degrees (JSON stays radians)")

    p_pa = sub.add_parser("param", help="Tutte disk embedding of a disk-topology mesh")
    p_pa.add_argument("source", help="disk-topology mesh (OBJ or OFF)")
    p_pa.add_argument("-o", "--output", metavar="PATH",
                      help="flattened OBJ path (default: <source stem>_flat.obj)")
    p_pa.add_argument("--weights", choices=WEIGHT_CHOICES, default="uniform")
    p_pa.add_argument("--analyze", action="store_true",
                      help="also analyze source -> flat and write "
                           "<output>.report.json")

    p_th = sub.add_parser("theory", help="run the formula-vs-oracle verification suite")
    p_th.add_argument("--seed", type=int, default=42, help="seed for the random-model suite")
    p_th.add_argument("--grid", type=int, default=100_000,
                      help="orientation grid size for the sweep oracle")
    p_th.add_argument("--k", type=float, default=None, metavar="K",
                      help="single-case mode: dilatation to check")
    p_th.add_argument("--theta", type=float, default=None, metavar="T",
                      help="single-case mode: wedge angle in radians (with --k)")
    p_th.add_argument("--json", action="store_true", help="emit the table as JSON")

    p_ve = sub.add_parser("version", help="print the tool version")
    for p in (p_an, p_pa, p_th, p_ve):
        _add_global_flags(p, top_level=False)
    return parser


def _display_angle(value: float, degrees: bool) -> str:
    if degrees:
        return f"{math.degrees(value):.6f} deg"
    return f"{value:.6f} rad"


def _write_report(report, path, quiet: bool, degrees: bool = False) -> None:
    """Write the JSON report and, unless quiet, print its summary and path."""
    export_report(report, path, "json")
    if quiet:
        return
    print(f"faces: {report.face_count}   folded: {report.folded_count}   "
          f"bound violations: {report.bound_violations}")
    for name in FIELD_NAMES:
        s = report.stats[name]
        if s is None:
            print(f"  {name:<12} (no non-folded faces)")
            continue
        if name in _ANGLE_FIELDS:
            mean = _display_angle(s.mean, degrees)
            peak = _display_angle(s.max, degrees)
        else:
            mean, peak = f"{s.mean:.6f}", f"{s.max:.6f}"
        print(f"  {name:<12} mean {mean}   max {peak}")
    print(f"report written to {path}")


def _warn_folds(report) -> None:
    if report.folded_count:
        print(f"warning: {report.folded_count} folded faces "
              f"(excluded from statistics)", file=sys.stderr)


def run_analyze(args) -> int:
    src = load_mesh(args.source)
    dst = _read_mesh(args.target, validate=False)  # MeshMap folds its collapsed faces
    mapping = MeshMap(src, dst)
    rep = summarize(
        mapping,
        bins=args.bins,
        source_path=args.source,
        target_path=args.target,
    )
    if args.json:
        sys.stdout.write(report_json(rep))
    else:
        _write_report(rep, args.out, args.quiet, args.degrees)
    if args.csv:
        export_report(rep, args.csv, "csv")
    if args.ply_out:
        export_colored_mesh(mapping, args.field, args.ply_out)
    _warn_folds(rep)
    return 0


def run_param(args) -> int:
    mesh = load_mesh(args.source)
    mapping = tutte_disk(mesh, ParamConfig(weights=args.weights))
    out = args.output
    if out is None:
        stem = args.source.rsplit(".", 1)[0]
        out = f"{stem}_flat.obj"
    save_mesh(mapping.target, out, "obj")
    if not args.quiet:
        print(f"flattened mesh written to {out}")
    if args.analyze:
        rep = summarize(mapping, source_path=args.source, target_path=out)
        _write_report(rep, f"{out}.report.json", args.quiet)
        _warn_folds(rep)
    return 0


def run_theory(args) -> int:
    grid = args.grid
    if grid < MIN_GRID:
        print(f"warning: grid {grid} below minimum, clamping to {MIN_GRID}",
              file=sys.stderr)
        grid = MIN_GRID
    if args.theta is not None and args.k is None:
        print("error: --theta requires --k", file=sys.stderr)
        return 2
    if args.k is None:
        checks = run_all_checks(seed=args.seed, grid_size=grid)
    elif args.theta is None:
        checks = deviation_suite((args.k,), grid)
    else:
        checks = extremal_bisector_suite((args.k,), (args.theta,), grid)
    if args.json:
        sys.stdout.write(json.dumps([asdict(c) for c in checks], indent=2) + "\n")
    elif not args.quiet:
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name:<{width}}  {status}  observed {c.observed:.3e} "
                  f"(tol {c.tolerance:.0e})")
        if args.k is not None:  # c is the single case's one check
            print(f"  formula:  {c.params['formula']:.9f} rad")
            print(f"  attained: {c.params['attained']:.9f} rad")
            print(f"  grid:     {c.params['grid']:.9f} rad")
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"FAILED: {c.name}: observed {c.observed:.6e} > tol {c.tolerance:.6g}; "
              f"params {c.params}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"analyze": run_analyze, "param": run_param, "theory": run_theory}
    if args.command not in commands:
        print(f"qcdistort {__version__}")
        return 0
    try:
        return commands[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
