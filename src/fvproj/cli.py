"""Command-line interface.

Subcommands: ``run`` (time integration), ``verify`` (operator checks),
``infsup`` (inf-sup sweep + oracle), ``rates`` (transport consistency),
``mesh-check`` (mesh quality report).  Exit code 0 when every invoked
check passes, 1 on check failure, 2 on usage errors, 3 on I/O errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, scheme
from .linalg import SolverError
from .mesh import (MeshFormatError, MeshOrientationError, MeshTopologyError,
                   load_mesh, resolve_mesh, unit_square_acute, validate_mesh)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvproj",
        description="Finite-volume projection solver and operator verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a time integration")
    run.add_argument("--config", help="key=value run configuration file")
    run.add_argument("--mesh", help="mesh file path or acute:L selector")
    run.add_argument("--out", help="output directory (monitors.csv, snapshots)")
    run.add_argument("--solver-rtol", type=float,
                     help="relative tolerance of the momentum and pressure solves")
    run.add_argument("--allow-degenerate", action="store_true",
                     help="only warn on inadmissible meshes")
    run.add_argument("overrides", nargs="*", metavar="key=value",
                     help="config overrides, applied after the file")

    verify = sub.add_parser("verify", help="run every operator-level check")
    verify.add_argument("--level", type=int, default=2,
                        help="finest refinement level (default 2)")
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--out", help="directory for verify.csv")

    infsup = sub.add_parser("infsup", help="inf-sup constant sweep")
    infsup.add_argument("--level", type=int, default=2,
                        help="finest refinement level (default 2)")
    infsup.add_argument("--seed", type=int, default=0)

    rates = sub.add_parser("rates", help="transport consistency rate")
    rates.add_argument("--level", type=int, default=1,
                       help="coarsest of three consecutive levels (default 1)")

    check = sub.add_parser("mesh-check", help="mesh quality report")
    check.add_argument("--mesh", help="mesh file path or acute:L selector")
    check.add_argument("--level", type=int,
                       help="check the built-in admissible family instead")
    check.add_argument("--format", default="single-file",
                       choices=["single-file", "node-ele"])
    check.add_argument("--allow-degenerate", action="store_true")
    return parser


def _cmd_run(args) -> int:
    config = scheme.RunConfig()
    if args.config:
        config = scheme.RunConfig.from_file(args.config)
    pairs = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"override must be key=value, got {item!r}", file=sys.stderr)
            return EXIT_USAGE
        key, val = item.split("=", 1)
        pairs[key.strip()] = val.strip()
    if args.mesh:
        pairs["mesh"] = args.mesh
    if args.out:
        pairs["out"] = args.out
    if args.solver_rtol is not None:
        pairs["solver_rtol"] = repr(args.solver_rtol)
    if args.allow_degenerate:
        pairs["allow_degenerate"] = "true"
    config = config.with_overrides(pairs)

    traj = scheme.run(config)
    monitors = analysis.stability_monitors(traj.records, traj.init_diagnostics,
                                           k=config.k)
    last = traj.records[-1]
    print(f"completed {config.n_steps} steps to t={last.t:.6g} "
          f"in {traj.elapsed:.2f}s on {traj.mesh!r}")
    print(f"  |u|={last.u_l2:.6g}  |p|={last.p_l2:.6g}  "
          f"div-residual={last.div_residual:.3e}")
    for flag in monitors.flags:
        state = "ok" if flag.passed else "FAIL"
        print(f"  monitor {flag.name:24s} ratio={flag.ratio:8.3f} {state}")
    if config.out_dir:
        print(f"  monitors written to {Path(config.out_dir) / 'monitors.csv'}")
    return EXIT_OK if monitors.ok else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    report = analysis.run_all(max_level=args.level, seed=args.seed)
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.write_csv(out / "verify.csv")
        print(f"written {out / 'verify.csv'}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_infsup(args) -> int:
    report = analysis.VerificationReport()
    analysis.infsup_sweep(range(args.level + 1), report=report)
    analysis.infsup_oracle_check(report=report, seed=args.seed)
    print(report.to_text())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_rates(args) -> int:
    levels = (args.level, args.level + 1, args.level + 2)
    result = analysis.consistency_rate(levels=levels)
    for h, err in zip(result.hs, result.errors):
        print(f"  h={h:.5f}  dual-norm error={err:.6e}")
    print(f"measured consistency rate: {result.rate:.4f} (required >= 0.8)")
    return EXIT_OK if result.rate >= 0.8 else EXIT_CHECK_FAILED


def _cmd_mesh_check(args) -> int:
    if args.level is not None:
        mesh = unit_square_acute(args.level)
        name = f"acute:{args.level}"
    elif args.mesh:
        mesh = (resolve_mesh(args.mesh) if args.mesh.startswith("acute:")
                else load_mesh(args.mesh, fmt=args.format))
        name = args.mesh
    else:
        print("mesh-check needs --mesh or --level", file=sys.stderr)
        return EXIT_USAGE
    report = validate_mesh(mesh)
    print(f"{name}: {mesh!r}")
    print(f"  {report}")
    if report.admissible or args.allow_degenerate:
        if not report.admissible:
            print("  warning: mesh is not admissible (allowed by flag)")
        return EXIT_OK
    return EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    np.set_printoptions(precision=6)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "infsup":
            return _cmd_infsup(args)
        if args.command == "rates":
            return _cmd_rates(args)
        if args.command == "mesh-check":
            return _cmd_mesh_check(args)
        return EXIT_USAGE
    except (MeshFormatError, FileNotFoundError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MeshTopologyError, MeshOrientationError, SolverError,
            scheme.SchemeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
