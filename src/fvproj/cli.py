"""Command-line interface.

Subcommands: ``run`` (time integration on the mesh of --mesh, with
key=value words for the other settings), ``verify`` (every operator
check, the inf-sup sweep and the transport consistency rate included),
``mesh-check`` (mesh quality report).  Exit code 0 when every invoked
check passes, 1 on check failure, 2 on usage errors (a run setting that
``RunConfig`` rejects among them, before anything runs), 3 on I/O errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, scheme
from .linalg import SolverError
from .mesh import MeshFormatError, acute_level, resolve_mesh, validate_mesh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _nonnegative(text: str) -> int:
    """A refinement level or a seed: a decimal integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return int(text)


def _mesh_spec(text: str) -> str:
    """A mesh file path, passed through, or ``acute:L`` with L a level."""
    try:
        acute_level(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvproj",
        description="Finite-volume projection solver and operator verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a time integration")
    run.add_argument("--mesh", type=_mesh_spec, default=scheme.RunConfig.mesh_spec,
                     help="mesh file path or acute:L selector (default %(default)s)")
    run.add_argument("settings", nargs="*", metavar="key=value",
                     help="run settings: " + ", ".join(scheme.CONFIG_KEYS))

    verify = sub.add_parser("verify", help="run every operator-level check")
    verify.add_argument("--level", type=_nonnegative, default=2,
                        help="finest refinement level (default 2)")
    verify.add_argument("--seed", type=_nonnegative, default=7)
    verify.add_argument("--out", help="directory for verify.csv")

    check = sub.add_parser("mesh-check", help="mesh quality report")
    check.add_argument("--mesh", type=_mesh_spec, required=True,
                       help="mesh file path (the suffix names its format) "
                            "or acute:L selector")
    return parser


def _cmd_run(args) -> int:
    pairs = {}
    for item in args.settings:
        if "=" not in item:
            print(f"run setting must be key=value, got {item!r}", file=sys.stderr)
            return EXIT_USAGE
        key, val = (part.strip() for part in item.split("=", 1))
        if key in pairs:
            print(f"run setting {key!r} given twice", file=sys.stderr)
            return EXIT_USAGE
        pairs[key] = val
    try:
        config = scheme.RunConfig(mesh_spec=args.mesh).with_overrides(pairs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    traj = scheme.run(config)
    monitors = analysis.stability_monitors(traj.records, k=config.k)
    last = traj.records[-1]
    print(f"completed {config.n_steps} steps to t={last.t:.6g} "
          f"in {traj.elapsed:.2f}s on {traj.mesh!r}")
    print(f"  |u|={last.u_l2:.6g}  |p|={last.p_l2:.6g}  "
          f"div-residual={last.div_residual:.3e}")
    counts = [traj.init_diagnostics] + [vars(r) for r in traj.records]
    print(f"  momentum: {sum(c['mom_iters'] for c in counts)} BiCGStab iterations in "
          f"{traj.mom_solves} solves, {sum(c['mom_refactor'] for c in counts)} factor "
          f"builds; {traj.mom_failed} capped solves failed after "
          f"{traj.mom_failed_iters} iterations")
    print(f"  projections: {traj.second_passes} of {config.n_steps + 1} projected twice")
    (p_nnz, p_s), (m_nnz, m_s) = traj.pressure_factor, traj.momentum_factor
    print(f"  factors: pressure {p_nnz} entries in {p_s:.3g}s; "
          f"momentum {m_nnz} entries in {m_s:.3g}s")
    increment, slope = analysis.steady_rate(traj.records)
    rate = "rate undefined" if slope is None else f"d log(increment)/dt = {slope:.6g}"
    print(f"  steady: last increment {increment:.6e}, {rate}")
    for row in monitors.results:
        state = "ok" if row.passed else "FAIL"
        print(f"  monitor {row.name:24s} ratio={row.value:8.3f} {state}")
    if config.out_dir:
        print(f"  monitors written to {Path(config.out_dir) / 'monitors.csv'}")
        print(f"  snapshots written: {traj.snapshot_files} files, "
              f"{traj.snapshot_bytes} bytes in {traj.snapshot_s:.3f}s")
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


def _cmd_mesh_check(args) -> int:
    mesh = resolve_mesh(args.mesh)
    report = validate_mesh(mesh)
    print(f"{args.mesh}: {mesh!r}")
    print(f"  {report}")
    return EXIT_OK if report.admissible else EXIT_CHECK_FAILED


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
        if args.command == "mesh-check":
            return _cmd_mesh_check(args)
        return EXIT_USAGE
    except (MeshFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
