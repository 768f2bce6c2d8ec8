"""One benchmark job: a single ``fvproj.cli.main`` call in a fresh process.

    python3 perfbench/job.py --workload NAME --mode {time,trace,setup}
        --t-spawn T --workdir DIR --result FILE

The parent passes ``--t-spawn``, its ``time.monotonic()`` just before it
started this process.  CLOCK_MONOTONIC is shared by every process on the
machine, so set-up and run times here include interpreter start-up.

Every layer is measured from outside ``src/fvproj``: the job replaces the
public names that the calling module binds (``fvproj.scheme.solve``,
``fvproj.scheme.momentum_step``, ...) with timing wrappers.

* ``time``: only the timers the end-to-end metrics need, one per time step
  (one per check routine for ``verify``) plus the set-up boundary.
* ``trace``: additionally a span around every layer call, and exact counts.
* ``setup``: stops at the set-up boundary; gives one more set-up sample.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

clock = time.monotonic

# Check routines that ``analysis.run_all`` calls; one call is one timed
# operation of the verify workload.
VERIFY_ROUTINES = ("check_identities", "check_convection", "infsup_sweep",
                   "infsup_oracle_check", "consistency_rate",
                   "poincare_inverse_constants")

# (module, bound name, span name, call counter) for the traced run.  A hook
# whose name no longer exists is skipped and listed as missing.
SPAN_HOOKS = (
    ("scheme", "resolve_mesh", "mesh.build", None),
    ("analysis", "unit_square_acute", "mesh.build", None),
    ("scheme", "require_admissible", "mesh.validate", None),
    ("quadrature", "triangle_points", "quadrature.points", None),
    ("quadrature", "segment_points", "quadrature.points", None),
    ("scheme", "project_p0", "fields.project_p0", "fields.project_p0_calls"),
    ("analysis", "project_p0", "fields.project_p0", "fields.project_p0_calls"),
    ("scheme", "convection_matrix", "operators.convection", None),
    ("scheme", "trilinear_form", "operators.convection", None),
    ("analysis", "convection_matrix", "operators.convection", None),
    ("analysis", "trilinear_form", "operators.convection", None),
    ("analysis", "upwind_convection", "operators.convection", None),
    ("scheme", "gradient", "operators.divgrad", "operators.divgrad_calls"),
    ("scheme", "divergence", "operators.divgrad", "operators.divgrad_calls"),
    ("analysis", "gradient", "operators.divgrad", "operators.divgrad_calls"),
    ("analysis", "divergence", "operators.divgrad", "operators.divgrad_calls"),
    ("scheme", "initialize", "scheme.init", None),
    ("scheme", "advance", "scheme.advance", None),
    ("scheme", "momentum_step", "scheme.momentum", None),
    ("scheme", "pressure_step", "scheme.pressure", None),
    ("scheme", "correction_step", "scheme.correct", None),
    ("analysis", "check_identities", "analysis.identities", None),
    ("analysis", "check_convection", "analysis.convection", None),
    ("analysis", "infsup_sweep", "analysis.infsup", None),
    ("analysis", "infsup_oracle_check", "analysis.infsup", None),
    ("analysis", "consistency_rate", "analysis.rates", None),
    ("analysis", "stability_monitors", "analysis.stability_monitors", None),
    ("analysis", "poincare_inverse_constants", "analysis.poincare", None),
)

# Modules whose bound ``solve`` is a linear-solve call site (fields reaches
# it as ``linalg.solve``).
SOLVE_SITES = ("scheme", "analysis", "linalg")


class SetupDone(BaseException):
    """Raised at the set-up boundary of a ``setup`` job; not an error, and
    not caught by the CLI's handlers."""


def _replace(module, attr, wrap, missing):
    fn = getattr(module, attr, None)
    if fn is None:
        missing.append(f"{module.__name__}.{attr}")
        return
    setattr(module, attr, wrap(fn))


class Job:
    def __init__(self, workload, mode):
        self.workload = workload
        self.mode = mode
        self.tracer = Tracer(clock) if mode == "trace" else None
        self.t_setup = None
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.cert_tol = None
        self.trajectory = None
        self.report = None
        self.monitors = None
        self.missing = []

    # -- hooks every mode needs --------------------------------------------

    def install(self, fv):
        if self.tracer:
            self._install_spans(fv)
        if self.workload.kind == "run":
            self._install_step_timer(fv)
        else:
            for name in VERIFY_ROUTINES:
                setattr(fv.analysis, name, self._timed_op(getattr(fv.analysis, name)))
        self._capture(fv.scheme, "run", "trajectory")
        self._capture(fv.analysis, "run_all", "report")
        self._capture(fv.analysis, "stability_monitors", "monitors")

    def _install_step_timer(self, fv):
        step_errors = (fv.scheme.SchemeError, fv.linalg.SolverError)
        advance = fv.scheme.advance

        def timed_advance(state, config, ws, *args, **kwargs):
            start = clock()
            if self.t_setup is None:
                self.t_setup = start
                self.cert_tol = float(ws.cert_tol)
                if self.mode == "setup":
                    raise SetupDone
            self.attempted += 1
            try:
                out = advance(state, config, ws, *args, **kwargs)
            except step_errors:
                self.failed += 1
                raise
            self.op_times.append(clock() - start)
            return out

        fv.scheme.advance = timed_advance

    def _timed_op(self, fn):
        def timed(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            self.op_times.append(clock() - start)
            return out
        return timed

    def _capture(self, module, attr, slot):
        fn = getattr(module, attr)

        def capturing(*args, **kwargs):
            out = fn(*args, **kwargs)
            setattr(self, slot, out)
            return out

        setattr(module, attr, capturing)

    # -- spans and counts of the traced run ---------------------------------

    def _install_spans(self, fv):
        tr, counts, missing = self.tracer, self.tracer.counts, self.missing
        for mod, attr, name, count in SPAN_HOOKS:
            _replace(getattr(fv, mod), attr,
                     lambda fn, n=name, c=count: tr.wrap(fn, n, c), missing)

        def traced_solve(fn):
            def solve(A, b, config=None, zero_mean_weights=None):
                kind = "pressure" if zero_mean_weights is not None else "momentum"
                index = tr.open(f"linalg.{kind}_solve")
                try:
                    x, info = fn(A, b, config, zero_mean_weights=zero_mean_weights)
                finally:
                    tr.close(index)
                counts[f"linalg.{kind}_solves"] += 1
                counts[f"linalg.{kind}_iters"] += max(int(info.iterations), 0)
                counts["linalg.fallbacks"] += bool(info.fallbacks)
                counts["linalg.unconverged"] += not info.converged
                return x, info
            return solve

        for mod in SOLVE_SITES:
            _replace(getattr(fv, mod), "solve", traced_solve, missing)

        def traced_write(fn):
            def write(path, *args, **kwargs):
                index = tr.open("vtkio.write")
                try:
                    fn(path, *args, **kwargs)
                finally:
                    tr.close(index)
                counts["vtkio.bytes"] += os.path.getsize(path)
            return write

        for attr in ("write_unstructured", "write_point_cloud"):
            _replace(fv.vtkio, attr, traced_write, missing)
        _replace(fv.scheme.Trajectory, "write_monitors",
                 lambda fn: tr.wrap(fn, "scheme.monitors_csv"), missing)

        def counted_power_iteration(fn):
            def power_iteration(apply_op, *args, **kwargs):
                def apply(x):
                    counts["analysis.eig_applies"] += 1
                    return apply_op(x)
                return fn(apply, *args, **kwargs)
            return power_iteration

        _replace(fv.analysis, "_power_iteration", counted_power_iteration, missing)

        for name, fn in inspect.getmembers(fv.reference, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == fv.reference.__name__:
                setattr(fv.reference, name, tr.wrap(fn, "reference.oracle"))

    # -- the job --------------------------------------------------------------

    def run(self, fv, argv) -> dict:
        index = self.tracer.open("cli.main") if self.tracer else None
        try:
            code = fv.cli.main(argv)
        finally:
            t_return = clock()
            if self.tracer:
                self.tracer.close(index, end=t_return)
        out = {"exit_code": code, "t_return": t_return,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "op_times": self.op_times}
        if self.workload.kind == "run":
            out.update(self._run_results(fv))
        else:
            out.update(self._verify_results(argv))
        return out

    def _run_results(self, fv) -> dict:
        failed = self.failed
        if self.monitors is not None and not self.monitors.ok:
            # the monitors judge the whole trajectory, so every step fails
            failed = self.attempted
        traj = self.trajectory
        if traj is None:
            # the run raised before it returned a trajectory
            return {"attempted": max(self.attempted, 1), "failed": max(failed, 1)}
        last = traj.records[-1]
        u_err, p_err = manufactured_errors(fv, traj)
        return {"attempted": self.attempted, "failed": failed,
                "div_max": max(r.div_residual for r in traj.records),
                "cert_tol": self.cert_tol,
                "u_l2": last.u_l2, "p_l2": last.p_l2,
                "u_err_l2": u_err, "p_err_l2": p_err}

    def _verify_results(self, argv) -> dict:
        if self.report is None:
            return {"attempted": 1, "failed": 1}
        csv = Path(argv[argv.index("--out") + 1]) / "verify.csv"
        return {"attempted": len(self.report.results),
                "failed": sum(not r.passed for r in self.report.results),
                "verify_csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()}


def manufactured_errors(fv, traj):
    """L2 distances of the final state to the steady manufactured solution:
    velocity by degree-4 quadrature over each cell, pressure
    cos(pi x) cos(pi y) (mean zero on the unit square) at the edge
    midpoints."""
    import numpy as np

    mesh, state = traj.mesh, traj.state
    exact_u = fv.scheme.make_case(traj.config.case, traj.config.re).u0
    bary, w = fv.quadrature.triangle_rule(4)
    pts = fv.quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    diff = exact_u(pts[..., 0], pts[..., 1]) - state.u_curr.values[:, None, :]
    u_err = float(np.sqrt(np.einsum("tqd,tqd,q,t->", diff, diff, w, mesh.tri_area)))

    mid = mesh.edge_midpoint
    exact_p = fv.fields.mean_zero(fv.fields.ScalarP1NC(
        mesh, np.cos(np.pi * mid[:, 0]) * np.cos(np.pi * mid[:, 1])))
    p_err = fv.fields.l2_norm(state.p_curr - exact_p)
    return u_err, p_err


def _import_fvproj(src: Path):
    sys.path.insert(0, str(src))
    import fvproj.cli
    from fvproj import (analysis, fields, linalg, quadrature, reference,
                        scheme, vtkio)

    if Path(fvproj.__file__).resolve().parent != (src / "fvproj").resolve():
        raise SystemExit(f"imported fvproj from {fvproj.__file__}, not {src}")
    return argparse.Namespace(cli=fvproj.cli, analysis=analysis, fields=fields,
                              linalg=linalg, quadrature=quadrature,
                              reference=reference, scheme=scheme, vtkio=vtkio)


def main(argv=None) -> int:
    t_start = clock()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("time", "trace", "setup"))
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    job = Job(workload, args.mode)
    tr = job.tracer
    if tr:
        tr.close(tr.open("process.start", start=args.t_spawn), end=t_start)
        index = tr.open("process.import", start=t_start)
    fv = _import_fvproj(Path("src"))
    job.install(fv)
    t_import = clock()
    if tr:
        tr.close(index, end=t_import)

    result = {"workload": workload.name, "mode": args.mode,
              "t_spawn": args.t_spawn, "t_setup": t_import}
    if workload.kind == "run" or args.mode != "setup":
        cli_argv = workload.command(args.workdir)
        try:
            result.update(job.run(fv, cli_argv))
        except SetupDone:
            pass
        if workload.kind == "run":
            result["t_setup"] = job.t_setup
    if tr:
        result["spans"] = tr.spans
        result["counts"] = dict(tr.counts)
        result["missing_hooks"] = job.missing
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
