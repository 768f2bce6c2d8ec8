"""BDF2 projection time-stepper: momentum prediction, pressure update,
velocity correction, and a hypothesis-compliant start-up.

Each step advances (u^{n-1}, u^n, p^n) to (u_tilde, p^{n+1}, u^{n+1}):

* predictor: (a0 u_tilde + a1 u^n + a2 u^{n-1}) / k - (1/Re) lap u_tilde
  + upwind(2 u^n - u^{n-1}, u_tilde) + grad p^n = f^{n+1},
* pressure: (grad dp, grad r) = -(a0/k) (div u_tilde, r) on the
  zero-mean subspace,
* correction: u^{n+1} = u_tilde - (k/a0) grad dp,

which leaves u^{n+1} divergence free up to the pressure-solve residual.
(a0, a1, a2) = (3/2, -2, 1/2) is BDF2.  Start-up: u^0 is the discrete
Leray projection of the cell-averaged data, and u^1 comes from the same
step out of (u^{-1}, u^0, p^0) = (u^0, u^0, 0) with the BDF1 coefficients
(1, -1, 0): semi-implicit Euler, advected by 2 u^0 - u^0 = u^0.

The predictor system is solved by BiCGStab preconditioned with a lagged
SuperLU factor of the BDF2 momentum matrix 3/(2k) M + H/Re + C(u*): built
at the first solve (the start-up step, whose a0 = 1 it does not match)
and rebuilt after a solve needs more than REFACTOR_ITERS iterations, or
within the step when a solve with it does not converge.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import vtkio
from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, h_norm, l2_inner,
                     l2_norm, mean_zero, p1nc_mass, project_p0)
from .linalg import FactoredSolver, SolverError, SparseOperator, Tolerance, solve
from .mesh import Mesh, require_admissible, resolve_mesh
from .operators import (convection_matrix, divergence, gradient,
                        leray_project, pressure_solver, trilinear_form,
                        velocity_stiffness)


class SchemeError(RuntimeError):
    pass


# Divergence certificate |div u| <= CERT_TOL max(|u|, removed divergence) of
# a projected field; the pressure solve has its own (backward-error) gate.
CERT_TOL = 1e-12

# A momentum solve of more BiCGStab iterations than this rebuilds the
# preconditioner's factor at the next step; a fresh factor needs about 3.
REFACTOR_ITERS = 20


# -- built-in data cases ----------------------------------------------------------

def _a(x):
    return x * x * (1.0 - x) ** 2


def _da(x):
    return 2.0 * x - 6.0 * x**2 + 4.0 * x**3


def _dda(x):
    return 2.0 - 12.0 * x + 12.0 * x**2


def _ddda(x):
    return -12.0 + 24.0 * x


# Amplitude bringing the peak speed of the stream-function field to O(1);
# keeps every relative solver tolerance meaningful against absolute floors.
_VEL_SCALE = 32.0


def _velocity_a(x, y):
    """Scaled curl of (x(1-x)y(1-y))^2: divergence free, zero full trace."""
    return _VEL_SCALE * np.stack([_a(x) * _da(y), -_da(x) * _a(y)], axis=-1)


def _forcing_a(x, y, re):
    """Steady forcing making the scaled curl field an equilibrium of the
    momentum equation with pressure cos(pi x) cos(pi y)."""
    s = _VEL_SCALE
    lap_u = _dda(x) * _da(y) + _a(x) * _ddda(y)
    lap_v = -(_ddda(x) * _a(y) + _da(x) * _dda(y))
    conv_u = _a(x) * _da(x) * _da(y) ** 2 - _a(x) * _da(x) * _a(y) * _dda(y)
    conv_v = -_a(x) * _dda(x) * _a(y) * _da(y) + _da(x) ** 2 * _a(y) * _da(y)
    gp_u = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    gp_v = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    return np.stack([-s * lap_u / re + s * s * conv_u + gp_u,
                     -s * lap_v / re + s * s * conv_v + gp_v], axis=-1)


@dataclass(frozen=True)
class DataCase:
    name: str
    u0: callable            # u0(x, y) -> (..., 2)
    forcing: callable        # steady forcing(x, y) -> (..., 2)


def make_case(name: str, re: float) -> DataCase:
    if name == "zero":
        zero = lambda x, y: np.zeros(np.shape(x) + (2,))
        return DataCase("zero", zero, zero)
    if name == "manufactured-A":
        return DataCase("manufactured-A", _velocity_a,
                        lambda x, y: _forcing_a(x, y, re))
    raise ValueError(f"unknown case {name!r} (choose zero or manufactured-A)")


# -- configuration -----------------------------------------------------------------

@dataclass
class RunConfig:
    mesh_spec: str = "acute:2"
    k: float = 1e-2
    n_steps: int = 200
    re: float = 100.0
    case: str = "manufactured-A"
    momentum: Tolerance = field(default_factory=lambda: Tolerance(rtol=1e-12))
    # pressure solves use the factored operator
    pressure: Tolerance = field(default_factory=lambda: Tolerance(rtol=1e-13))
    out_dir: str | None = None
    cadence: int = 0            # snapshot every this many steps; 0 disables
    quad_order: int = 4
    allow_degenerate: bool = False

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("time step k must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least 2 steps")
        if self.re <= 0:
            raise ValueError("Reynolds number must be positive")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        pairs = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {raw!r}")
            key, val = line.split("=", 1)
            pairs[key.strip()] = val.strip()
        return cls().with_overrides(pairs)

    def with_overrides(self, pairs: dict) -> "RunConfig":
        cfg = self
        for key, val in pairs.items():
            if key == "mesh":
                cfg = replace(cfg, mesh_spec=val)
            elif key == "k":
                cfg = replace(cfg, k=float(val))
            elif key in ("steps", "n_steps"):
                cfg = replace(cfg, n_steps=int(val))
            elif key in ("re", "Re"):
                cfg = replace(cfg, re=float(val))
            elif key == "case":
                cfg = replace(cfg, case=val)
            elif key == "solver_rtol":
                cfg = replace(cfg,
                              momentum=replace(cfg.momentum, rtol=float(val)),
                              pressure=replace(cfg.pressure, rtol=float(val)))
            elif key == "momentum_rtol":
                cfg = replace(cfg, momentum=replace(cfg.momentum, rtol=float(val)))
            elif key == "pressure_rtol":
                cfg = replace(cfg, pressure=replace(cfg.pressure, rtol=float(val)))
            elif key == "out":
                cfg = replace(cfg, out_dir=val)
            elif key == "cadence":
                cfg = replace(cfg, cadence=int(val))
            elif key == "quad_order":
                cfg = replace(cfg, quad_order=int(val))
            elif key == "allow_degenerate":
                cfg = replace(cfg, allow_degenerate=val.lower() in ("1", "true", "yes"))
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cfg


@dataclass
class SchemeState:
    u_prev: SolenoidalP0
    u_curr: SolenoidalP0
    p_curr: ScalarP1NC
    t: float
    n: int
    u_tilde: VectorP0 | None = None


@dataclass
class StepRecord:
    step: int
    t: float
    u_l2: float
    ut_hnorm: float
    p_l2: float
    div_residual: float
    increment: float
    orth_residual: float
    pyth_residual: float
    energy_residual: float
    mom_iters: int = 0          # BiCGStab iterations of both components
    mom_refactor: int = 0       # momentum factors the step built (0 to 2)
    p_backward_error: float = 0.0   # normwise backward error of the pressure solve


@dataclass
class Trajectory:
    config: RunConfig
    mesh: Mesh
    records: list
    init_diagnostics: dict
    state: SchemeState
    elapsed: float

    def monitor_rows(self):
        names = ("step", "t", "u_l2", "ut_hnorm", "p_l2", "div_residual",
                 "increment", "orth_residual", "pyth_residual", "energy_residual",
                 "mom_iters", "mom_refactor", "p_backward_error")
        return names, [[getattr(r, n) for n in names] for r in self.records]

    def write_monitors(self, path) -> None:
        names, rows = self.monitor_rows()
        with open(path, "w") as f:
            f.write(",".join(names) + "\n")
            for row in rows:
                f.write(",".join(f"{v:d}" if isinstance(v, int) else f"{v:.16e}"
                                 for v in row) + "\n")


class _Workspace:
    """Once-per-run pieces: masses, stiffness, the factored pressure
    operator, the projected (steady) forcing, and the lagged momentum
    factor with its refactor flag; and what the last substeps leave for
    the step record."""

    def __init__(self, config: RunConfig, mesh: Mesh):
        self.mesh = mesh
        self.case = make_case(config.case, config.re)
        self.mass = mesh.tri_area
        self.h_stiff = velocity_stiffness(mesh).matrix
        self.p_solver = pressure_solver(mesh)
        self.p_mass = p1nc_mass(mesh)
        self.cert_tol = CERT_TOL
        self.forcing = project_p0(self.case.forcing, mesh, config.quad_order)
        self.mom_factor = None
        self.refactor_due = True
        self.mom_iters = self.mom_refactor = 0
        self.convection = None      # weighted C(u*) of the last momentum step
        self.p_backward_error = 0.0

    def certify(self, v: VectorP0, where: str, div_scale: float = 0.0) -> SolenoidalP0:
        """Gate a projected field on its remaining divergence.

        The projection solve can only reduce the divergence by its relative
        tolerance, so the gate scales with the larger of the field norm and
        the divergence that was removed.
        """
        if not np.all(np.isfinite(v.values)):
            raise SchemeError(f"{where}: field has NaN or Inf entries")
        div_l2 = l2_norm(divergence(v))
        scale = max(l2_norm(v), div_scale)
        if div_l2 > self.cert_tol * scale:
            raise SchemeError(
                f"{where}: divergence-free certificate failed "
                f"(|div u| = {div_l2:.3e} > {self.cert_tol:.1e} * {scale:.3e})")
        return SolenoidalP0.trusted(v)


# -- the three substeps --------------------------------------------------------------

def _bdf_coefficients(state: SchemeState):
    """(a0, a1, a2) of the step out of ``state``: BDF1 at n = 0, BDF2 after."""
    return (1.0, -1.0, 0.0) if state.n == 0 else (1.5, -2.0, 0.5)


def momentum_step(state: SchemeState, config: RunConfig, ws: _Workspace,
                  grad_p: VectorP0 | None = None) -> VectorP0:
    """Solve the predictor system; one matrix, two right-hand sides.

    ``grad_p`` is gradient(state.p_curr) when the caller already has it.
    A solve that the lagged factor does not bring to convergence is
    repeated with a fresh factor of this step's matrix; only a failure of
    that one raises SolverError.  Leaves the weighted convection matrix
    C(u*) in ``ws.convection``, the step's BiCGStab iterations (every
    solve) in ``ws.mom_iters`` and the number of factors it built in
    ``ws.mom_refactor``.
    """
    k = config.k
    a0, a1, a2 = _bdf_coefficients(state)
    u_star = SolenoidalP0.trusted(
        2.0 * state.u_curr.field - state.u_prev.field)
    ws.convection = convection_matrix(u_star, weighted=True)
    A = (1.0 / config.re) * ws.h_stiff + ws.convection.matrix
    builds = int(ws.refactor_due)
    if builds:
        ws.mom_factor = None  # free the old factor before building the new
        ws.mom_factor = FactoredSolver(A + sp.diags(1.5 / k * ws.mass))
    A = SparseOperator(A + sp.diags(a0 / k * ws.mass), "p0", "p0",
                       preconditioner=ws.mom_factor.apply)
    exact = bool(builds) and a0 == 1.5  # the factor is of this step's matrix
    gp = gradient(state.p_curr) if grad_p is None else grad_p
    rhs_common = (ws.forcing.values
                  - (a1 * state.u_curr.values + a2 * state.u_prev.values) / k
                  - gp.values) * ws.mass[:, None]
    out = np.empty_like(rhs_common)
    iters = []
    ws.mom_iters = 0
    for c in range(2):
        while True:
            out[:, c], info = solve(A, rhs_common[:, c], config.momentum)
            ws.mom_iters += info.iterations
            if info.converged or exact:
                break
            # u* has moved too far from the factor's: factor this matrix
            A.preconditioner = ws.mom_factor = None
            ws.mom_factor = FactoredSolver(A)
            A.preconditioner = ws.mom_factor.apply
            exact, builds = True, builds + 1
        if not info.converged:
            raise SolverError(f"momentum solve (component {c}) failed: {info}")
        iters.append(info.iterations)
    ws.refactor_due = max(iters) > REFACTOR_ITERS
    ws.mom_refactor = builds
    return VectorP0(state.u_curr.mesh, out)


def pressure_step(state: SchemeState, u_tilde: VectorP0, config: RunConfig,
                  ws: _Workspace):
    """Solve for the pressure increment; returns (p_next, dp) and leaves
    the solve's normwise backward error in ``ws.p_backward_error``."""
    d = divergence(u_tilde)
    weighted = ws.p_mass * d.values
    compat = abs(float(weighted.sum()))
    scale = float(np.linalg.norm(weighted))
    if compat > 1e-12 * max(scale, 1.0):
        raise SchemeError(
            f"pressure right-hand side incompatible: (div u, 1) = {compat:.3e}")
    rhs = -_bdf_coefficients(state)[0] / config.k * weighted
    dp_vals, info = ws.p_solver.solve(rhs, config.pressure,
                                      f"pressure step {state.n + 1}")
    ws.p_backward_error = info.backward_error
    dp = ScalarP1NC(u_tilde.mesh, dp_vals)
    p_next = mean_zero(state.p_curr + dp)
    return p_next, dp


def correction_step(state: SchemeState, u_tilde: VectorP0, p_next: ScalarP1NC,
                    dp: ScalarP1NC, config: RunConfig, ws: _Workspace) -> SchemeState:
    """Subtract the increment gradient and rotate the state."""
    u_next = u_tilde - (config.k / _bdf_coefficients(state)[0]) * gradient(dp)
    cert = ws.certify(u_next, f"correction step {state.n + 1}",
                      div_scale=l2_norm(divergence(u_tilde)))
    return SchemeState(u_prev=state.u_curr, u_curr=cert, p_curr=p_next,
                       t=state.t + config.k, n=state.n + 1, u_tilde=u_tilde)


def advance(state: SchemeState, config: RunConfig, ws: _Workspace):
    """One full BDF2 projection step; returns (new state, StepRecord)."""
    k = config.k
    gp_n = gradient(state.p_curr)
    u_tilde = momentum_step(state, config, ws, grad_p=gp_n)
    p_next, dp = pressure_step(state, u_tilde, config, ws)
    new = correction_step(state, u_tilde, p_next, dp, config, ws)

    u_np1, u_n, u_nm1 = new.u_curr.field, state.u_curr.field, state.u_prev.field
    tiny = 1e-300
    u_np1_l2 = l2_norm(u_np1)
    u_tilde_l2 = l2_norm(u_tilde)
    jump_l2 = l2_norm(u_np1 - u_tilde)
    gp_next = gradient(p_next)
    orth = abs(l2_inner(u_np1, gp_next)) / (u_np1_l2 * l2_norm(gp_next) + tiny)
    pyth_num = u_np1_l2 ** 2 - u_tilde_l2 ** 2 + jump_l2 ** 2
    pyth = abs(pyth_num) / max(u_tilde_l2 ** 2, tiny)

    terms = [
        u_np1_l2 ** 2 - l2_norm(u_n) ** 2,
        l2_norm(2.0 * u_np1 - u_n) ** 2 - l2_norm(2.0 * u_n - u_nm1) ** 2,
        l2_norm(u_np1 - 2.0 * u_n + u_nm1) ** 2,
        6.0 * jump_l2 ** 2,
        4.0 * k / config.re * h_norm(u_tilde) ** 2,
        4.0 * k * trilinear_form(ws.convection, u_tilde, u_tilde),
        4.0 * k * l2_inner(gp_n, u_tilde),
        -4.0 * k * l2_inner(ws.forcing, u_tilde),
    ]
    energy = abs(sum(terms)) / max(max(abs(v) for v in terms), tiny)

    rec = StepRecord(
        step=new.n, t=new.t,
        u_l2=u_np1_l2,
        ut_hnorm=h_norm(u_tilde),
        p_l2=l2_norm(p_next),
        div_residual=l2_norm(divergence(u_np1)),
        increment=l2_norm(u_np1 - u_n) / k,
        orth_residual=orth,
        pyth_residual=pyth,
        energy_residual=energy,
        mom_iters=ws.mom_iters,
        mom_refactor=ws.mom_refactor,
        p_backward_error=ws.p_backward_error,
    )
    return new, rec


# -- start-up ------------------------------------------------------------------------

def initialize(config: RunConfig, mesh: Mesh):
    """Build (u^0, u^1, p^1) and report the start-up diagnostics.

    u^0 is the discrete Leray projection of the cell-averaged initial
    data; u^1 comes from the three substeps of every time step, run out
    of n = 0 (BDF1).  The start-up step has no StepRecord.
    Returns (state, diagnostics, workspace).
    """
    ws = _Workspace(config, mesh)
    k = config.k

    u0_raw = project_p0(ws.case.u0, mesh, config.quad_order)
    u0_field, _ = leray_project(u0_raw, config.pressure, "initial projection")
    u0 = ws.certify(u0_field, "initial projection",
                    div_scale=l2_norm(divergence(u0_raw)))

    state = SchemeState(u_prev=u0, u_curr=u0,
                        p_curr=ScalarP1NC(mesh, np.zeros(mesh.num_edges)),
                        t=0.0, n=0)
    u_tilde1 = momentum_step(state, config, ws)
    p1, dp = pressure_step(state, u_tilde1, config, ws)
    state = correction_step(state, u_tilde1, p1, dp, config, ws)
    u1 = state.u_curr

    err0 = _quadrature_error(u0.field, ws.case.u0, config.quad_order)
    diagnostics = {
        "u0_l2": l2_norm(u0.field),
        "u1_l2": l2_norm(u1.field),
        "k_grad_p1_l2": k * l2_norm(gradient(p1)),
        "startup_bound": (l2_norm(u0.field) + l2_norm(u1.field)
                          + k * l2_norm(gradient(p1))),
        "increment_over_k": l2_norm(u1.field - u0.field) / k,
        "u0_projection_error": err0,
        "div_u0": l2_norm(divergence(u0.field)),
        "div_u1": l2_norm(divergence(u1.field)),
    }
    return state, diagnostics, ws


def _quadrature_error(field: VectorP0, exact, quad_order: int) -> float:
    from . import quadrature

    mesh = field.mesh
    bary, w = quadrature.triangle_rule(max(quad_order, 4))
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    diff = (np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=float)
            - field.values[:, None, :])
    per_cell = np.einsum("tqd,tqd,q->t", diff, diff, w) * mesh.tri_area
    return float(np.sqrt(max(per_cell.sum(), 0.0)))


# -- driver --------------------------------------------------------------------------

def run(config: RunConfig, mesh: Mesh | None = None) -> Trajectory:
    """Execute the full time loop; optionally write monitors and snapshots."""
    if mesh is None:
        mesh = resolve_mesh(config.mesh_spec)
    require_admissible(mesh, allow_degenerate=config.allow_degenerate)

    t0 = time.perf_counter()
    state, diagnostics, ws = initialize(config, mesh)
    out = Path(config.out_dir) if config.out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    records = []
    for _ in range(1, config.n_steps):
        state, rec = advance(state, config, ws)
        records.append(rec)
        if out and config.cadence and (state.n % config.cadence == 0):
            _snapshot(out, state, ws)
    traj = Trajectory(config=config, mesh=mesh, records=records,
                      init_diagnostics=diagnostics, state=state,
                      elapsed=time.perf_counter() - t0)
    if out:
        traj.write_monitors(out / "monitors.csv")
    return traj


def _snapshot(out: Path, state: SchemeState, ws: _Workspace) -> None:
    mesh = state.u_curr.mesh
    div = divergence(state.u_curr.field)
    vtkio.write_unstructured(
        out / f"state_{state.n:06d}.vtk", mesh,
        cell_vectors={"velocity": state.u_curr.values},
        cell_scalars={"speed": np.linalg.norm(state.u_curr.values, axis=1)})
    vtkio.write_point_cloud(
        out / f"pressure_{state.n:06d}.vtk", mesh.edge_midpoint,
        scalars={"pressure": state.p_curr.values,
                 "div_velocity": div.values})
