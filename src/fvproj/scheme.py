"""BDF2 projection time-stepper: momentum prediction, pressure update,
velocity correction, and a hypothesis-compliant start-up.

Each step advances (u^{n-1}, u^n, p^n) to (u_tilde, p^{n+1}, u^{n+1}):

* predictor: (a0 u_tilde + a1 u^n + a2 u^{n-1}) / k - (1/Re) lap u_tilde
  + upwind(2 u^n - u^{n-1}, u_tilde) + grad p^n = f^{n+1},
* pressure and correction, one discrete Leray projection of u_tilde
  (``leray_project``): u^{n+1} = u_tilde - grad phi and p^{n+1} = p^n + dp,
  dp = (a0/k) phi, so (grad dp, grad r) = -(a0/k) (div u_tilde, r),

which leaves u^{n+1} divergence free up to the pressure-solve residual.
(a0, a1, a2) = (3/2, -2, 1/2) is BDF2.  Start-up: u^0 is the discrete
Leray projection of the cell-averaged data, and u^1 comes from the same
step out of (u^{-1}, u^0, p^0) = (u^0, u^0, 0) with the BDF1 coefficients
(1, -1, 0): semi-implicit Euler, advected by 2 u^0 - u^0 = u^0.

The predictor matrix a0/k M + H/Re + C(u*) has the pattern of H at every
step, so it is assembled as a data array on H's index arrays; both velocity
components are solved together by one lockstep BiCGStab from the
extrapolated predictor, preconditioned with a lagged SuperLU factor that
is rebuilt only for a capped solve that failed (``momentum_step``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import vtkio
from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, h_gram, h_norm,
                     l2_inner, l2_norm, mean_zero, project_p0)
from .linalg import LUFactor, SolverError, SparseOperator, Tolerance, solve
from .mesh import Mesh, require_admissible, resolve_mesh
from .operators import (CERT_TOL, convection_matrix, divergence, gradient,
                        h_diagonal, leray_project, pressure_solver,
                        trilinear_form)


class SchemeError(RuntimeError):
    """Caught by the CLI and perfbench; a failed step raises SolverError."""


# Tolerances of the momentum (BiCGStab) and pressure (factored) solves.
MOMENTUM_TOL = Tolerance(rtol=1e-12)
PRESSURE_TOL = Tolerance(rtol=1e-13)

# A solve with the current momentum factor stops at this many iterations
# per component and is repeated with a fresh factor, which needs about 3;
# uncapped, a failing one ran until BiCGStab diverged (1,381 iterations at
# acute:3, Re = 1e5, k = 0.5).  Caps of 10 and 40 cost more builds or more
# iterations on the convection-dominated runs (ROADMAP, dead ends).
LAGGED_MAXITER = 20

# The momentum solve starts from the quartic through the last five predictors
# at the new step (these weights, newest first), or from u* until five exist.
GUESS_WEIGHTS = (5.0, -10.0, 10.0, -5.0, 1.0)


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


# the names ``make_case`` knows, which ``RunConfig`` checks
CASES = ("zero", "manufactured-A")


def make_case(name: str, re: float) -> DataCase:
    if name == "zero":
        zero = lambda x, y: np.zeros(np.shape(x) + (2,))
        return DataCase("zero", zero, zero)
    if name == "manufactured-A":
        return DataCase("manufactured-A", _velocity_a,
                        lambda x, y: _forcing_a(x, y, re))
    raise ValueError(f"unknown case {name!r} (choose {' or '.join(CASES)})")


# -- configuration -----------------------------------------------------------------

# key of a ``run`` setting key=value -> (RunConfig field, parser); the mesh
# comes from ``run --mesh``
CONFIG_KEYS = {
    "k": ("k", float),
    "steps": ("n_steps", int),
    "re": ("re", float),
    "case": ("case", str),
    "out": ("out_dir", str),
    "cadence": ("cadence", int),
}


@dataclass
class RunConfig:
    mesh_spec: str = "acute:2"
    k: float = 1e-2
    n_steps: int = 200
    re: float = 100.0
    case: str = "manufactured-A"
    out_dir: str | None = None
    cadence: int = 0            # snapshot every this many steps; 0 disables

    def __post_init__(self):
        # written so that NaN fails them; re = inf (no viscous term) runs
        if not 0 < self.k < np.inf:
            raise ValueError(f"config key 'k': time step must be positive "
                             f"and finite, got {self.k}")
        if self.n_steps < 2:
            raise ValueError(f"config key 'steps': need at least 2 steps, "
                             f"got {self.n_steps}")
        if not self.re > 0:
            raise ValueError(f"config key 're': Reynolds number must be "
                             f"positive, got {self.re}")
        if self.cadence < 0:
            raise ValueError(f"config key 'cadence': cadence must be >= 0, "
                             f"got {self.cadence}")
        if self.cadence and not self.out_dir:
            raise ValueError("config key 'cadence': snapshots need an output "
                             "directory (config key 'out')")
        if self.case not in CASES:
            raise ValueError(f"config key 'case': unknown case {self.case!r} "
                             f"(choose {' or '.join(CASES)})")

    def with_overrides(self, pairs: dict) -> "RunConfig":
        changes = {}
        for key, val in pairs.items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            name, parse = CONFIG_KEYS[key]
            try:
                changes[name] = parse(val)
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse {val!r} "
                                 f"as {parse.__name__}") from None
        return replace(self, **changes)


@dataclass
class SchemeState:
    u_prev: SolenoidalP0
    u_curr: SolenoidalP0
    p_curr: ScalarP1NC
    t: float
    n: int
    u_tilde: VectorP0 | None = None
    grad_p: VectorP0 | None = None  # gradient(p_curr); None before start-up
    predictors: tuple = ()  # u_tilde.values of the last steps, newest first


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
    mom_refactor: int = 0       # momentum factors the step built (0 or 1)
    p_backward_error: float = 0.0   # normwise backward error of the pressure solve


@dataclass
class Trajectory:
    config: RunConfig
    mesh: Mesh
    records: list
    init_diagnostics: dict
    state: SchemeState
    elapsed: float
    snapshot_files: int = 0     # VTK files written, their bytes and wall time
    snapshot_bytes: int = 0
    snapshot_s: float = 0.0
    mom_solves: int = 0         # momentum solves, start-up and retries included
    mom_failed: int = 0         # capped momentum solves that failed
    mom_failed_iters: int = 0   # and the BiCGStab iterations they spent
    # (stored entries, build seconds) of the pressure factor and of the
    # last momentum factor built
    pressure_factor: tuple = (0, 0.0)
    momentum_factor: tuple = (0, 0.0)

    def monitor_rows(self):
        names = tuple(f.name for f in fields(StepRecord))
        return names, [[getattr(r, n) for n in names] for r in self.records]

    def write_monitors(self, path) -> None:
        names, rows = self.monitor_rows()
        with open(path, "w") as f:
            f.write(",".join(names) + "\n")
            for row in rows:
                f.write(",".join(f"{v:d}" if isinstance(v, int) else f"{v:.16e}"
                                 for v in row) + "\n")


class _Workspace:
    """Once-per-run pieces: the projected (steady) forcing and the current
    momentum factor; and what the last substeps leave for the step record.
    Per-mesh matrices, masses and factors are read from the mesh's cache
    where they are used."""

    def __init__(self, config: RunConfig, mesh: Mesh):
        self.mesh = mesh
        self.case = make_case(config.case, config.re)
        self.cert_tol = CERT_TOL
        self.forcing = project_p0(self.case.forcing, mesh)
        self.mom_factor = None
        self.mom_iters = self.mom_refactor = self.mom_solves = 0
        self.mom_failed = self.mom_failed_iters = 0
        self.convection = None      # weighted C(u*) of the last momentum step
        self.p_backward_error = 0.0
        self.div_residual = 0.0     # |div u| of the last projected field
        self.u_l2 = 0.0             # |u| of the last projected field
        self.u_star_l2 = 0.0        # |u*| of the last momentum step
        self.cadence = config.cadence

    def snapshot_due(self, n: int) -> bool:
        """Whether the run writes a snapshot of step n's state (never of the
        start-up states u^0 and u^1)."""
        return n >= 2 and self.cadence > 0 and n % self.cadence == 0


# -- the three substeps --------------------------------------------------------------

def _bdf_coefficients(state: SchemeState):
    """(a0, a1, a2) of the step out of ``state``: BDF1 at n = 0, BDF2 after."""
    return (1.0, -1.0, 0.0) if state.n == 0 else (1.5, -2.0, 0.5)


def momentum_step(state: SchemeState, config: RunConfig, ws: _Workspace,
                  grad_p: VectorP0) -> VectorP0:
    """Solve the predictor system: one matrix a0/k M + H/Re + C(u*),
    assembled as a data array on the pattern of H, and one BiCGStab solve
    for both velocity components from the guess that GUESS_WEIGHTS sets.

    ``grad_p`` is gradient(state.p_curr).  The run's first momentum solve,
    the start-up step, builds a factor of the BDF2 matrix
    3/(2k) M + H/Re + C(u*).  Every solve runs with the current factor,
    capped at LAGGED_MAXITER (20) iterations per component.  A solve that
    does not converge within that cap is repeated at once with a fresh
    factor of the step's own matrix, uncapped (default 10 n), and that
    factor becomes the current one; only a failure of the repeat raises
    SolverError.  Leaves the weighted convection matrix C(u*) in
    ``ws.convection`` and |u*| in ``ws.u_star_l2``, the step's BiCGStab
    iterations (every solve, both components) in ``ws.mom_iters`` and the
    number of factors it built in ``ws.mom_refactor``; adds its solves to
    ``ws.mom_solves``, and a failed capped solve and its iterations to
    ``ws.mom_failed`` and ``ws.mom_failed_iters``.
    """
    k = config.k
    a0, a1, a2 = _bdf_coefficients(state)
    u_star = 2.0 * state.u_curr.field - state.u_prev.field
    ws.u_star_l2 = l2_norm(u_star)
    # unchecked: a combination of two fields that leray_project certified
    ws.convection = convection_matrix(SolenoidalP0(u_star))
    mesh = ws.mesh
    H = h_gram(mesh)

    def with_mass(shift):
        # (1/Re) H + C(u*) + shift M, its one data array written in place
        data = np.multiply(H.data, 1.0 / config.re)
        data += ws.convection.data
        data[h_diagonal(mesh)] += shift * mesh.tri_area
        return sp.csr_matrix((data, H.indices, H.indptr), shape=H.shape)

    ws.mom_refactor = 0
    if ws.mom_factor is None:  # the start-up step
        ws.mom_factor = LUFactor(with_mass(1.5 / k), name="momentum matrix")
        ws.mom_refactor = 1
    # the right-hand sides and the guess are built as (2, n) arrays, the
    # layout that ``solve`` iterates on, and passed as their transposes
    rhs = np.empty((2, mesh.num_triangles))
    np.multiply(ws.forcing.values
                - (a1 * state.u_curr.values + a2 * state.u_prev.values) / k
                - grad_p.values, mesh.tri_area[:, None], out=rhs.T)
    guess = np.empty_like(rhs)
    guess.T[...] = (sum(w * v for w, v in zip(GUESS_WEIGHTS, state.predictors))
                    if len(state.predictors) == len(GUESS_WEIGHTS) else u_star.values)
    A = SparseOperator(with_mass(a0 / k), ws.mom_factor.apply, guess.T)
    out, info = solve(A, rhs.T, replace(MOMENTUM_TOL, maxiter=LAGGED_MAXITER))
    ws.mom_iters = info.iterations
    ws.mom_solves += 1
    if not info.converged:
        # u* has moved too far from the factor's: factor this matrix
        ws.mom_failed += 1
        ws.mom_failed_iters += info.iterations
        A.preconditioner = ws.mom_factor = None
        ws.mom_factor = LUFactor(A.matrix, name="momentum matrix")
        A.preconditioner = ws.mom_factor.apply
        ws.mom_refactor += 1
        out, info = solve(A, rhs.T, MOMENTUM_TOL)
        ws.mom_iters += info.iterations
        ws.mom_solves += 1
    if not info.converged:
        c = next(c for c, col in enumerate(info.columns) if not col.converged)
        raise SolverError(f"momentum solve (component {c}) failed: {info.columns[c]}")
    return VectorP0(mesh, out)


def pressure_step(state: SchemeState, u_tilde: VectorP0, config: RunConfig,
                  ws: _Workspace):
    """Project u_tilde with ``leray_project``, which certifies u^{n+1}:
    returns (u^{n+1} = u_tilde - grad phi, p^{n+1} = p^n + (a0/k) phi at
    zero mean) and leaves |u^{n+1}|, |div u^{n+1}| and the solve's normwise
    backward error in ``ws`` for the step record."""
    u_next, phi, info, ws.div_residual = leray_project(
        u_tilde, PRESSURE_TOL, f"pressure step {state.n + 1}")
    ws.u_l2 = l2_norm(u_next.field)
    ws.p_backward_error = info.backward_error
    a0 = _bdf_coefficients(state)[0]
    return u_next, mean_zero(state.p_curr + (a0 / config.k) * phi)


def correction_step(state: SchemeState, u_tilde: VectorP0, u_next: SolenoidalP0,
                    p_next: ScalarP1NC, config: RunConfig) -> SchemeState:
    """Rotate the state, which keeps gradient(p_next) for the next step."""
    history = (u_tilde.values,) + state.predictors
    return SchemeState(u_prev=state.u_curr, u_curr=u_next, p_curr=p_next,
                       t=state.t + config.k, n=state.n + 1, u_tilde=u_tilde,
                       grad_p=gradient(p_next), predictors=history[:len(GUESS_WEIGHTS)])


def _substeps(state: SchemeState, config: RunConfig, ws: _Workspace,
              grad_p: VectorP0) -> SchemeState:
    """The three substeps out of ``state`` (BDF1 at n = 0, BDF2 after);
    ``grad_p`` is gradient(state.p_curr)."""
    u_tilde = momentum_step(state, config, ws, grad_p=grad_p)
    u_next, p_next = pressure_step(state, u_tilde, config, ws)
    return correction_step(state, u_tilde, u_next, p_next, config)


def advance(state: SchemeState, config: RunConfig, ws: _Workspace):
    """One full BDF2 projection step; returns (new state, StepRecord)."""
    k = config.k
    u_n_l2 = ws.u_l2  # projected at the last step, or at start-up
    new = _substeps(state, config, ws, state.grad_p)
    u_tilde, p_next = new.u_tilde, new.p_curr

    u_np1, u_n = new.u_curr.field, state.u_curr.field
    tiny = 1e-300
    u_np1_l2 = ws.u_l2
    u_tilde_l2 = l2_norm(u_tilde)
    jump_l2 = l2_norm(u_np1 - u_tilde)
    ut_hnorm = h_norm(u_tilde)
    orth = abs(l2_inner(u_np1, new.grad_p)) / (u_np1_l2 * l2_norm(new.grad_p) + tiny)
    pyth_num = u_np1_l2 ** 2 - u_tilde_l2 ** 2 + jump_l2 ** 2
    pyth = abs(pyth_num) / max(u_tilde_l2 ** 2, tiny)

    terms = [
        u_np1_l2 ** 2 - u_n_l2 ** 2,
        l2_norm(2.0 * u_np1 - u_n) ** 2 - ws.u_star_l2 ** 2,
        l2_norm(u_np1 - 2.0 * u_n + state.u_prev.field) ** 2,
        6.0 * jump_l2 ** 2,
        4.0 * k / config.re * ut_hnorm ** 2,
        4.0 * k * trilinear_form(ws.convection, u_tilde, u_tilde),
        4.0 * k * l2_inner(state.grad_p, u_tilde),
        -4.0 * k * l2_inner(ws.forcing, u_tilde),
    ]
    energy = abs(sum(terms)) / max(max(abs(v) for v in terms), tiny)

    rec = StepRecord(
        step=new.n, t=new.t,
        u_l2=u_np1_l2,
        ut_hnorm=ut_hnorm,
        p_l2=l2_norm(p_next),
        div_residual=ws.div_residual,
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

    u0, _, _, div_u0 = leray_project(project_p0(ws.case.u0, mesh),
                                     PRESSURE_TOL, "initial projection")
    u0_l2 = l2_norm(u0.field)
    # before the start-up step, so that the quadrature's temporaries are
    # gone before the momentum factor is built
    err0 = _quadrature_error(u0.field, ws.case.u0)

    state = SchemeState(u_prev=u0, u_curr=u0,
                        p_curr=ScalarP1NC(mesh, np.zeros(mesh.num_edges)),
                        t=0.0, n=0)
    grad_p0 = VectorP0(mesh, np.zeros((mesh.num_triangles, 2)))  # of p^0 = 0
    state = _substeps(state, config, ws, grad_p0)
    k_grad_p1_l2 = k * l2_norm(state.grad_p)

    diagnostics = {
        "u0_l2": u0_l2,
        "u1_l2": ws.u_l2,               # the projection's |u1|
        "k_grad_p1_l2": k_grad_p1_l2,
        "startup_bound": u0_l2 + ws.u_l2 + k_grad_p1_l2,
        "u0_projection_error": err0,
        "div_u0": div_u0,
        "div_u1": ws.div_residual,      # the projection's |div u1|
        "mom_iters": ws.mom_iters, "mom_refactor": ws.mom_refactor,  # start-up solve
    }
    return state, diagnostics, ws


def _quadrature_error(field: VectorP0, exact) -> float:
    from . import quadrature

    mesh = field.mesh
    bary, w = quadrature.triangle_rule(4)
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
    require_admissible(mesh)

    t0 = time.perf_counter()
    state, diagnostics, ws = initialize(config, mesh)
    out = Path(config.out_dir) if config.out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    records, snapshots, snapshot_s = [], [], 0.0
    for _ in range(1, config.n_steps):
        state, rec = advance(state, config, ws)
        records.append(rec)
        if ws.snapshot_due(state.n):
            t_snap = time.perf_counter()
            snapshots += _snapshot(out, state)
            snapshot_s += time.perf_counter() - t_snap
    p_factor, m_factor = pressure_solver(mesh), ws.mom_factor
    traj = Trajectory(config=config, mesh=mesh, records=records,
                      init_diagnostics=diagnostics, state=state,
                      elapsed=time.perf_counter() - t0,
                      snapshot_files=len(snapshots),
                      snapshot_bytes=sum(p.stat().st_size for p in snapshots),
                      snapshot_s=snapshot_s, mom_solves=ws.mom_solves,
                      mom_failed=ws.mom_failed, mom_failed_iters=ws.mom_failed_iters,
                      pressure_factor=(p_factor.nnz, p_factor.build_s),
                      momentum_factor=(m_factor.nnz, m_factor.build_s))
    if out:
        traj.write_monitors(out / "monitors.csv")
    return traj


def _snapshot(out: Path, state: SchemeState) -> list:
    """Write the state's velocity and pressure files, the pressure's with
    the divergence of the velocity; return their paths."""
    mesh = state.u_curr.mesh
    grid = out / f"state_{state.n:06d}.vtk"
    cloud = out / f"pressure_{state.n:06d}.vtk"
    vtkio.write_unstructured(
        grid, mesh,
        cell_vectors={"velocity": state.u_curr.values},
        cell_scalars={"speed": np.linalg.norm(state.u_curr.values, axis=1)})
    vtkio.write_point_cloud(
        cloud, mesh.edge_midpoint,
        scalars={"pressure": state.p_curr.values,
                 "div_velocity": divergence(state.u_curr.field).values})
    return [grid, cloud]
