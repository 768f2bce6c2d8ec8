"""Executable verification of the discrete-operator properties and of the
run-time stability estimates.

Each structural property of the operators becomes one named, seeded,
reproducible check: adjointness of gradient/divergence, coercivity and
continuity of the velocity Laplacian, positivity/stability/consistency of
the upwind transport, the discrete inf-sup bound, the Poincare and inverse
inequalities, and the projection-orthogonality identities.  Small meshes
are additionally cross-validated against the independent dense reference
implementations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import reference
from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, collocate_p0,
                     dual_norm, h_gram, h_norm, l2_inner, l2_norm, norm_1h,
                     p0_mass, p1nc_mass, project_p0, project_rt0)
from .linalg import SolverConfig, SolverError, ZeroMeanSolver, solve
from .mesh import Mesh, unit_square_acute
from .operators import (convection_matrix, divergence, gradient,
                        gradient_matrices, laplacian_p0, leray_project,
                        pressure_stiffness, trilinear_form, upwind_convection)
from .scheme import _velocity_a

IDENTITY_TOL = 1e-11
DENSE_ORACLE_TOL = 1e-13


@dataclass
class CheckResult:
    name: str
    level: int
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    def add(self, name, level, value, tolerance, passed, note=""):
        self.results.append(CheckResult(name, level, float(value),
                                        float(tolerance), bool(passed), note))

    def record_constant(self, name, level, value):
        self.constants.setdefault(name, {})[level] = float(value)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [f"{'check':42s} {'lvl':>3s} {'value':>13s} {'tolerance':>13s} pass"]
        for r in self.results:
            lines.append(f"{r.name:42s} {r.level:3d} {r.value:13.4e} "
                         f"{r.tolerance:13.4e} {'ok' if r.passed else 'FAIL'}"
                         + (f"  [{r.note}]" if r.note else ""))
        for name, seq in sorted(self.constants.items()):
            vals = " ".join(f"L{lvl}={v:.6g}" for lvl, v in sorted(seq.items()))
            lines.append(f"constant {name}: {vals}")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("check,level,value,tolerance,pass\n")
            for r in self.results:
                f.write(f"{r.name},{r.level},{r.value:.16e},"
                        f"{r.tolerance:.16e},{int(r.passed)}\n")


# -- random field machinery ---------------------------------------------------------

def _rng(seed, level):
    return np.random.default_rng(np.random.SeedSequence([seed, level]))


def random_vector_p0(mesh, rng) -> VectorP0:
    return VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))


def random_p1nc(mesh, rng) -> ScalarP1NC:
    return ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))


# tolerances of the verification suite's linear solves
_TIGHT = SolverConfig(method="cg", rtol=1e-13, atol=1e-16)


def random_solenoidal(mesh, rng) -> SolenoidalP0:
    return SolenoidalP0.trusted(
        leray_project(random_vector_p0(mesh, rng), _TIGHT)[0])


# -- operator identities ---------------------------------------------------------------

def check_identities(mesh: Mesh, seed: int = 7, level: int = 0,
                     n_samples: int = 32,
                     report: VerificationReport | None = None) -> VerificationReport:
    """Adjointness, Laplacian coercivity/continuity, and the projection
    orthogonality identities, on seeded random fields."""
    report = report or VerificationReport()
    rng = _rng(seed, level)
    adj = coer = cont = orth = pyth = 0.0
    for _ in range(n_samples):
        v = random_vector_p0(mesh, rng)
        q = random_p1nc(mesh, rng)
        lhs = l2_inner(v, gradient(q))
        rhs = -l2_inner(q, divergence(v))
        adj = max(adj, abs(lhs - rhs) / (l2_norm(v) * norm_1h(q)))

        hn2 = h_norm(v) ** 2
        coer = max(coer, abs(-l2_inner(laplacian_p0(v), v) - hn2) / hn2)

        w = random_vector_p0(mesh, rng)
        cont = max(cont, -l2_inner(laplacian_p0(v), w) / (h_norm(v) * h_norm(w)))

        u = SolenoidalP0.trusted(leray_project(w, _TIGHT)[0])
        gq = gradient(q)
        # normalize by the pre-projection field: on meshes whose solenoidal
        # subspace is trivial the projected field is pure roundoff
        orth = max(orth, abs(l2_inner(u.field, gq)) / (l2_norm(w) * l2_norm(gq)))
        pyth_num = (l2_norm(u.field) ** 2 - l2_norm(w) ** 2
                    + l2_norm(u.field - w) ** 2)
        pyth = max(pyth, abs(pyth_num) / l2_norm(w) ** 2)

    report.add("gradient-divergence-adjointness", level, adj, IDENTITY_TOL,
               adj <= IDENTITY_TOL, f"{n_samples} random pairs")
    report.add("velocity-laplacian-coercivity", level, coer, IDENTITY_TOL,
               coer <= IDENTITY_TOL)
    report.add("velocity-laplacian-continuity", level, cont, 1.0 + IDENTITY_TOL,
               cont <= 1.0 + IDENTITY_TOL, "ratio vs product of h-norms")
    report.add("projection-orthogonality", level, orth, IDENTITY_TOL,
               orth <= IDENTITY_TOL)
    report.add("projection-pythagoras", level, pyth, IDENTITY_TOL,
               pyth <= IDENTITY_TOL)

    if mesh.num_triangles <= 64:
        worst = 0.0
        for _ in range(4):
            v = random_vector_p0(mesh, rng)
            q = random_p1nc(mesh, rng)
            lhs_ref, rhs_ref = reference.adjointness_sides_direct(
                mesh, v.values, q.values)
            lhs = l2_inner(v, gradient(q))
            rhs = -l2_inner(q, divergence(v))
            scale = max(abs(lhs_ref), abs(rhs_ref), 1.0)
            worst = max(worst, abs(lhs - lhs_ref) / scale,
                        abs(rhs - rhs_ref) / scale)
        report.add("adjointness-dense-oracle", level, worst, DENSE_ORACLE_TOL,
                   worst <= DENSE_ORACLE_TOL, "independent dense assembly")
    return report


def check_convection(mesh: Mesh, seed: int = 7, level: int = 0,
                     n_samples: int = 32, n_extremal: int = 3,
                     report: VerificationReport | None = None) -> VerificationReport:
    """Positivity and norm stability of the upwind transport form with
    divergence-free advecting fields.

    The stability constant sup |b(u,v,w)| / (|u| ||v||_h ||w||_h) is taken
    over extremal (v, w) pairs (the largest singular value of the
    h-normalized transport matrix) for a few random solenoidal u; random
    probes only certify positivity.
    """
    report = report or VerificationReport()
    rng = _rng(seed, level + 101)
    neg = 0.0
    const_resid = 0.0
    ones = VectorP0(mesh, np.ones((mesh.num_triangles, 2)))
    for _ in range(n_samples):
        u = random_solenoidal(mesh, rng)
        v = random_vector_p0(mesh, rng)
        scale = l2_norm(u.field) * h_norm(v) ** 2
        neg = min(neg, trilinear_form(u, v, v) / scale)
        const_resid = max(const_resid,
                          abs(trilinear_form(u, ones, ones)) / l2_norm(u.field))

    # the stability ratio is maximized by concentrated advecting fields
    # (they saturate the inverse inequality between the max and L2 norms),
    # so probe with solenoidal single-cell impulses
    stab = 0.0
    H = h_gram(mesh).toarray()
    evals, evecs = np.linalg.eigh(H)
    h_invsq = (evecs / np.sqrt(evals)) @ evecs.T
    for _ in range(n_extremal):
        cell = rng.integers(mesh.num_triangles)
        vals = np.zeros((mesh.num_triangles, 2))
        vals[cell] = rng.standard_normal(2)
        u = SolenoidalP0.trusted(
            leray_project(VectorP0(mesh, vals), _TIGHT)[0])
        W = convection_matrix(u, weighted=True).matrix.toarray()
        sigma = np.linalg.norm(h_invsq @ W @ h_invsq, ord=2)
        stab = max(stab, sigma / l2_norm(u.field))

    report.add("convection-positivity", level, neg, -IDENTITY_TOL,
               neg >= -IDENTITY_TOL, "min of b(u,v,v)/(|u| ||v||_h^2)")
    report.add("convection-constant-field", level, const_resid, 1e-12,
               const_resid <= 1e-12, "transport of a constant vanishes")
    report.record_constant("convection-stability", level, stab)
    report.add("convection-stability-finite", level, stab, np.inf,
               np.isfinite(stab), "extremal norm-stability constant")
    return report


# -- inf-sup ------------------------------------------------------------------------------

@dataclass
class InfSupResult:
    beta: float
    candidate_ratio: float      # ratio achieved by the gradient supremizer
    lemma_constant: float       # candidate_ratio / (h ||q||_1h / |q|)
    q_min: np.ndarray


def estimate_infsup(mesh: Mesh, dense_limit: int = 1500) -> InfSupResult:
    """Smallest inf-sup ratio over mean-zero pressures.

    Computed as the square root of the smallest eigenvalue of the pressure
    Schur complement in the pressure-mass inner product; the supremum over
    velocities is realized through one SPD solve per gradient column.
    """
    ne = mesh.num_edges
    mass_p = p1nc_mass(mesh)
    if ne <= dense_limit:
        S = _schur_dense(mesh)
        basis = scipy.linalg.null_space(mass_p[None, :])
        A = basis.T @ S @ basis
        B = basis.T @ (mass_p[:, None] * basis)
        vals, vecs = scipy.linalg.eigh(A, B)
        lam = float(vals[0])
        q_min = basis @ vecs[:, 0]
    else:
        lam, q_min = _schur_smallest_iterative(mesh, mass_p)
    beta = float(np.sqrt(max(lam, 0.0)))

    q = ScalarP1NC(mesh, q_min)
    gq = gradient(q)
    denom = h_norm(gq) * l2_norm(q)
    candidate = l2_inner(gq, gq) / denom if denom > 0 else 0.0
    lemma_scale = mesh.h * norm_1h(q) / l2_norm(q)
    return InfSupResult(beta=beta, candidate_ratio=float(candidate),
                        lemma_constant=float(candidate / lemma_scale),
                        q_min=q_min)


def _schur_dense(mesh: Mesh) -> np.ndarray:
    Gx, Gy = gradient_matrices(mesh)
    H = h_gram(mesh).toarray()
    area = p0_mass(mesh)
    S = np.zeros((mesh.num_edges, mesh.num_edges))
    for G in (Gx, Gy):
        MG = area[:, None] * G.toarray()
        S += MG.T @ np.linalg.solve(H, MG)
    return S


def _schur_smallest_iterative(mesh: Mesh, mass_p, tol=1e-10, maxiter=300):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    Gx, Gy = gradient_matrices(mesh)
    H = h_gram(mesh)
    area = p0_mass(mesh)
    lu = spla.splu(sp.csc_matrix(H))

    def s_matvec(q):
        q = np.asarray(q, dtype=float).ravel()
        out = np.zeros(len(q))
        for G in (Gx, Gy):
            mg = area * (G @ q)
            out += G.T @ (area * lu.solve(mg))
        return out

    ne = mesh.num_edges
    S_op = spla.LinearOperator((ne, ne), matvec=s_matvec, dtype=np.float64)
    M_op = sp.diags(mass_p)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((ne, 1))
    x0 -= (mass_p @ x0) / mass_p.sum()
    # deflate the constant kernel: keep iterates B-orthogonal to it
    constants = np.ones((ne, 1))
    vals, vecs = spla.lobpcg(S_op, x0, B=M_op, Y=constants, largest=False,
                             tol=tol, maxiter=maxiter)
    return float(vals[0]), vecs[:, 0]


def infsup_sweep(levels, dense_limit: int = 1500,
                 report: VerificationReport | None = None) -> VerificationReport:
    """Inf-sup constants across refinement levels, with positivity,
    level-drift, and supremizer-candidate checks."""
    report = report or VerificationReport()
    betas = []
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        res = estimate_infsup(mesh, dense_limit=dense_limit)
        betas.append(res.beta)
        report.record_constant("infsup-beta", lvl, res.beta)
        report.record_constant("infsup-lemma-lower-bound", lvl, res.lemma_constant)
        report.add("infsup-positive", lvl, res.beta, 0.01, res.beta > 0.01)
        report.add("infsup-gradient-candidate", lvl,
                   res.candidate_ratio, res.beta * (1 + 1e-9),
                   res.candidate_ratio <= res.beta * (1 + 1e-9),
                   "gradient supremizer never beats the supremum")
    drift = max(betas) / min(betas)
    report.add("infsup-level-drift", min(levels), drift, 1.2, drift <= 1.2,
               f"levels {tuple(levels)}")
    return report


def infsup_oracle_check(report: VerificationReport | None = None,
                        seed: int = 0) -> VerificationReport:
    """Validate the Schur-complement computation against brute-force
    maximization over the velocity sphere on the smallest admissible mesh
    with an interior edge.

    At the minimizing pressure the velocity sup must reproduce the
    eigenvalue; at random mean-zero pressures it must never go below it.
    """
    from .mesh import equilateral_pair

    report = report or VerificationReport()
    mesh = equilateral_pair()
    res = estimate_infsup(mesh)

    qn = reference.p1nc_l2_norm_direct(mesh, res.q_min)
    brute = reference.infsup_sup_over_velocities(mesh, res.q_min, seed=seed) / qn
    diff = abs(res.beta - brute) / res.beta
    report.add("infsup-brute-force-oracle", 0, diff, 1e-6, diff <= 1e-6,
               f"schur {res.beta:.9f} vs sphere max {brute:.9f}")

    rng = _rng(seed, 42)
    mass = p1nc_mass(mesh)
    lowest = np.inf
    for _ in range(4):
        q = rng.standard_normal(mesh.num_edges)
        q -= (mass @ q) / mass.sum()
        ratio = (reference.infsup_sup_over_velocities(mesh, q, seed=seed, starts=4)
                 / reference.p1nc_l2_norm_direct(mesh, q))
        lowest = min(lowest, ratio)
    report.add("infsup-minimality", 0, lowest, res.beta * (1 - 1e-9),
               lowest >= res.beta * (1 - 1e-9),
               "random pressures never undercut the minimum")
    return report


# -- convection consistency rate -----------------------------------------------------------

def _analytic_pair():
    """Divergence-free transporting field with zero trace, and a smooth
    transported field, plus their continuous transport term."""
    def u(x, y):
        return _velocity_a(x, y)

    def v(x, y):
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.zeros_like(x)], axis=-1)

    def transport(x, y):
        uu = _velocity_a(x, y)
        gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        return np.stack([gx * uu[..., 0] + gy * uu[..., 1],
                         np.zeros_like(x)], axis=-1)

    return u, v, transport


@dataclass
class RateResult:
    rate: float
    hs: list
    errors: list


def consistency_rate(levels=(1, 2, 3), pair=None) -> RateResult:
    """Dual-norm distance between the projected continuous transport term
    and the upwind transport of the projected fields, across refinement;
    the least-squares slope is the measured consistency rate."""
    if len(levels) < 3:
        raise ValueError("rate measurement needs at least 3 refinement levels")
    u, v, transport = pair or _analytic_pair()
    hs, errors = [], []
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        # 5-point Gauss integrates the degree-7 edge traces of the built-in
        # transporting field exactly, so its per-cell flux balance vanishes
        u_h = project_rt0(u, mesh, npoints=5)
        v_h = collocate_p0(v, mesh)
        target = project_p0(transport, mesh)
        err = dual_norm(target - upwind_convection(u_h, v_h))
        hs.append(mesh.h)
        errors.append(err)
    if min(errors) == 0.0:
        return RateResult(rate=np.inf, hs=hs, errors=errors)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return RateResult(rate=float(slope), hs=hs, errors=errors)


# -- Poincare / inverse constants ------------------------------------------------------------

def _prefactored_solver(A, zero_mean_weights):
    """Reusable solver for the many identical solves of a power iteration.

    Dense Cholesky below 2000 unknowns (on the zero-mean subspace when
    weights are given); otherwise the sparse bordered LU with weights, and
    per-solve CG without.
    """
    n = A.shape[0]
    if n < 2000:
        dense = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
        if zero_mean_weights is None:
            factor = scipy.linalg.cho_factor(dense)
            return lambda b: scipy.linalg.cho_solve(factor, b)
        basis = scipy.linalg.null_space(
            np.asarray(zero_mean_weights, dtype=float)[None, :])
        factor = scipy.linalg.cho_factor(basis.T @ dense @ basis)
        return lambda b: basis @ scipy.linalg.cho_solve(factor, basis.T @ b)

    if zero_mean_weights is not None:
        lu = ZeroMeanSolver(A, zero_mean_weights)
        return lambda b: lu.solve(b, _TIGHT, "power iteration")[0]

    def apply(b):
        x, info = solve(A, b, _TIGHT)
        if not info.converged:
            raise SolverError(f"power-iteration solve failed: {info}")
        return x

    return apply


def _power_iteration(apply_op, b_product, a_product, x0, tol=1e-15,
                     maxiter=200000):
    """Largest lambda of A x = lambda B x given x -> B^{-1} A x; the
    Rayleigh quotient (x'Ax)/(x'Bx) must settle for several consecutive
    iterations before the value is accepted."""
    x = x0 / np.linalg.norm(x0)
    lam = 0.0
    settled = 0
    for _ in range(maxiter):
        y = apply_op(x)
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0, x
        y /= ny
        lam_new = a_product(y) / b_product(y)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-30):
            settled += 1
            if settled >= 4:
                return lam_new, y
        else:
            settled = 0
        lam, x = lam_new, y
    return lam, x


def poincare_inverse_constants(levels=(0, 1, 2), seed: int = 7,
                               report: VerificationReport | None = None
                               ) -> VerificationReport:
    """Extremal constants of the Poincare and inverse inequalities per
    level, by power iteration on the generalized eigenproblems, with a
    dense-eigensolver oracle on the coarsest level."""
    report = report or VerificationReport()
    per_level = {"poincare-cellwise": [], "inverse-inequality": [],
                 "poincare-pressure": []}
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        rng = _rng(seed, lvl + 757)
        area = p0_mass(mesh)
        H = h_gram(mesh)
        apply_h_inv = _prefactored_solver(H, None)
        # the coarsest level is compared against the dense oracle; finer
        # levels only feed the (loose) drift trend
        tol = 1e-15 if lvl == min(levels) else 1e-12

        lam_p, _ = _power_iteration(
            lambda x: apply_h_inv(area * x),
            b_product=lambda x: x @ (H @ x),
            a_product=lambda x: x @ (area * x),
            x0=rng.standard_normal(mesh.num_triangles), tol=tol)
        c_poincare = float(np.sqrt(lam_p))

        lam_i, _ = _power_iteration(
            lambda x: (H @ x) / area,
            b_product=lambda x: x @ (area * x),
            a_product=lambda x: x @ (H @ x),
            x0=rng.standard_normal(mesh.num_triangles), tol=tol)
        c_inverse = float(mesh.h * np.sqrt(lam_i))

        mass_p = p1nc_mass(mesh)
        A = pressure_stiffness(mesh)
        apply_a_inv = _prefactored_solver(A.matrix, mass_p)

        x0 = rng.standard_normal(mesh.num_edges)
        x0 -= (mass_p @ x0) / mass_p.sum()
        lam_q, _ = _power_iteration(
            lambda x: apply_a_inv(mass_p * x),
            b_product=lambda x: x @ (A @ x),
            a_product=lambda x: x @ (mass_p * x),
            x0=x0, tol=tol)
        c_pressure = float(np.sqrt(lam_q))

        for name, val in (("poincare-cellwise", c_poincare),
                          ("inverse-inequality", c_inverse),
                          ("poincare-pressure", c_pressure)):
            report.record_constant(name, lvl, val)
            per_level[name].append(val)

        if lvl == min(levels):
            Hd = H.toarray() if hasattr(H, "toarray") else H
            Md = np.diag(area)
            lam_ref = reference.generalized_eig_extremes(Md, Hd)[1]
            agree = abs(np.sqrt(lam_ref) - c_poincare) / np.sqrt(lam_ref)
            lam_ref_i = reference.generalized_eig_extremes(Hd, Md)[1]
            agree = max(agree,
                        abs(mesh.h * np.sqrt(lam_ref_i) - c_inverse)
                        / (mesh.h * np.sqrt(lam_ref_i)))
            basis = scipy.linalg.null_space(mass_p[None, :])
            Ad = A.toarray()
            lam_min_a = reference.generalized_eig_extremes(
                basis.T @ Ad @ basis, basis.T @ (mass_p[:, None] * basis))[0]
            agree = max(agree,
                        abs(1.0 / np.sqrt(lam_min_a) - c_pressure)
                        / (1.0 / np.sqrt(lam_min_a)))
            report.add("extremal-constants-dense-oracle", lvl, agree, 1e-8,
                       agree <= 1e-8, "power iteration vs dense eigensolver")

    for name, vals in per_level.items():
        drift = max(vals) / min(vals)
        report.add(f"{name}-drift", min(levels), drift, 2.0, drift < 2.0,
                   f"levels {tuple(levels)}")
    return report


# -- run-time stability monitors -----------------------------------------------------------

@dataclass
class MonitorFlag:
    name: str
    reference: float
    worst: float
    ratio: float
    passed: bool


@dataclass
class MonitorReport:
    flags: list
    table: dict
    startup: dict

    @property
    def ok(self):
        return all(f.passed for f in self.flags)


def stability_monitors(records, init_diagnostics=None, k: float | None = None,
                       factor: float = 10.0) -> MonitorReport:
    """No-blow-up screening of a completed run.

    Pointwise sequences (the squared velocity norm and the time-difference
    quotients) must stay within ``factor`` times their value one tenth of
    the way in.  Cumulative sums grow linearly for perfectly steady data,
    so their running averages are screened instead of the raw sums.
    """
    if not records:
        raise ValueError("empty run")
    if k is None:
        k = records[1].t - records[0].t if len(records) > 1 else records[0].t
    u2 = np.array([r.u_l2 ** 2 for r in records])
    ut2_sum = np.cumsum([k * r.ut_hnorm ** 2 for r in records])
    p2_sum = np.cumsum([k * r.p_l2 ** 2 for r in records])
    inc = np.array([r.increment for r in records])
    steps = np.arange(1, len(records) + 1)

    energy = u2 + ut2_sum
    table = {
        "u_l2_sq": u2,
        "running_k_sum_ut_h_sq": ut2_sum,
        "increment_over_k": inc,
        "running_k_sum_p_sq": p2_sum,
        "energy_quantity": energy,
    }

    m_ref = max(len(records) // 10, 1)
    flags = []

    def screen(name, seq):
        ref = float(seq[m_ref - 1])
        worst = float(np.max(seq[m_ref - 1:]))
        floor = 1e-30
        ratio = worst / max(ref, floor) if worst > floor else 1.0
        flags.append(MonitorFlag(name, ref, worst, ratio, ratio <= factor))

    screen("velocity-energy", energy)
    screen("velocity-norm-squared", u2)
    screen("increments", inc)
    screen("pressure-sum-average", p2_sum / steps)
    screen("velocity-sum-average", ut2_sum / steps)
    return MonitorReport(flags=flags, table=table,
                         startup=dict(init_diagnostics or {}))


# -- full suite ------------------------------------------------------------------------------

def run_all(max_level: int = 2, seed: int = 7, n_samples: int = 32,
            dense_limit: int = 1500) -> VerificationReport:
    """Every operator-level check on the admissible family up to max_level."""
    report = VerificationReport()
    levels = list(range(max_level + 1))
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        check_identities(mesh, seed=seed, level=lvl, n_samples=n_samples,
                         report=report)
        check_convection(mesh, seed=seed, level=lvl, n_samples=n_samples,
                         report=report)
    stab = [report.constants["convection-stability"][lvl] for lvl in levels]
    drift = max(stab) / min(stab)
    report.add("convection-stability-drift", levels[0], drift, 2.0, drift < 2.0,
               f"levels {tuple(levels)}")
    infsup_sweep(levels, dense_limit=dense_limit, report=report)
    infsup_oracle_check(report=report, seed=seed)
    rate_levels = tuple(range(max(max_level, 1), max(max_level, 1) + 3))
    rate = consistency_rate(levels=rate_levels)
    report.add("convection-consistency-rate", rate_levels[0], rate.rate, 0.8,
               rate.rate >= 0.8,
               "errors " + " ".join(f"{e:.3e}" for e in rate.errors))
    poincare_inverse_constants(levels=levels, seed=seed, report=report)
    return report
