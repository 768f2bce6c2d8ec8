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
import scipy.sparse.linalg as spla

from . import reference
from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, collocate_p0,
                     h_gram, h_norm, l2_inner, l2_norm, p1nc_mass,
                     project_p0, project_rt0)
# ``solve`` is not called here; it stays bound because perfbench/job.py
# wraps the ``solve`` name of every module that may reach a linear solve
from .linalg import SolverError, solve
from .mesh import Mesh, unit_square_acute
from .operators import (convection_matrix, divergence, dual_norm, gradient,
                        gradient_matrices, h_solver, laplacian_p0,
                        leray_project, norm_1h, pressure_solver,
                        pressure_stiffness, trilinear_form, upwind_convection)
from .scheme import make_case

IDENTITY_TOL = 1e-11
DENSE_ORACLE_TOL = 1e-13
# seeded random fields per identity and positivity check, and single-cell
# advecting impulses per convection-stability estimate
N_SAMPLES = 32
N_EXTREMAL = 3


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
    """Checked rows and recorded constants.  A row passes iff its value is
    strictly below or above its bound, the tolerance column: NaN never does."""
    results: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    def below(self, name, level, value, bound, note=""):
        value, bound = float(value), float(bound)
        self.results.append(CheckResult(name, level, value, bound, value < bound, note))

    def above(self, name, level, value, bound, note=""):
        value, bound = float(value), float(bound)
        self.results.append(CheckResult(name, level, value, bound, value > bound, note))

    def drift(self, name, constant, bound):
        """max / min of a recorded constant over its levels, at the lowest."""
        seq = self.constants[constant]
        self.below(name, min(seq), max(seq.values()) / min(seq.values()), bound,
                   f"levels {tuple(sorted(seq))}")

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


def _h_inverse(mesh: Mesh, where: str):
    """x -> H^-1 x by the mesh's cached factor of the H1 Gram matrix."""
    solver = h_solver(mesh)
    return lambda x: solver.solve(x, where)[0]


def random_solenoidal(mesh, rng, where="random solenoidal field") -> SolenoidalP0:
    return leray_project(random_vector_p0(mesh, rng), where)[0]


# -- operator identities ---------------------------------------------------------------

def check_identities(mesh: Mesh, seed: int = 7, level: int = 0,
                     report: VerificationReport | None = None) -> VerificationReport:
    """Adjointness, Laplacian coercivity/continuity, and the projection
    orthogonality identities, on seeded random fields."""
    report = report or VerificationReport()
    rng = _rng(seed, level)
    adj = coer = cont = orth = pyth = 0.0
    for _ in range(N_SAMPLES):
        v = random_vector_p0(mesh, rng)
        q = random_p1nc(mesh, rng)
        lhs = l2_inner(v, gradient(q))
        rhs = -l2_inner(q, divergence(v))
        adj = max(adj, abs(lhs - rhs) / (l2_norm(v) * norm_1h(q)))

        hn2 = h_norm(v) ** 2
        coer = max(coer, abs(-l2_inner(laplacian_p0(v), v) - hn2) / hn2)

        w = random_vector_p0(mesh, rng)
        cont = max(cont, -l2_inner(laplacian_p0(v), w) / (h_norm(v) * h_norm(w)))

        u = leray_project(w, f"projection identities level {level}")[0]
        gq = gradient(q)
        # normalize by the pre-projection field: on meshes whose solenoidal
        # subspace is trivial the projected field is pure roundoff
        orth = max(orth, abs(l2_inner(u.field, gq)) / (l2_norm(w) * l2_norm(gq)))
        pyth_num = (l2_norm(u.field) ** 2 - l2_norm(w) ** 2
                    + l2_norm(u.field - w) ** 2)
        pyth = max(pyth, abs(pyth_num) / l2_norm(w) ** 2)

    report.below("gradient-divergence-adjointness", level, adj, IDENTITY_TOL,
                 f"{N_SAMPLES} random pairs")
    report.below("velocity-laplacian-coercivity", level, coer, IDENTITY_TOL)
    report.below("velocity-laplacian-continuity", level, cont, 1.0 + IDENTITY_TOL,
                 "ratio vs product of h-norms")
    report.below("projection-orthogonality", level, orth, IDENTITY_TOL)
    report.below("projection-pythagoras", level, pyth, IDENTITY_TOL)

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
        report.below("adjointness-dense-oracle", level, worst, DENSE_ORACLE_TOL,
                     "independent dense assembly")
    return report


def check_convection(mesh: Mesh, seed: int = 7, level: int = 0,
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
    for _ in range(N_SAMPLES):
        u = random_solenoidal(mesh, rng, f"convection-positivity level {level}")
        v = random_vector_p0(mesh, rng)
        W = convection_matrix(u)
        scale = l2_norm(u.field) * h_norm(v) ** 2
        neg = min(neg, trilinear_form(W, v, v) / scale)
        const_resid = max(const_resid,
                          abs(trilinear_form(W, ones, ones)) / l2_norm(u.field))

    # the stability ratio is maximized by concentrated advecting fields
    # (they saturate the inverse inequality between the max and L2 norms),
    # so probe with solenoidal single-cell impulses.  The ratio for one u is
    # sqrt(lambda_max) of W' H^-1 W x = lambda H x, W the weighted transport.
    H = h_gram(mesh)
    h_inv = _h_inverse(mesh, f"convection-stability level {level}")
    impulses = [(rng.integers(mesh.num_triangles), rng.standard_normal(2))
                for _ in range(N_EXTREMAL)]
    stab = 0.0
    for cell, value in impulses:
        vals = np.zeros((mesh.num_triangles, 2))
        vals[cell] = value
        u = leray_project(VectorP0(mesh, vals),
                          f"convection-stability level {level}")[0]
        W = convection_matrix(u)
        WT = W.T
        lam, _ = _power_iteration(
            lambda x: h_inv(WT @ h_inv(W @ x)),
            b_product=lambda x: x @ (H @ x),
            a_product=lambda x: (W @ x) @ h_inv(W @ x),
            x0=rng.standard_normal(mesh.num_triangles), tol=1e-12,
            where=f"convection-stability level {level}")
        stab = max(stab, np.sqrt(lam) / l2_norm(u.field))

    report.above("convection-positivity", level, neg, -IDENTITY_TOL,
                 "min of b(u,v,v)/(|u| ||v||_h^2)")
    report.below("convection-constant-field", level, const_resid, 1e-12,
                 "transport of a constant vanishes")
    report.record_constant("convection-stability", level, stab)
    report.below("convection-stability-finite", level, stab, np.inf,
                 "extremal norm-stability constant")
    return report


# -- inf-sup ------------------------------------------------------------------------------

@dataclass
class InfSupResult:
    beta: float
    candidate_ratio: float      # ratio achieved by the gradient supremizer
    lemma_constant: float       # candidate_ratio / (h ||q||_1h / |q|)
    q_min: np.ndarray


# The shift that turns the smallest eigenvalue of S q = lambda M q into the
# largest of SIGMA - M^-1 S.  (S q, q) = sup_v (q, div v)_M^2 / |v|_h^2, and
# edge by edge |div v|_M^2 <= 3 |e| d_e / (|K| + |L|) |v|_h^2.  On an
# admissible mesh each circumcenter is closer to an edge than the opposite
# vertex is, so |K| > |e| d_K / 2 and the factor is below 6: every
# eigenvalue lies in [0, 6), and SIGMA - lambda_min has the largest magnitude.
SIGMA = 6.0


def estimate_infsup(mesh: Mesh) -> InfSupResult:
    """Smallest inf-sup ratio over mean-zero pressures.

    beta^2 is the smallest eigenvalue of the pressure Schur complement S in
    the pressure-mass inner product M, on the M-weighted mean-zero
    pressures, S = sum_d G_d' |K| H^-1 |K| G_d; the supremum over
    velocities is realized through one SPD solve per product of S.
    ``_power_iteration`` finds it on the shifted operator SIGMA - M^-1 S,
    as the Rayleigh quotient (S q, q) / (M q, q).
    """
    mass_p = p1nc_mass(mesh)
    Gx, Gy = gradient_matrices(mesh)
    area = mesh.tri_area[:, None]
    GxT, GyT = Gx.T, Gy.T
    h_inv = _h_inverse(mesh, "inf-sup Schur complement")

    def schur(q):
        w = area * h_inv(area * np.stack([Gx @ q, Gy @ q], axis=1))
        return GxT @ w[:, 0] + GyT @ w[:, 1]

    lam, q_min = _power_iteration(
        lambda x: SIGMA * x - schur(x) / mass_p,
        b_product=lambda x: x @ (mass_p * x),
        a_product=lambda x: x @ schur(x),
        x0=np.random.default_rng(0).standard_normal(mesh.num_edges),
        tol=1e-12, kernel=mass_p, where="inf-sup Schur complement")
    beta = float(np.sqrt(max(lam, 0.0)))

    q = ScalarP1NC(mesh, q_min)
    gq = gradient(q)
    denom = h_norm(gq) * l2_norm(q)
    candidate = l2_inner(gq, gq) / denom if denom > 0 else 0.0
    lemma_scale = mesh.h * norm_1h(q) / l2_norm(q)
    return InfSupResult(beta=beta, candidate_ratio=float(candidate),
                        lemma_constant=float(candidate / lemma_scale),
                        q_min=q_min)


def infsup_sweep(levels, report: VerificationReport | None = None) -> VerificationReport:
    """Inf-sup constants across refinement levels, with positivity,
    level-drift, and supremizer-candidate checks."""
    report = report or VerificationReport()
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        res = estimate_infsup(mesh)
        report.record_constant("infsup-beta", lvl, res.beta)
        report.record_constant("infsup-lemma-lower-bound", lvl, res.lemma_constant)
        report.above("infsup-positive", lvl, res.beta, 0.01)
        report.below("infsup-gradient-candidate", lvl,
                     res.candidate_ratio, res.beta * (1 + 1e-9),
                     "gradient supremizer never beats the supremum")
    report.drift("infsup-level-drift", "infsup-beta", 1.2)
    return report


def infsup_oracle_check(report: VerificationReport | None = None,
                        seed: int = 0) -> VerificationReport:
    """Validate the Schur-complement computation against a dense dual-norm
    solve over the velocity space on the smallest admissible mesh with an
    interior edge.

    At the minimizing pressure the velocity sup must reproduce the
    eigenvalue; at random mean-zero pressures it must never go below it.
    """
    from .mesh import equilateral_pair

    report = report or VerificationReport()
    mesh = equilateral_pair()
    res = estimate_infsup(mesh)

    qn = reference.p1nc_l2_norm_direct(mesh, res.q_min)
    brute = reference.infsup_sup_over_velocities(mesh, res.q_min) / qn
    diff = abs(res.beta - brute) / res.beta
    report.below("infsup-brute-force-oracle", 0, diff, 1e-6,
                 f"schur {res.beta:.9f} vs sphere max {brute:.9f}")

    rng = _rng(seed, 42)
    mass = p1nc_mass(mesh)
    lowest = np.inf
    for _ in range(4):
        q = rng.standard_normal(mesh.num_edges)
        q -= (mass @ q) / mass.sum()
        ratio = (reference.infsup_sup_over_velocities(mesh, q)
                 / reference.p1nc_l2_norm_direct(mesh, q))
        lowest = min(lowest, ratio)
    report.above("infsup-minimality", 0, lowest, res.beta * (1 - 1e-9),
                 "random pressures never undercut the minimum")
    return report


# -- convection consistency rate -----------------------------------------------------------

def _analytic_pair():
    """Divergence-free transporting field with zero trace, and a smooth
    transported field, plus their continuous transport term."""
    u = make_case("manufactured-A", 1.0).u0

    def v(x, y):
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.zeros_like(x)], axis=-1)

    def transport(x, y):
        uu = u(x, y)
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


def consistency_rate(levels=(1, 2, 3)) -> RateResult:
    """Dual-norm distance between the projected continuous transport term
    and the upwind transport of the projected fields, across refinement;
    the least-squares slope is the measured consistency rate."""
    if len(levels) < 3:
        raise ValueError("rate measurement needs at least 3 refinement levels")
    u, v, transport = _analytic_pair()
    hs, errors = [], []
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        u_h = project_rt0(u, mesh)
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

def _power_iteration(apply_op, b_product, a_product, x0, tol, kernel=None, *,
                     where):
    """Rayleigh quotient a_product(y) / b_product(y) at the eigenvector y of
    the largest-magnitude eigenvalue of ``apply_op``.  With apply_op
    x -> B^-1 A x that is the largest lambda of A x = lambda B x; with a
    shifted apply_op x -> sigma x - B^-1 A x and the unshifted products it
    is the smallest, so one helper serves both ends of the spectrum.

    ARPACK's implicitly restarted Arnoldi method (scipy ``eigs``, k=1,
    which="LM") runs on a LinearOperator whose every product is one call
    of ``apply_op``, started from the seeded ``x0`` so that the result
    repeats bit for bit.  With ``kernel`` (weights m), every vector is
    first projected to x - (m.x)/sum(m), the m-weighted mean-zero
    subspace: that drops the constants (a shifted operator's top
    eigenvector), and ARPACK's Krylov vectors drift out of it, while a
    solve with a drifted right-hand side fails the zero-mean solver's
    backward-error gate.  Returns the Rayleigh quotient and y; raises
    SolverError, naming ``where``, when ARPACK does not converge.

    The name is older than the method: perfbench/job.py binds
    ``analysis._power_iteration`` and counts the ``apply_op`` calls as its
    ``analysis.eig_applies`` metric, so a rename waits for a change of the
    benchmark.
    """
    def project(x):
        return x if kernel is None else x - (kernel @ x) / kernel.sum()

    n = len(x0)
    op = spla.LinearOperator((n, n), matvec=lambda x: apply_op(project(x.ravel())),
                             dtype=np.float64)
    try:
        _, vecs = spla.eigs(op, k=1, which="LM", v0=project(x0), tol=tol)
    except spla.ArpackNoConvergence as err:
        raise SolverError(f"{where}: ARPACK did not converge: {err}") from None
    y = project(vecs[:, 0].real)
    return a_product(y) / b_product(y), y


def poincare_inverse_constants(levels=(0, 1, 2), seed: int = 7,
                               report: VerificationReport | None = None
                               ) -> VerificationReport:
    """Extremal constants of the Poincare and inverse inequalities per
    level, by ARPACK on the generalized eigenproblems, with a
    dense-eigensolver oracle on the coarsest level."""
    report = report or VerificationReport()
    names = ("poincare-cellwise", "inverse-inequality", "poincare-pressure")
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        rng = _rng(seed, lvl + 757)
        area = mesh.tri_area
        H = h_gram(mesh)
        h_inv = _h_inverse(mesh, f"poincare-cellwise level {lvl}")
        # the coarsest level is compared against the dense oracle; finer
        # levels only feed the (loose) drift trend
        tol = 1e-15 if lvl == min(levels) else 1e-12

        lam_p, _ = _power_iteration(
            lambda x: h_inv(area * x),
            b_product=lambda x: x @ (H @ x),
            a_product=lambda x: x @ (area * x),
            x0=rng.standard_normal(mesh.num_triangles), tol=tol,
            where=f"poincare-cellwise level {lvl}")
        c_poincare = float(np.sqrt(lam_p))

        lam_i, _ = _power_iteration(
            lambda x: (H @ x) / area,
            b_product=lambda x: x @ (area * x),
            a_product=lambda x: x @ (H @ x),
            x0=rng.standard_normal(mesh.num_triangles), tol=tol,
            where=f"inverse-inequality level {lvl}")
        c_inverse = float(mesh.h * np.sqrt(lam_i))

        mass_p = p1nc_mass(mesh)
        A = pressure_stiffness(mesh)
        p_solver = pressure_solver(mesh)
        where = f"poincare-pressure level {lvl}"
        lam_q, _ = _power_iteration(
            lambda x: p_solver.solve(mass_p * x, where)[0],
            b_product=lambda x: x @ (A @ x),
            a_product=lambda x: x @ (mass_p * x),
            x0=rng.standard_normal(mesh.num_edges), tol=tol,
            kernel=mass_p, where=where)
        c_pressure = float(np.sqrt(lam_q))

        for name, val in zip(names, (c_poincare, c_inverse, c_pressure)):
            report.record_constant(name, lvl, val)

        if lvl == min(levels):
            Hd = H.toarray()
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
            report.below("extremal-constants-dense-oracle", lvl, agree, 1e-8,
                         "ARPACK vs dense eigensolver")

    for name in names:
        report.drift(f"{name}-drift", name, 2.0)
    return report


# -- run-time stability monitors -----------------------------------------------------------

# a screened sequence may grow to this multiple of its reference value
MONITOR_FACTOR = 10.0


def stability_monitors(records, *, k: float) -> VerificationReport:
    """No-blow-up screening of a completed run, one row per sequence at
    level 0 (a run has one mesh).

    Pointwise sequences (the squared velocity norm and the time-difference
    quotients) must stay below ``MONITOR_FACTOR`` times their value one
    tenth of the way in.  Cumulative sums grow linearly for perfectly
    steady data, so their running averages are screened instead of the raw
    sums.  A NaN or Inf anywhere in a sequence fails its row.
    """
    if not records:
        raise ValueError("empty run")
    u2 = np.array([r.u_l2 ** 2 for r in records])
    ut2_sum = np.cumsum([k * r.ut_hnorm ** 2 for r in records])
    p2_sum = np.cumsum([k * r.p_l2 ** 2 for r in records])
    inc = np.array([r.increment for r in records])
    steps = np.arange(1, len(records) + 1)

    report = VerificationReport()
    m_ref = max(len(records) // 10, 1)

    def screen(name, seq):
        ref = float(seq[m_ref - 1])
        worst = float(np.max(seq[m_ref - 1:]))
        floor = 1e-30
        ratio = (np.nan if not np.all(np.isfinite(seq))
                 else worst / max(ref, floor) if worst > floor else 1.0)
        report.below(name, 0, ratio, MONITOR_FACTOR, f"reference {ref:.3e}")

    screen("velocity-energy", u2 + ut2_sum)
    screen("velocity-norm-squared", u2)
    screen("increments", inc)
    screen("pressure-sum-average", p2_sum / steps)
    screen("velocity-sum-average", ut2_sum / steps)
    return report


def steady_rate(records):
    """How far a run is from steady: (the last increment |u^{n+1} - u^n| / k,
    the least-squares slope of log(increment) against t over the positive
    increments of the last half of the records), the slope None when fewer
    than two are positive.  A steadily relaxing run has a negative slope,
    its decay rate per unit time."""
    tail = [(r.t, r.increment) for r in records[len(records) // 2:] if r.increment > 0]
    slope = None
    if len(tail) >= 2:
        # the normal equations in closed form: np.polyfit's first LAPACK
        # call alone raises a small run's peak memory by 0.5-1 MB
        t, inc = np.array(tail).T
        t, log_inc = t - t.mean(), np.log(inc)
        slope = float(t @ (log_inc - log_inc.mean()) / (t @ t))
    return records[-1].increment, slope


# -- full suite ------------------------------------------------------------------------------

def run_all(max_level: int = 2, seed: int = 7) -> VerificationReport:
    """Every operator-level check on the admissible family up to max_level."""
    report = VerificationReport()
    levels = list(range(max_level + 1))
    for lvl in levels:
        mesh = unit_square_acute(lvl)
        check_identities(mesh, seed=seed, level=lvl, report=report)
        check_convection(mesh, seed=seed, level=lvl, report=report)
    report.drift("convection-stability-drift", "convection-stability", 2.0)
    infsup_sweep(levels, report=report)
    infsup_oracle_check(report=report, seed=seed)
    rate_levels = tuple(range(max(max_level, 1), max(max_level, 1) + 3))
    rate = consistency_rate(levels=rate_levels)
    report.above("convection-consistency-rate", rate_levels[0], rate.rate, 0.8,
                 "errors " + " ".join(f"{e:.3e}" for e in rate.errors))
    poincare_inverse_constants(levels=levels, seed=seed, report=report)
    return report
