"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured value and its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np
import pytest

from fvproj import analysis
from fvproj.fields import (ScalarP1NC, SolenoidalP0, VectorP0, h_norm,
                           l2_inner, l2_norm, p1nc_mass)
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.linalg import FACTORED_RTOL
from fvproj.operators import (convection_matrix, divergence, gradient,
                              laplacian_p0, leray_project, norm_1h,
                              trilinear_form)
from fvproj.scheme import RunConfig, SchemeState, _Workspace, momentum_step, run
from fixture_meshes import single_triangle
from loop_oracles import p1nc_mass_direct

LEVELS = (0, 1, 2)
# the eigenvalue criteria (7 and 9) are cheap enough to reach level 3
EIGEN_LEVELS = (0, 1, 2, 3)
N_SAMPLES = 32
SEED = 2024


def _report(name, value, tol, passed, unit=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPT {name}: measured {value:.4e} vs {tol:.4e}{unit} -> {state}")
    return passed


@pytest.fixture(scope="module")
def battery():
    """Seeded random fields on three refinement levels."""
    out = []
    for lvl in LEVELS:
        mesh = unit_square_acute(lvl)
        rng = np.random.default_rng(np.random.SeedSequence([SEED, lvl]))
        pairs = []
        for _ in range(N_SAMPLES):
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            q = ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))
            pairs.append((v, q))
        out.append((mesh, rng, pairs))
    return out


@pytest.fixture(scope="module")
def production_run():
    """200-step Re=100 run on the ~2k-triangle mesh, shared by the
    incompressibility, identity, and stability criteria."""
    config = RunConfig(mesh_spec="acute:3", k=1e-2, n_steps=200, re=100.0,
                       case="manufactured-A")
    start = time.perf_counter()
    traj = run(config)
    elapsed = time.perf_counter() - start
    assert traj.mesh.num_triangles == 1664
    return traj, elapsed


def test_criterion_1_adjointness(battery):
    start = time.perf_counter()
    worst = 0.0
    for mesh, rng, pairs in battery:
        for v, q in pairs:
            resid = abs(l2_inner(v, gradient(q)) + l2_inner(q, divergence(v)))
            worst = max(worst, resid / (l2_norm(v) * norm_1h(q)))
    elapsed = time.perf_counter() - start
    ok = _report("1 adjointness", worst, 1e-11, worst <= 1e-11,
                 " * |v| ||q||_1h")
    ok &= _report("1 adjointness runtime", elapsed, 5.0, elapsed < 5.0, " s")
    assert ok


def test_criterion_2_coercivity(battery):
    worst = 0.0
    for mesh, rng, pairs in battery:
        for v, q in pairs:
            hn2 = h_norm(v) ** 2
            worst = max(worst, abs(-l2_inner(laplacian_p0(v), v) - hn2) / hn2)
    assert _report("2 coercivity", worst, 1e-11, worst <= 1e-11, " * ||v||_h^2")


def test_criterion_3_convection_positivity(battery):
    worst = 0.0
    for mesh, rng, pairs in battery:
        rng_u = np.random.default_rng(np.random.SeedSequence([SEED, 99]))
        for _ in range(N_SAMPLES):
            w = VectorP0(mesh, rng_u.standard_normal((mesh.num_triangles, 2)))
            u = leray_project(w)[0]
            v = VectorP0(mesh, rng_u.standard_normal((mesh.num_triangles, 2)))
            value = (trilinear_form(convection_matrix(u), v, v)
                     / (l2_norm(u.field) * h_norm(v) ** 2))
            worst = min(worst, value)
    assert _report("3 convection positivity", worst, -1e-11, worst >= -1e-11,
                   " * |u| ||v||_h^2")


def test_criterion_4_discrete_incompressibility(production_run):
    traj, elapsed = production_run
    rtol = FACTORED_RTOL
    worst = max(rec.div_residual / rec.u_l2 for rec in traj.records)
    ok = _report("4 incompressibility", worst, 10 * rtol, worst <= 10 * rtol,
                 " * |u| (10 x solver rtol)")
    ok &= _report("4 run runtime", elapsed, 60.0, elapsed < 60.0, " s")
    assert ok
    assert len(traj.records) == traj.config.n_steps - 1


def test_criterion_5_projection_identities(production_run):
    traj, _ = production_run
    worst_orth = max(rec.orth_residual for rec in traj.records)
    worst_pyth = max(rec.pyth_residual for rec in traj.records)
    ok = _report("5 orthogonality", worst_orth, 1e-11, worst_orth <= 1e-11)
    ok &= _report("5 pythagoras", worst_pyth, 1e-11, worst_pyth <= 1e-11)
    assert ok


def test_criterion_6_energy_stability(production_run):
    traj, _ = production_run
    k = traj.config.k
    records = traj.records
    m_ref = max(len(records) // 10, 1)

    u2 = np.array([rec.u_l2 ** 2 for rec in records])
    energy = u2 + np.cumsum([k * rec.ut_hnorm ** 2 for rec in records])
    ratio_energy = energy[m_ref - 1:].max() / energy[m_ref - 1]
    ok = _report("6 energy quantity", ratio_energy, 10.0, ratio_energy <= 10.0,
                 " x reference")

    inc = np.array([rec.increment for rec in records])
    ratio_inc = inc[m_ref - 1:].max() / inc[m_ref - 1]
    ok &= _report("6 increments", ratio_inc, 10.0, ratio_inc <= 10.0,
                  " x reference")

    monitors = analysis.stability_monitors(records, k=k)
    ok &= _report("6 monitor flags", float(sum(not r.passed for r in monitors.results)),
                  0.0, monitors.ok, " failing flags")
    assert ok


def test_criterion_7_infsup():
    start = time.perf_counter()
    report = analysis.infsup_sweep(EIGEN_LEVELS)
    betas = [report.constants["infsup-beta"][lvl] for lvl in EIGEN_LEVELS]
    drift = max(betas) / min(betas)
    oracle = analysis.infsup_oracle_check(seed=SEED)
    oracle_value = next(r.value for r in oracle.results
                        if r.name == "infsup-brute-force-oracle")
    elapsed = time.perf_counter() - start

    ok = _report("7 infsup positivity", min(betas), 0.01, min(betas) > 0.01)
    ok &= _report("7 infsup level drift", drift, 1.2, drift <= 1.2, " x")
    ok &= _report("7 infsup dense-vs-brute", oracle_value, 1e-6,
                  oracle_value <= 1e-6, " relative")
    ok &= _report("7 infsup runtime", elapsed, 120.0, elapsed < 120.0, " s")
    assert ok and report.ok and oracle.ok


def test_criterion_8_consistency_rate():
    start = time.perf_counter()
    result = analysis.consistency_rate(levels=(1, 2, 3))
    elapsed = time.perf_counter() - start
    ok = _report("8 consistency rate", result.rate, 0.8, result.rate >= 0.8)
    ok &= _report("8 rate runtime", elapsed, 60.0, elapsed < 60.0, " s")
    assert ok


def test_criterion_9_extremal_constants():
    report = analysis.poincare_inverse_constants(levels=EIGEN_LEVELS, seed=SEED)
    drifts = {r.name: r.value for r in report.results if r.name.endswith("-drift")}
    oracle = next(r.value for r in report.results
                  if r.name == "extremal-constants-dense-oracle")
    worst_drift = max(drifts.values())
    ok = _report("9 constants drift", worst_drift, 2.0, worst_drift < 2.0, " x")
    ok &= _report("9 constants dense oracle", oracle, 1e-8, oracle <= 1e-8,
                  " relative")
    assert ok and report.ok


def test_criterion_10_exactness_oracles():
    # single-cell momentum system vs hand assembly
    mesh = single_triangle()
    config = RunConfig(mesh_spec="unused", k=0.05, n_steps=2, re=10.0,
                       case="manufactured-A")
    ws = _Workspace(config, mesh)
    rng = np.random.default_rng(SEED)
    u_n = SolenoidalP0(VectorP0(mesh, rng.standard_normal((1, 2))))
    u_nm1 = SolenoidalP0(VectorP0(mesh, rng.standard_normal((1, 2))))
    p_n = ScalarP1NC(mesh, rng.standard_normal(3))
    state = SchemeState(u_prev=u_nm1, u_curr=u_n, p_curr=p_n,
                        grad_p=gradient(p_n), t=0.4, n=3)
    ut = momentum_step(state, config, ws)[0]
    k, re = config.k, config.re
    diag = 1.5 / k + np.sum(mesh.edge_tau) / (re * mesh.tri_area[0])
    rhs = (ws.forcing.values[0]
           + (4 * u_n.values[0] - u_nm1.values[0]) / (2 * k)
           - gradient(p_n).values[0])
    err_momentum = np.abs(ut.values[0] - rhs / diag).max() / np.abs(rhs / diag).max()
    ok = _report("10 single-cell momentum", err_momentum, 1e-12,
                 err_momentum <= 1e-12, " relative")

    # nonconforming mass diagonality under a non-midpoint quadrature
    pair = equilateral_pair()
    dense = p1nc_mass_direct(pair)
    offdiag = np.abs(dense - np.diag(np.diag(dense))).max()
    diag_err = np.abs(np.diag(dense) - p1nc_mass(pair)).max()
    ok &= _report("10 mass diagonality", max(offdiag, diag_err), 1e-13,
                  max(offdiag, diag_err) <= 1e-13)

    # edge-midpoint quadrature reproduces the integral of x^2 on the unit
    # right triangle: 1/12
    tri = single_triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    q = ScalarP1NC(tri, tri.edge_midpoint[:, 0])
    err_quad = abs(l2_inner(q, q) - 1.0 / 12.0)
    ok &= _report("10 midpoint quadrature", err_quad, 1e-15, err_quad <= 1e-15)
    assert ok
