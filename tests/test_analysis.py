import numpy as np
import pytest

from fvproj import analysis
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.scheme import RunConfig, StepRecord, run


@pytest.fixture(scope="module")
def level1_report():
    mesh = unit_square_acute(1)
    report = analysis.VerificationReport()
    analysis.check_identities(mesh, seed=7, level=1, n_samples=16, report=report)
    analysis.check_convection(mesh, seed=7, level=1, n_samples=16, report=report)
    return report


class TestIdentityChecks:
    def test_all_pass(self, level1_report):
        failed = [r for r in level1_report.results if not r.passed]
        assert not failed, level1_report.to_text()

    def test_zero_fields_trivial(self, pair):
        # degenerate battery: a fresh report on the 2-cell mesh still runs
        # the dense-oracle comparison
        report = analysis.check_identities(pair, seed=0, n_samples=2)
        names = {r.name for r in report.results}
        assert "adjointness-dense-oracle" in names
        assert report.ok

    def test_reproducible(self, pair):
        a = analysis.check_identities(pair, seed=3, n_samples=4)
        b = analysis.check_identities(pair, seed=3, n_samples=4)
        for ra, rb in zip(a.results, b.results):
            assert ra.value == rb.value

    def test_seed_changes_values(self, pair):
        a = analysis.check_identities(pair, seed=3, n_samples=4)
        b = analysis.check_identities(pair, seed=4, n_samples=4)
        vals_a = [r.value for r in a.results if r.value != 0.0]
        vals_b = [r.value for r in b.results if r.value != 0.0]
        assert vals_a != vals_b


class TestConvectionChecks:
    def test_stability_constant_recorded(self, level1_report):
        assert 1 in level1_report.constants["convection-stability"]
        assert level1_report.constants["convection-stability"][1] > 0

    def test_constant_stable_across_levels(self):
        report = analysis.VerificationReport()
        for lvl in range(3):
            analysis.check_convection(unit_square_acute(lvl), seed=7, level=lvl,
                                      n_samples=8, report=report)
        consts = [report.constants["convection-stability"][lvl] for lvl in range(3)]
        assert max(consts) / min(consts) < 2.0


class TestInfSup:
    def test_two_cell_value(self, pair):
        res = analysis.estimate_infsup(pair)
        # the 5-dof pressure space on this mesh yields exactly 1/sqrt(2)
        assert abs(res.beta - 1 / np.sqrt(2)) < 1e-12
        assert res.candidate_ratio <= res.beta * (1 + 1e-12)

    def test_sweep_passes(self):
        report = analysis.infsup_sweep(range(3))
        assert report.ok, report.to_text()
        betas = [report.constants["infsup-beta"][lvl] for lvl in range(3)]
        assert all(b > 0.01 for b in betas)
        assert max(betas) / min(betas) <= 1.2

    def test_oracle_check(self):
        report = analysis.infsup_oracle_check()
        assert report.ok, report.to_text()

    def test_arpack_matches_dense(self):
        mesh = unit_square_acute(1)
        lam = _dense_schur_extremes(mesh)[0]
        beta = analysis.estimate_infsup(mesh).beta
        assert abs(np.sqrt(lam) - beta) < 1e-10 * np.sqrt(lam)

    @pytest.mark.parametrize("level", [None, 0, 1, 2],
                             ids=["pair", "level0", "level1", "level2"])
    def test_shift_exceeds_largest_eigenvalue(self, level):
        # the shifted operator's top eigenvalue is SIGMA - lambda_min only
        # while the whole spectrum of S q = lambda M q lies below SIGMA
        mesh = equilateral_pair() if level is None else unit_square_acute(level)
        lam_min, lam_max = _dense_schur_extremes(mesh)
        assert 0 < lam_min <= lam_max < analysis.SIGMA


def _dense_schur_extremes(mesh):
    """Extreme eigenvalues of S q = lambda M q on the mass-weighted
    mean-zero pressures, the Schur complement assembled densely here."""
    import scipy.linalg
    from fvproj.fields import h_gram, p0_mass, p1nc_mass
    from fvproj.operators import gradient_matrices
    H = h_gram(mesh).toarray()
    area = p0_mass(mesh)
    S = np.zeros((mesh.num_edges, mesh.num_edges))
    for G in gradient_matrices(mesh):
        MG = area[:, None] * G.toarray()
        S += MG.T @ np.linalg.solve(H, MG)
    mass = p1nc_mass(mesh)
    basis = scipy.linalg.null_space(mass[None, :])
    lam = scipy.linalg.eigh(basis.T @ S @ basis,
                            basis.T @ (mass[:, None] * basis),
                            eigvals_only=True)
    return lam[0], lam[-1]


class TestConsistencyRate:
    def test_rate_first_order(self):
        res = analysis.consistency_rate(levels=(1, 2, 3))
        assert res.rate >= 0.8
        assert all(e1 > e2 for e1, e2 in zip(res.errors, res.errors[1:]))

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            analysis.consistency_rate(levels=(1, 2))

    def test_constant_transported_field_error_vanishes(self):
        # with a constant transported field both transports vanish
        def pair_():
            u = analysis._analytic_pair()[0]
            v = lambda x, y: np.stack([np.ones_like(x), np.ones_like(y)], axis=-1)
            transport = lambda x, y: np.zeros(np.shape(x) + (2,))
            return u, v, transport

        res = analysis.consistency_rate(levels=(0, 1, 2), pair=pair_())
        assert max(res.errors) < 1e-11

    def test_zero_advecting_field(self):
        def pair_():
            u = lambda x, y: np.zeros(np.shape(x) + (2,))
            v = analysis._analytic_pair()[1]
            transport = lambda x, y: np.zeros(np.shape(x) + (2,))
            return u, v, transport

        res = analysis.consistency_rate(levels=(0, 1, 2), pair=pair_())
        assert max(res.errors) < 1e-13


class TestConstants:
    def test_constants_and_oracle(self):
        report = analysis.poincare_inverse_constants(levels=(0, 1), seed=7)
        assert report.ok, report.to_text()
        assert report.constants["poincare-cellwise"][0] > 0
        # ARPACK starts from the seeded vector: the values repeat exactly
        again = analysis.poincare_inverse_constants(levels=(0, 1), seed=7)
        assert again.constants == report.constants

    def test_arpack_failure_names_constant_and_level(self, monkeypatch):
        import scipy.sparse.linalg as spla
        from fvproj.linalg import SolverError

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(analysis.spla, "eigs", no_convergence)
        with pytest.raises(SolverError, match="poincare-cellwise level 0"):
            analysis.poincare_inverse_constants(levels=(0,))

    def test_sparse_zero_mean_inverse_matches_cg(self):
        # the pressure Poincare constant's solve: the cached factor applied
        # to the mass times a kernel-projected vector, against CG
        import scipy.sparse.linalg as spla
        from fvproj.fields import p1nc_mass
        from fvproj.operators import pressure_solver, pressure_stiffness
        mesh = unit_square_acute(3)
        A, mass = pressure_stiffness(mesh).matrix, p1nc_mass(mesh)
        x0 = np.random.default_rng(2).standard_normal(mesh.num_edges)
        x0 -= (mass @ x0) / mass.sum()
        x, _ = pressure_solver(mesh).solve(mass * x0, analysis._TIGHT)
        x_cg, info = spla.cg(A, mass * x0, rtol=1e-13, atol=0.0,
                             maxiter=20 * mesh.num_edges)
        assert info == 0
        x_cg -= (mass @ x_cg) / mass.sum()
        assert np.linalg.norm(x - x_cg) <= 1e-10 * np.linalg.norm(x_cg)

    def test_boundary_cell_field_has_finite_ratio(self, rng):
        # a field supported on one boundary-adjacent cell keeps |v|/||v||_h
        # finite thanks to the boundary terms
        from fvproj.fields import VectorP0, h_norm, l2_norm
        mesh = unit_square_acute(0)
        k = int(mesh.edge_owner[mesh.boundary_edges[0]])
        vals = np.zeros((mesh.num_triangles, 2))
        vals[k] = (1.0, 0.0)
        v = VectorP0(mesh, vals)
        assert l2_norm(v) / h_norm(v) < 1.0


class TestStabilityMonitors:
    def test_short_manufactured_run_passes(self):
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=30)
        traj = run(cfg)
        mon = analysis.stability_monitors(traj.records, traj.init_diagnostics,
                                          k=cfg.k)
        assert mon.ok, [f.name for f in mon.flags if not f.passed]
        assert mon.startup["u0_l2"] > 0
        assert set(mon.table) >= {"u_l2_sq", "running_k_sum_p_sq"}

    def test_zero_run_passes(self):
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=20, case="zero")
        traj = run(cfg)
        mon = analysis.stability_monitors(traj.records, k=cfg.k)
        assert mon.ok
        assert all(f.ratio == 1.0 for f in mon.flags)

    def test_blow_up_detected(self):
        # negative control: geometric growth bolted onto a synthetic run
        records = []
        for n in range(2, 120):
            growth = 1.12 ** n
            records.append(StepRecord(
                step=n, t=0.01 * n, u_l2=0.1 * growth, ut_hnorm=growth,
                p_l2=0.2 * growth, div_residual=0.0, increment=0.05 * growth,
                orth_residual=0.0, pyth_residual=0.0, energy_residual=0.0))
        mon = analysis.stability_monitors(records, k=0.01)
        assert not mon.ok
        failing = {f.name for f in mon.flags if not f.passed}
        assert "velocity-energy" in failing
        assert "increments" in failing

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            analysis.stability_monitors([])


class TestReport:
    def test_csv_format_and_determinism(self, tmp_path):
        report = analysis.check_identities(equilateral_pair(), seed=5, n_samples=4)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        report.write_csv(p1)
        report2 = analysis.check_identities(equilateral_pair(), seed=5, n_samples=4)
        report2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "check,level,value,tolerance,pass"

    def test_text_rendering(self, level1_report):
        text = level1_report.to_text()
        assert "gradient-divergence-adjointness" in text
        assert "ok" in text


def test_run_all_level_zero():
    report = analysis.run_all(max_level=0, seed=7, n_samples=4)
    assert report.ok, report.to_text()
    names = {r.name for r in report.results}
    # one check per proved property
    assert {"gradient-divergence-adjointness", "velocity-laplacian-coercivity",
            "velocity-laplacian-continuity", "convection-positivity",
            "convection-consistency-rate", "infsup-positive",
            "infsup-brute-force-oracle", "extremal-constants-dense-oracle",
            "projection-orthogonality"} <= names
