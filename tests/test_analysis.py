import numpy as np
import pytest

from fvproj import analysis
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.scheme import RunConfig, StepRecord, run


@pytest.fixture(scope="module")
def level1_report():
    mesh = unit_square_acute(1)
    report = analysis.VerificationReport()
    analysis.check_identities(mesh, seed=7, level=1, report=report)
    analysis.check_convection(mesh, seed=7, level=1, report=report)
    return report


class TestIdentityChecks:
    def test_all_pass(self, level1_report):
        failed = [r for r in level1_report.results if not r.passed]
        assert not failed, level1_report.to_text()

    def test_zero_fields_trivial(self, pair):
        # degenerate battery: a fresh report on the 2-cell mesh still runs
        # the dense-oracle comparison
        report = analysis.check_identities(pair, seed=0)
        names = {r.name for r in report.results}
        assert "adjointness-dense-oracle" in names
        assert report.ok

    def test_reproducible(self, pair):
        a = analysis.check_identities(pair, seed=3)
        b = analysis.check_identities(pair, seed=3)
        for ra, rb in zip(a.results, b.results):
            assert ra.value == rb.value

    def test_seed_changes_values(self, pair):
        a = analysis.check_identities(pair, seed=3)
        b = analysis.check_identities(pair, seed=4)
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
                                      report=report)
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

    def test_velocity_sup_matches_beta(self):
        # at the minimizing pressure the dense velocity sup, assembled by
        # edge enumeration, reproduces the Schur-complement eigenvalue
        from fvproj import reference
        mesh = unit_square_acute(1)
        res = analysis.estimate_infsup(mesh)
        sup = (reference.infsup_sup_over_velocities(mesh, res.q_min)
               / reference.p1nc_l2_norm_direct(mesh, res.q_min))
        assert abs(sup - res.beta) <= 1e-10 * res.beta

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
    from fvproj.fields import h_gram, p1nc_mass
    from fvproj.operators import gradient_matrices
    H = h_gram(mesh).toarray()
    area = mesh.tri_area
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

    def test_constant_transported_field_error_vanishes(self, monkeypatch):
        # with a constant transported field both transports vanish
        u = analysis._analytic_pair()[0]
        v = lambda x, y: np.stack([np.ones_like(x), np.ones_like(y)], axis=-1)
        transport = lambda x, y: np.zeros(np.shape(x) + (2,))
        monkeypatch.setattr(analysis, "_analytic_pair", lambda: (u, v, transport))
        res = analysis.consistency_rate(levels=(0, 1, 2))
        assert max(res.errors) < 1e-11

    def test_zero_advecting_field(self, monkeypatch):
        u = lambda x, y: np.zeros(np.shape(x) + (2,))
        v = analysis._analytic_pair()[1]
        transport = lambda x, y: np.zeros(np.shape(x) + (2,))
        monkeypatch.setattr(analysis, "_analytic_pair", lambda: (u, v, transport))
        res = analysis.consistency_rate(levels=(0, 1, 2))
        assert max(res.errors) < 1e-13


class TestConstants:
    def test_constants_and_oracle(self):
        report = analysis.poincare_inverse_constants(levels=(0, 1), seed=7)
        assert report.ok, report.to_text()
        assert report.constants["poincare-cellwise"][0] > 0
        # ARPACK starts from the seeded vector: the values repeat exactly
        again = analysis.poincare_inverse_constants(levels=(0, 1), seed=7)
        assert again.constants == report.constants

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_full_pressure_pencil_matches_null_space_reduction(self, level):
        # the dense oracle's pressure route: the second-smallest eigenvalue
        # of (A, diag(m_p)) against the smallest of the pencil reduced to
        # the mass-orthogonal complement of the constants by an SVD basis
        import scipy.linalg
        from fvproj import reference
        from fvproj.fields import p1nc_mass
        from fvproj.operators import pressure_stiffness
        mesh = unit_square_acute(level)
        A, mass = pressure_stiffness(mesh).toarray(), p1nc_mass(mesh)
        spectrum = reference.generalized_eigenvalues(A, np.diag(mass))
        basis = scipy.linalg.null_space(mass[None, :])
        reduced = scipy.linalg.eigh(basis.T @ A @ basis,
                                    basis.T @ (mass[:, None] * basis),
                                    eigvals_only=True)[0]
        # both routes are backward stable: each is within about
        # n eps lambda_max of the exact value (Golub and Van Loan, 8.7)
        n, eps = len(mass), np.finfo(float).eps
        assert spectrum[1] == pytest.approx(
            reduced, rel=n * eps * spectrum[-1] / reduced, abs=0.0)

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
        A, mass = pressure_stiffness(mesh), p1nc_mass(mesh)
        x0 = np.random.default_rng(2).standard_normal(mesh.num_edges)
        x0 -= (mass @ x0) / mass.sum()
        x, _ = pressure_solver(mesh).solve(mass * x0)
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
        mon = analysis.stability_monitors(traj.records, k=cfg.k)
        assert mon.ok, [r.name for r in mon.results if not r.passed]

    def test_zero_run_passes(self):
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=20, case="zero")
        traj = run(cfg)
        mon = analysis.stability_monitors(traj.records, k=cfg.k)
        assert mon.ok
        assert all(r.value == 1.0 for r in mon.results)

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
        assert [r.name for r in mon.results if not r.passed] == [
            "velocity-norm-squared", "increments", "pressure-sum-average",
            "velocity-sum-average"]

    def test_rows_in_order_at_level_zero(self):
        records = [StepRecord(n, 0.01 * n, *[1.0] * 8) for n in range(2, 30)]
        mon = analysis.stability_monitors(records, k=0.01)
        # no raw-sum row: |u|^2 + sum k |u_tilde|_h^2, screened as the docstring
        # screens sums, fails only where one of its two terms' rows fails
        assert [(r.name, r.level) for r in mon.results] == [
            ("velocity-norm-squared", 0), ("increments", 0),
            ("pressure-sum-average", 0), ("velocity-sum-average", 0)]
        assert all(r.tolerance == analysis.MONITOR_FACTOR for r in mon.results)
        assert mon.ok

    def test_non_finite_record_fails(self):
        # NaN compares false with every bound, so it must not read as "no
        # growth"; an entry before the reference record counts too
        def records(bad_step, **bad):
            return [StepRecord(n, 0.01 * n, **{
                **dict(u_l2=0.1, ut_hnorm=1.0, p_l2=0.2, div_residual=0.0,
                       increment=0.05, orth_residual=0.0, pyth_residual=0.0,
                       energy_residual=0.0),
                **(bad if n == bad_step else {})}) for n in range(2, 40)]

        mon = analysis.stability_monitors(
            records(20, increment=np.nan, u_l2=np.nan), k=0.01)
        assert not mon.ok
        assert {r.name for r in mon.results if not r.passed} == {
            "velocity-norm-squared", "increments"}
        # the first record precedes the reference record, the third
        mon = analysis.stability_monitors(records(2, increment=np.inf), k=0.01)
        assert [r.name for r in mon.results if not r.passed] == ["increments"]

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            analysis.stability_monitors([], k=0.01)

    def test_time_step_is_required(self):
        # k is not inferred from the records: the start-up step has no
        # record, so the one record of a two-step run sits at t = 2 k
        with pytest.raises(TypeError):
            analysis.stability_monitors([StepRecord(2, 0.02, *[0.0] * 8)])


class TestReport:
    @pytest.mark.parametrize("row, value, bound, passed", [
        ("below", 1.0, 2.0, True), ("below", 2.0, 2.0, False),
        ("below", np.nan, 2.0, False), ("below", np.inf, np.inf, False),
        ("below", 1e300, np.inf, True), ("above", 3.0, 2.0, True),
        ("above", 2.0, 2.0, False), ("above", np.nan, -np.inf, False),
    ])
    def test_row_passes_strictly_on_its_side(self, row, value, bound, passed):
        report = analysis.VerificationReport()
        getattr(report, row)("r", 3, value, bound, "n")
        (r,) = report.results
        assert r.passed is passed
        assert report.ok is passed
        assert (r.name, r.level, r.tolerance, r.note) == ("r", 3, bound, "n")
        assert r.value == value or np.isnan(value)

    def test_drift_reads_recorded_constants(self):
        report = analysis.VerificationReport()
        for lvl, value in ((2, 1.5), (1, 1.0), (3, 1.2)):
            report.record_constant("c", lvl, value)
        report.drift("c-drift", "c", 2.0)
        report.drift("c-tight", "c", 1.5)
        loose, tight = report.results
        assert (loose.name, loose.level, loose.value, loose.tolerance) == (
            "c-drift", 1, 1.5, 2.0)
        assert loose.note == "levels (1, 2, 3)"
        assert loose.passed and not tight.passed

    def test_csv_format_and_determinism(self, tmp_path):
        report = analysis.check_identities(equilateral_pair(), seed=5)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        report.write_csv(p1)
        report2 = analysis.check_identities(equilateral_pair(), seed=5)
        report2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "check,level,value,tolerance,pass"

    def test_text_rendering(self, level1_report):
        text = level1_report.to_text()
        assert "gradient-divergence-adjointness" in text
        assert "ok" in text


def test_run_all_level_zero():
    report = analysis.run_all(max_level=0, seed=7)
    assert report.ok, report.to_text()
    names = {r.name for r in report.results}
    # one check per proved property
    assert {"gradient-divergence-adjointness", "velocity-laplacian-coercivity",
            "velocity-laplacian-continuity", "convection-positivity",
            "convection-consistency-rate", "infsup-positive",
            "infsup-brute-force-oracle", "extremal-constants-dense-oracle",
            "projection-orthogonality"} <= names
