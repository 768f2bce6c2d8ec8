import numpy as np
import pytest

from dataclasses import replace

from fvproj import reference, scheme
from fvproj.fields import (ScalarP1NC, SolenoidalP0, VectorP0, l2_norm,
                           p1nc_mass)
from fvproj.linalg import SolverError, Tolerance
from fvproj.mesh import unit_square_acute
from fvproj.operators import divergence, gradient, pressure_stiffness
from fvproj.scheme import (RunConfig, SchemeError, _Workspace, advance,
                           correction_step, initialize, make_case,
                           momentum_step, pressure_step, run)
from fixture_meshes import single_triangle, square_two_triangles


@pytest.fixture(scope="module")
def short_run():
    cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=12, re=100.0,
                    case="manufactured-A")
    return run(cfg)


class TestCases:
    def test_zero_case(self):
        case = make_case("zero", 50.0)
        x = np.linspace(0, 1, 5)
        assert np.all(case.u0(x, x) == 0)
        assert np.all(case.forcing(x, x) == 0)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            make_case("taylor-green", 1.0)

    def test_manufactured_velocity_divergence_free(self):
        case = make_case("manufactured-A", 100.0)
        x = np.linspace(0.05, 0.95, 21)
        xx, yy = np.meshgrid(x, x)
        eps = 1e-6
        dudx = (case.u0(xx + eps, yy)[..., 0] - case.u0(xx - eps, yy)[..., 0]) / (2 * eps)
        dvdy = (case.u0(xx, yy + eps)[..., 1] - case.u0(xx, yy - eps)[..., 1]) / (2 * eps)
        assert np.abs(dudx + dvdy).max() < 1e-6

    def test_manufactured_velocity_zero_trace(self):
        case = make_case("manufactured-A", 100.0)
        t = np.linspace(0, 1, 50)
        for xy in [(t, np.zeros_like(t)), (t, np.ones_like(t)),
                   (np.zeros_like(t), t), (np.ones_like(t), t)]:
            assert np.abs(case.u0(*xy)).max() < 1e-14

    def test_forcing_balances_steady_momentum(self):
        # f + (1/Re) lap u - (u.grad) u must be a pressure gradient: its
        # curl vanishes (checked by finite differences)
        re = 37.0
        case = make_case("manufactured-A", re)
        s = scheme._VEL_SCALE
        eps = 1e-5
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.2, 0.8, size=(40, 2))
        x, y = pts[:, 0], pts[:, 1]

        def residual_field(x, y):
            # f - convection + viscous term, evaluated via the case pieces
            f = case.forcing(x, y)
            u = case.u0(x, y)
            dux = (case.u0(x + eps, y) - case.u0(x - eps, y)) / (2 * eps)
            duy = (case.u0(x, y + eps) - case.u0(x, y - eps)) / (2 * eps)
            conv = u[..., :1] * dux + u[..., 1:] * duy
            lap = ((case.u0(x + eps, y) + case.u0(x - eps, y)
                    + case.u0(x, y + eps) + case.u0(x, y - eps)
                    - 4 * u) / eps**2)
            return f + lap / re - conv

        g = residual_field(x, y)
        # compare against the analytic pressure gradient
        gp = np.stack([-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                       -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)], axis=-1)
        assert np.abs(g - gp).max() < 1e-4 * max(s, 1.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        # both solves read their tolerances and nothing else
        assert cfg.momentum == Tolerance(rtol=1e-12)
        assert cfg.pressure == Tolerance(rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(n_steps=1)
        with pytest.raises(ValueError):
            RunConfig(re=-5)

    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "mesh = acute:1\n"
            "k = 0.02\n"
            "steps = 7\n"
            "re = 250\n"
            "case = zero\n"
            "solver_rtol = 1e-9\n"
            "cadence = 3\n")
        cfg = RunConfig.from_file(path)
        assert cfg.mesh_spec == "acute:1"
        assert cfg.k == 0.02
        assert cfg.n_steps == 7
        assert cfg.re == 250
        assert cfg.momentum.rtol == 1e-9
        assert cfg.pressure.rtol == 1e-9
        # overrides win over the file
        cfg2 = cfg.with_overrides({"re": "100", "pressure_rtol": "1e-12"})
        assert cfg2.re == 100
        assert cfg2.pressure.rtol == 1e-12
        assert cfg2.momentum.rtol == 1e-9

    def test_certificate_tolerance_independent_of_pressure_rtol(self):
        cfg = RunConfig(mesh_spec="acute:0").with_overrides(
            {"pressure_rtol": "1e-9"})
        ws = _Workspace(cfg, unit_square_acute(0))
        assert ws.cert_tol == scheme.CERT_TOL == 1e-12

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("viscosity = 1\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(path)


class TestZeroRun:
    def test_everything_stays_zero(self):
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=6, case="zero")
        traj = run(cfg)
        assert len(traj.records) == 5
        for rec in traj.records:
            assert rec.u_l2 == 0.0
            assert rec.p_l2 == 0.0
            assert rec.div_residual == 0.0
        for key in ("u0_l2", "u1_l2", "k_grad_p1_l2"):
            assert traj.init_diagnostics[key] == 0.0


class TestStartup:
    def test_start_up_runs_the_shared_substeps(self, monkeypatch):
        # one call of each substep out of n = 0, and no call of advance
        # (whose StepRecord would add a row to monitors.csv)
        calls = []
        for name in ("momentum_step", "pressure_step", "correction_step",
                     "advance"):
            def counting(state, *args, _fn=getattr(scheme, name), _name=name,
                         **kwargs):
                calls.append((_name, state.n))
                return _fn(state, *args, **kwargs)
            monkeypatch.setattr(scheme, name, counting)
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=2)
        state, _, _ = initialize(cfg, unit_square_acute(0))
        assert calls == [("momentum_step", 0), ("pressure_step", 0),
                         ("correction_step", 0)]
        assert (state.n, state.t) == (1, cfg.k)

    def test_initial_velocity_divergence_free(self):
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=2)
        mesh = unit_square_acute(1)
        state, diag, ws = initialize(cfg, mesh)
        assert diag["div_u0"] <= 1e-11 * diag["u0_l2"]
        assert diag["div_u1"] <= 1e-11 * diag["u1_l2"]

    def test_startup_bound_stable_under_refinement(self):
        values = []
        for lvl in range(3):
            cfg = RunConfig(mesh_spec=f"acute:{lvl}", k=1e-2, n_steps=2)
            _, diag, _ = initialize(cfg, unit_square_acute(lvl))
            values.append(diag["startup_bound"])
        assert max(values) / min(values) < 2.0

    def test_projection_error_first_order(self):
        errors = []
        hs = []
        for lvl in range(3):
            cfg = RunConfig(mesh_spec=f"acute:{lvl}", k=1e-2, n_steps=2)
            mesh = unit_square_acute(lvl)
            _, diag, _ = initialize(cfg, mesh)
            errors.append(diag["u0_projection_error"])
            hs.append(mesh.h)
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope >= 0.8


class TestSingleCellMomentum:
    @pytest.fixture
    def cell(self):
        mesh = single_triangle()
        cfg = RunConfig(mesh_spec="unused", k=0.05, n_steps=2, re=10.0,
                        case="manufactured-A")
        rng = np.random.default_rng(8)
        u_n = SolenoidalP0.trusted(VectorP0(mesh, rng.standard_normal((1, 2))))
        u_nm1 = SolenoidalP0.trusted(VectorP0(mesh, rng.standard_normal((1, 2))))
        p_n = ScalarP1NC(mesh, rng.standard_normal(3))
        return mesh, cfg, _Workspace(cfg, mesh), u_n, u_nm1, p_n

    def test_hand_assembled_two_by_two(self, cell):
        # all edges on the boundary: no convection coupling, and the
        # momentum system reduces to one scalar equation per component
        mesh, cfg, ws, u_n, u_nm1, p_n = cell
        state = scheme.SchemeState(u_prev=u_nm1, u_curr=u_n, p_curr=p_n,
                                   t=0.3, n=4)
        ut = momentum_step(state, cfg, ws)

        k, re = cfg.k, cfg.re
        area = mesh.tri_area[0]
        f = ws.forcing.values[0]
        gp = gradient(p_n).values[0]
        diag = 1.5 / k + np.sum(mesh.edge_tau) / (re * area)
        rhs = f + (4 * u_n.values[0] - u_nm1.values[0]) / (2 * k) - gp
        expected = rhs / diag
        assert np.abs(ut.values[0] - expected).max() < 1e-12

    def test_start_up_step_is_bdf1(self, cell):
        # out of n = 0 the same step is semi-implicit Euler: u^{n-1} and
        # the old pressure drop out
        mesh, cfg, ws, u_n, u_nm1, p_n = cell
        state = scheme.SchemeState(u_prev=u_nm1, u_curr=u_n, p_curr=p_n,
                                   t=0.0, n=0)
        ut = momentum_step(state, cfg, ws)

        k, re = cfg.k, cfg.re
        f = ws.forcing.values[0]
        gp = gradient(p_n).values[0]
        diag = 1.0 / k + np.sum(mesh.edge_tau) / (re * mesh.tri_area[0])
        expected = (f + u_n.values[0] / k - gp) / diag
        assert np.abs(ut.values[0] - expected).max() < 1e-12


class TestStepProperties:
    def test_pressure_step_rhs_compatible(self, short_run):
        # recompute the compatibility sum on the last predictor
        state = short_run.state
        mesh = state.u_curr.mesh
        mass = p1nc_mass(mesh)
        d = divergence(state.u_tilde)
        assert abs(np.sum(mass * d.values)) < 1e-12 * np.linalg.norm(mass * d.values)

    def test_divergence_free_predictor_passes_through(self):
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=3)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        # feed the (already divergence-free) current velocity as predictor
        ut = VectorP0(mesh, state.u_curr.values.copy())
        p_next, dp = pressure_step(state, ut, cfg, ws)
        assert l2_norm(gradient(dp)) < 1e-10 * max(l2_norm(ut), 1e-3)
        new = correction_step(state, ut, p_next, dp, cfg, ws)
        assert np.abs(new.u_curr.values - ut.values).max() < 1e-10

    def test_pressure_solution_unique_across_methods(self):
        # the factored increment against a dense solve of the same system
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=3)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        ut = momentum_step(state, cfg, ws)
        _, dp = pressure_step(state, ut, cfg, ws)
        rhs = -1.5 / cfg.k * ws.p_mass * divergence(ut).values
        dp_dense = reference.zero_mean_solve_dense(
            pressure_stiffness(mesh).toarray(), rhs, ws.p_mass)
        denom = max(np.abs(dp_dense).max(), 1e-12)
        assert np.abs(dp.values - dp_dense).max() < 1e-10 * denom

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_certify_rejects_non_finite_field(self, bad):
        mesh = unit_square_acute(0)
        ws = _Workspace(RunConfig(mesh_spec="acute:0"), mesh)
        values = np.zeros((mesh.num_triangles, 2))
        values[3, 0] = bad
        with pytest.raises(SchemeError, match="NaN or Inf"):
            ws.certify(VectorP0(mesh, values), "test")
        with pytest.raises(SchemeError, match="NaN or Inf"):
            ws.certify(VectorP0(mesh, np.full_like(values, bad)), "test")

    def test_pressure_failure_names_its_caller(self):
        # no solve meets rtol 1e-30, so the first pressure solve of each
        # path fails and must say where it was
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        mesh = unit_square_acute(0)
        strict = replace(cfg, pressure=Tolerance(rtol=1e-30, atol=1e-300))
        with pytest.raises(SolverError, match="^initial projection: "):
            initialize(strict, mesh)
        state, _, ws = initialize(cfg, mesh)
        ut = momentum_step(state, cfg, ws)
        with pytest.raises(SolverError, match="^pressure step 2: "):
            pressure_step(state, ut, strict, ws)

    def test_forcing_projected_once_per_run(self, monkeypatch):
        # the forcing is steady: one projection of it and one of the
        # initial data, however many steps the run takes
        calls = []
        project = scheme.project_p0

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return project(fn, *args, **kwargs)

        monkeypatch.setattr(scheme, "project_p0", counting)
        traj = run(RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=5))
        case = make_case("manufactured-A", traj.config.re)
        assert len(calls) == 2
        x = np.linspace(0.1, 0.9, 7)
        assert np.array_equal(calls[0](x, x), case.forcing(x, x))
        assert np.array_equal(calls[1](x, x), case.u0(x, x))

    def test_orthogonality_and_pythagoras_along_run(self, short_run):
        for rec in short_run.records:
            assert rec.orth_residual <= 1e-11
            assert rec.pyth_residual <= 1e-11

    def test_energy_identity_along_run(self, short_run):
        for rec in short_run.records:
            assert rec.energy_residual <= 1e-10

    def test_divergence_residual_bound(self, short_run):
        rtol = short_run.config.pressure.rtol
        for rec in short_run.records:
            assert rec.div_residual <= 10 * rtol * rec.u_l2

    def test_pressure_mean_zero_along_run(self, short_run):
        state = short_run.state
        mass = p1nc_mass(state.u_curr.mesh)
        mean = abs(mass @ state.p_curr.values)
        assert mean <= 1e-13 * max(np.abs(state.p_curr.values).max(), 1.0)


class TestMomentumSolveResidual:
    def test_true_residual_meets_rtol(self, monkeypatch):
        # regression: on this run BiCGStab once stopped on its recursive
        # residual while |b - A x| / |b| was 1.00005e-12 > rtol
        from fvproj import linalg
        residuals = []

        def recording_solve(A, b, config=None, **kwargs):
            x, info = linalg.solve(A, b, config, **kwargs)
            residuals.append(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
            return x, info

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:3", k=0.01, n_steps=20, re=1.0,
                        case="manufactured-A")
        run(cfg)
        assert len(residuals) == 2 * cfg.n_steps
        assert cfg.momentum.rtol == 1e-12
        assert max(residuals) <= cfg.momentum.rtol


class TestMomentumPreconditioner:
    """BiCGStab on the momentum system is preconditioned by a lagged
    SuperLU factor of the BDF2 momentum matrix."""

    def _counted_run(self, monkeypatch, n_steps):
        from fvproj import linalg
        factors, solves = [], []
        factor = scheme.FactoredSolver

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        def recording_solve(A, b, config=None, **kwargs):
            x, info = linalg.solve(A, b, config, **kwargs)
            solves.append((info.iterations,
                           np.linalg.norm(b - A @ x) / np.linalg.norm(b)))
            return x, info

        monkeypatch.setattr(scheme, "FactoredSolver", counting_factor)
        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:3", k=0.01, n_steps=n_steps, re=1.0,
                        case="manufactured-A")
        return run(cfg), factors, solves

    def test_one_factor_and_few_iterations(self, monkeypatch):
        traj, factors, solves = self._counted_run(monkeypatch, 20)
        assert len(factors) == 1
        assert len(solves) == 40
        # Jacobi needs about 80 iterations per solve here
        assert max(it for it, _ in solves) <= 10
        assert max(res for _, res in solves) <= traj.config.momentum.rtol
        assert [r.mom_iters for r in traj.records] == [
            solves[i][0] + solves[i + 1][0] for i in range(2, 40, 2)]
        assert [r.mom_refactor for r in traj.records] == [0] * 19

    def test_refactor_each_step_still_meets_rtol(self, monkeypatch):
        monkeypatch.setattr(scheme, "REFACTOR_ITERS", 0)
        traj, factors, solves = self._counted_run(monkeypatch, 6)
        assert len(factors) == 6
        assert [r.mom_refactor for r in traj.records] == [1] * 5
        assert max(res for _, res in solves) <= traj.config.momentum.rtol

    def test_rebuilt_only_when_flagged(self):
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        state, _, ws = initialize(cfg, unit_square_acute(1))
        first = ws.mom_factor
        state, rec = advance(state, cfg, ws)
        assert ws.mom_factor is first and rec.mom_refactor == 0
        ws.refactor_due = True
        state, rec = advance(state, cfg, ws)
        assert ws.mom_factor is not first and rec.mom_refactor == 1
        assert not ws.refactor_due


class TestMomentumRetry:
    """A momentum solve that the lagged factor does not bring to
    convergence is repeated with a fresh factor of the step's matrix."""

    @pytest.mark.parametrize("mesh_spec, re, k, n_steps",
                             [("acute:2", 1e6, 1.0, 10),
                              ("acute:3", 1e5, 0.5, 4)])
    def test_failed_solve_is_retried(self, monkeypatch, mesh_spec, re, k,
                                     n_steps):
        # both runs raised SolverError when only a slow solve refactored,
        # and only at the next step
        from fvproj import linalg
        solves = []

        def recording_solve(A, b, config=None, **kwargs):
            x, info = linalg.solve(A, b, config, **kwargs)
            solves.append((info.converged, b,
                           np.linalg.norm(b - A @ x) / np.linalg.norm(b)))
            return x, info

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec=mesh_spec, k=k, n_steps=n_steps, re=re,
                        case="manufactured-A")
        traj = run(cfg)
        failed = [i for i, (ok, _, _) in enumerate(solves) if not ok]
        assert failed
        for i in failed:
            ok, b, res = solves[i + 1]
            assert ok and np.array_equal(b, solves[i][1])
            assert res <= cfg.momentum.rtol
        assert sum(r.mom_refactor for r in traj.records) >= len(failed)
        assert max(r.energy_residual for r in traj.records) <= 1e-10

    def test_fresh_factor_failure_raises(self, monkeypatch):
        # no solve meets rtol 1e-30: the lagged factor fails, one fresh
        # factor is built, and its failure is raised
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        state, _, ws = initialize(cfg, unit_square_acute(0))
        factors = []
        factor = scheme.FactoredSolver

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(scheme, "FactoredSolver", counting_factor)
        strict = replace(cfg, momentum=Tolerance(rtol=1e-30, atol=1e-300))
        with pytest.raises(SolverError, match=r"^momentum solve \(component 0\)"):
            momentum_step(state, strict, ws)
        assert len(factors) == 1

    @pytest.mark.parametrize("re", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("k", [0.01, 0.1, 0.5, 1.0])
    def test_stable_across_re_and_k(self, re, k):
        from fvproj.analysis import stability_monitors
        cfg = RunConfig(mesh_spec="acute:2", k=k, n_steps=10, re=re,
                        case="manufactured-A")
        traj = run(cfg)
        assert max(r.energy_residual for r in traj.records) <= 1e-10
        assert stability_monitors(traj.records, traj.init_diagnostics, k=k).ok


class TestStepRecordTelemetry:
    def test_pressure_backward_error_column(self, tmp_path):
        cfg = RunConfig(mesh_spec="acute:2", k=1e-2, n_steps=6,
                        case="manufactured-A", out_dir=str(tmp_path))
        traj = run(cfg)
        lines = (tmp_path / "monitors.csv").read_text().splitlines()
        names = lines[0].split(",")
        assert names[-2:] == ["mom_refactor", "p_backward_error"]
        col = [float(line.split(",")[-1]) for line in lines[1:]]
        assert col == [r.p_backward_error for r in traj.records]
        assert all(0.0 < v <= cfg.pressure.rtol for v in col)
        # deterministic, so the file stays byte-stable from run to run
        run(replace(cfg, out_dir=str(tmp_path / "again")))
        assert ((tmp_path / "again" / "monitors.csv").read_bytes()
                == (tmp_path / "monitors.csv").read_bytes())

    def test_convection_built_once_per_step(self, monkeypatch):
        # the energy monitor pairs with the C(u*) that the momentum step
        # built, and gets the value a rebuild from u* = 2 u^n - u^{n-1} gives
        from fvproj import operators
        built, pairings = [], []
        build = operators.convection_matrix

        def counting(u, weighted=False):
            built.append((u, build(u, weighted)))
            return built[-1][1]

        def checking(W, v, w):
            u, C = built[-1]
            assert W is C
            value = operators.trilinear_form(W, v, w)
            assert value == operators.trilinear_form(build(u, weighted=True), v, w)
            pairings.append(value)
            return value

        monkeypatch.setattr(scheme, "convection_matrix", counting)
        monkeypatch.setattr(operators, "convection_matrix", counting)
        monkeypatch.setattr(scheme, "trilinear_form", checking)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=5)
        traj = run(cfg)
        # the start-up step and four BDF2 steps, each one build of C(u*)
        assert len(built) == 5 and len(pairings) == len(traj.records) == 4


class TestExtrapolatedAdvection:
    def test_momentum_uses_two_un_minus_unm1(self):
        # regression: the advecting field is the BDF2 extrapolation, not
        # the current velocity
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        state, _ = advance(state, cfg, ws)  # now u_prev != u_curr

        import scipy.sparse as sp
        from fvproj.operators import convection_matrix

        ut = momentum_step(state, cfg, ws)
        k = cfg.k

        def assemble_with(advecting):
            A = (sp.diags(1.5 / k * ws.mass) + (1.0 / cfg.re) * ws.h_stiff
                 + convection_matrix(advecting, weighted=True).matrix).tocsr()
            f = ws.forcing
            gp = gradient(state.p_curr)
            rhs = (f.values + (4 * state.u_curr.values - state.u_prev.values)
                   / (2 * k) - gp.values) * ws.mass[:, None]
            out = np.empty_like(rhs)
            from fvproj.linalg import solve
            for c in range(2):
                out[:, c], info = solve(A, rhs[:, c], cfg.momentum)
                assert info.converged
            return out

        extrapolated = SolenoidalP0.trusted(
            2.0 * state.u_curr.field - state.u_prev.field)
        good = assemble_with(extrapolated)
        assert np.abs(ut.values - good).max() <= 1e-11 * np.abs(good).max()

        wrong = assemble_with(state.u_curr)
        assert np.abs(ut.values - wrong).max() > 1e-9 * np.abs(good).max()


class TestRunDriver:
    def test_temporal_self_convergence(self):
        # halving k at fixed T changes the terminal state by a shrinking
        # amount
        T = 0.16
        mesh = unit_square_acute(1)
        states = []
        for k in (0.02, 0.01, 0.005):
            cfg = RunConfig(mesh_spec="acute:1", k=k, n_steps=int(round(T / k)),
                            case="manufactured-A")
            states.append(run(cfg, mesh=mesh).state.u_curr.field)
        d1 = l2_norm(states[0] - states[1])
        d2 = l2_norm(states[1] - states[2])
        assert d2 < d1

    def test_monitor_and_snapshot_outputs(self, tmp_path):
        out = tmp_path / "results"
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=6,
                        case="manufactured-A", out_dir=str(out), cadence=2)
        traj = run(cfg)
        monitors = out / "monitors.csv"
        assert monitors.exists()
        lines = monitors.read_text().splitlines()
        assert lines[0].startswith("step,t,u_l2,ut_hnorm,p_l2,div_residual")
        assert "mom_iters" in lines[0].split(",")
        assert len(lines) == 1 + len(traj.records)
        snaps = sorted(out.glob("state_*.vtk"))
        assert len(snaps) == 3  # steps 2, 4, 6
        head = snaps[0].read_text().splitlines()
        assert head[0] == "# vtk DataFile Version 3.0"
        assert any(line.startswith("CELL_DATA") for line in head)
        clouds = sorted(out.glob("pressure_*.vtk"))
        assert len(clouds) == 3

    def test_run_requires_admissible_mesh(self):
        from fvproj.mesh import MeshTopologyError
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        with pytest.raises(MeshTopologyError):
            run(cfg, mesh=square_two_triangles())

    def test_monitor_rows_roundtrip(self, short_run):
        names, rows = short_run.monitor_rows()
        assert names[0] == "step"
        assert len(rows) == len(short_run.records)
        assert rows[0][0] == 2
