import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fvproj import linalg, scheme
from fvproj.fields import (ScalarP1NC, SolenoidalP0, VectorP0, h_gram,
                           h_norm, l2_norm, p1nc_mass)
from fvproj.linalg import SolverError
from fvproj.mesh import unit_square_acute
from fvproj.operators import (divergence, gradient, leray_project,
                              pressure_stiffness)
from fvproj.scheme import (RunConfig, _Workspace, advance,
                           correction_step, initialize, make_case,
                           momentum_step, pressure_step, run)
from field_helpers import p0_l2_error
from fixture_meshes import single_triangle, square_two_triangles
from loop_oracles import zero_mean_solve_dense


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
        assert [f.name for f in fields(cfg)] == [
            "mesh_spec", "k", "n_steps", "re", "case", "out_dir", "cadence"]
        # the solves and the certificate read fixed tolerances
        assert (linalg.BICGSTAB_RTOL, linalg.BICGSTAB_ATOL) == (1e-12, 1e-14)
        assert linalg.FACTORED_RTOL == 1e-13
        assert scheme.LAGGED_MAXITER == 20
        assert scheme.CERT_TOL == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(n_steps=1)
        with pytest.raises(ValueError):
            RunConfig(re=-5)
        with pytest.raises(ValueError, match="cadence must be >= 0"):
            RunConfig(cadence=-1)
        assert RunConfig(cadence=0).cadence == 0

    def test_cadence_needs_an_output_directory(self):
        # a cadence with nowhere to write is a usage error
        with pytest.raises(ValueError, match="config key 'cadence': snapshots "
                           "need an output directory"):
            RunConfig().with_overrides({"cadence": "2"})
        cfg = RunConfig().with_overrides({"cadence": "2", "out": "results"})
        assert cfg.cadence == 2

    @pytest.mark.parametrize("key, value", [("k", "nan"), ("re", "nan"),
                                            ("k", "inf")])
    def test_non_finite_values_name_their_key(self, key, value):
        # NaN passes a "<= 0" test, and an infinite step fails only at the
        # first correction; both are rejected before the run starts
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            RunConfig().with_overrides({key: value})

    def test_infinite_reynolds_number_runs(self):
        # no viscous term: a run that stays possible
        cfg = RunConfig(mesh_spec="acute:0").with_overrides({"re": "inf",
                                                             "steps": "3"})
        assert cfg.re == np.inf
        assert len(run(cfg).records) == 2

    def test_unparsable_value_names_its_key(self):
        with pytest.raises(ValueError,
                           match="config key 'k': cannot parse 'fast' as float"):
            RunConfig().with_overrides({"k": "fast"})

    @pytest.mark.parametrize("key", ["solver_rtol", "momentum_rtol",
                                     "pressure_rtol", "quad_order",
                                     "allow_degenerate", "n_steps", "Re",
                                     "mesh"])
    def test_removed_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig().with_overrides({key: "1"})

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Run settings", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^- `([^`]+)`", section, flags=re.M)
        assert sorted(listed) == sorted(scheme.CONFIG_KEYS)
        for key in listed:
            # a case is one of scheme.CASES; "2" parses for every other key,
            # and a cadence needs an output directory
            RunConfig(out_dir="out").with_overrides(
                {key: "zero" if key == "case" else "2"})


class TestZeroRun:
    def test_everything_stays_zero(self):
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=6, case="zero")
        traj = run(cfg)
        assert len(traj.records) == 5
        for rec in traj.records:
            assert rec.u_l2 == 0.0
            assert rec.p_l2 == 0.0
            assert rec.div_residual == 0.0
        # u^0, u^1 and grad p^1 of the start-up
        state, _, _ = initialize(cfg, unit_square_acute(0))
        for field in (state.u_prev.field, state.u_curr.field, state.grad_p):
            assert l2_norm(field) == 0.0


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

    def test_fine_mesh_start_up_projects_twice(self):
        # at acute:6, k = 0.1 the start-up projection leaves |div u| =
        # 3.8e-12 > 1e-12 * 2.11 from the rounding of phi alone, and the run
        # raised; a second pass brings the ratio to 4.8e-15 under the same
        # certificate and is counted
        cfg = RunConfig(mesh_spec="acute:6", k=0.1, n_steps=2)
        state, diagnostics, ws = initialize(cfg, unit_square_acute(6))
        assert ws.second_passes == 1
        scale = max(l2_norm(state.u_curr.field), l2_norm(divergence(state.u_tilde)))
        assert diagnostics["div_residual"] <= 1e-2 * scheme.CERT_TOL * scale
        assert diagnostics["p_backward_error"] <= linalg.FACTORED_RTOL

    def test_initial_velocity_divergence_free(self):
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=2)
        mesh = unit_square_acute(1)
        state, _, _ = initialize(cfg, mesh)
        # u^0 is state.u_prev and u^1 state.u_curr
        for u in (state.u_prev.field, state.u_curr.field):
            assert l2_norm(divergence(u)) <= 1e-11 * l2_norm(u)

    def test_startup_bound_stable_under_refinement(self):
        # |u^0| + |u^1| + k |grad p^1|
        values = []
        for lvl in range(3):
            cfg = RunConfig(mesh_spec=f"acute:{lvl}", k=1e-2, n_steps=2)
            state, _, _ = initialize(cfg, unit_square_acute(lvl))
            values.append(l2_norm(state.u_prev.field) + l2_norm(state.u_curr.field)
                          + cfg.k * l2_norm(state.grad_p))
        assert max(values) / min(values) < 2.0

    def test_projection_error_first_order(self):
        errors = []
        hs = []
        for lvl in range(3):
            cfg = RunConfig(mesh_spec=f"acute:{lvl}", k=1e-2, n_steps=2)
            mesh = unit_square_acute(lvl)
            state, _, _ = initialize(cfg, mesh)
            errors.append(p0_l2_error(state.u_prev.field, make_case(cfg.case, cfg.re).u0))
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
        u_n = SolenoidalP0(VectorP0(mesh, rng.standard_normal((1, 2))))
        u_nm1 = SolenoidalP0(VectorP0(mesh, rng.standard_normal((1, 2))))
        p_n = ScalarP1NC(mesh, rng.standard_normal(3))
        return mesh, cfg, _Workspace(cfg, mesh), u_n, u_nm1, p_n

    def test_hand_assembled_two_by_two(self, cell):
        # all edges on the boundary: no convection coupling, and the
        # momentum system reduces to one scalar equation per component
        mesh, cfg, ws, u_n, u_nm1, p_n = cell
        state = scheme.SchemeState(u_prev=u_nm1, u_curr=u_n, p_curr=p_n,
                                   grad_p=gradient(p_n), t=0.3, n=4)
        ut = momentum_step(state, cfg, ws)[0]

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
                                   grad_p=gradient(p_n), t=0.0, n=0)
        ut = momentum_step(state, cfg, ws)[0]

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
        u_next, p_next, _, _ = pressure_step(state, ut, cfg)
        dp = p_next - state.p_curr
        assert l2_norm(gradient(dp)) < 1e-10 * max(l2_norm(ut), 1e-3)
        new = correction_step(state, ut, u_next, p_next, cfg)
        assert np.abs(new.u_curr.values - ut.values).max() < 1e-10

    def test_pressure_solution_unique_across_methods(self):
        # the increment dp = (a0/k) phi of the projection's potential
        # against a dense solve of (grad dp, grad r) = -(a0/k) (div ut, r)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=3)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        ut = momentum_step(state, cfg, ws)[0]
        dp = 1.5 / cfg.k * leray_project(ut)[1].values
        rhs = -1.5 / cfg.k * p1nc_mass(mesh) * divergence(ut).values
        dp_dense = zero_mean_solve_dense(
            pressure_stiffness(mesh).toarray(), rhs, p1nc_mass(mesh))
        denom = max(np.abs(dp_dense).max(), 1e-12)
        assert np.abs(dp - dp_dense).max() < 1e-10 * denom

    def test_step_is_the_leray_projection(self):
        # u^{n+1} is leray_project(u_tilde) itself, and p^{n+1} - p^n its
        # potential times a0/k, up to the rounding of the zero-mean shift
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=3)
        state, _, ws = initialize(cfg, unit_square_acute(1))
        new, rec = advance(state, cfg, ws)
        u, phi, info, div_l2 = leray_project(new.u_tilde)
        assert np.array_equal(new.u_curr.values, u.values)
        dp = (new.p_curr - state.p_curr).values
        assert np.abs(dp - 1.5 / cfg.k * phi.values).max() <= 1e-13 * np.abs(dp).max()
        assert rec.p_backward_error == info.backward_error
        assert rec.div_residual == div_l2 == l2_norm(divergence(u.field))
        assert rec.u_l2 == l2_norm(u.field)

    def test_a_step_depends_only_on_its_state(self):
        # two steps out of one state give one record: the energy balance
        # once read |u^n| from what the previous call left behind, and read
        # 1.25e-14, then 0.300
        cfg = RunConfig(mesh_spec="acute:2", k=1e-2, n_steps=3)
        state, _, ws = initialize(cfg, unit_square_acute(2))
        first, second = (advance(state, cfg, ws)[1] for _ in range(2))
        assert first == second and first.energy_residual <= 1e-10
        # the workspace holds what lasts the whole run, and nothing of a step
        assert sorted(vars(ws)) == sorted([
            "mesh", "case", "cert_tol", "forcing", "mom_factor", "mom_solves",
            "mom_failed", "mom_failed_iters", "second_passes"])

    def test_small_time_step_meets_pressure_rtol(self):
        # at k = 1e-4 the right-hand side's rounding-level sum, left in the
        # grounded row, once failed the gate at step 312; every solve must
        # meet rtol itself, not only the absolute floor of the gate
        traj = run(RunConfig(mesh_spec="acute:1", re=100, k=1e-4, n_steps=400))
        assert all(r.p_backward_error < linalg.FACTORED_RTOL
                   for r in traj.records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_certify_rejects_non_finite_field(self, bad):
        # the projection refuses a non-finite field before its solve
        mesh = unit_square_acute(0)
        values = np.zeros((mesh.num_triangles, 2))
        values[3, 0] = bad
        with pytest.raises(SolverError, match="test: field has NaN or Inf"):
            leray_project(VectorP0(mesh, values), "test")
        with pytest.raises(SolverError, match="test: field has NaN or Inf"):
            leray_project(VectorP0(mesh, np.full_like(values, bad)), "test")

    def test_pressure_failure_names_its_caller(self, monkeypatch):
        # no solve meets a backward error of 1e-30, so the first pressure
        # solve of each path fails and must say where it was
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        mesh = unit_square_acute(0)
        with monkeypatch.context() as m:
            m.setattr(linalg, "FACTORED_RTOL", 1e-30)
            with pytest.raises(SolverError, match="^initial projection: .*backward error"):
                initialize(cfg, mesh)
        state, _, ws = initialize(cfg, mesh)
        ut = momentum_step(state, cfg, ws)[0]
        monkeypatch.setattr(linalg, "FACTORED_RTOL", 1e-30)
        with pytest.raises(SolverError, match="^pressure step 2: .*backward error"):
            pressure_step(state, ut, cfg)

    def test_incompatible_projection_names_its_caller(self, monkeypatch):
        # a divergence off by a constant has (div u, 1) != 0: the projection
        # refuses it, in the start-up projection and in a step
        from fvproj import operators
        div = operators.divergence
        shifted = lambda v: ScalarP1NC(v.mesh, div(v).values + 1.0)
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        mesh = unit_square_acute(0)
        incompatible = "right-hand side incompatible"
        with monkeypatch.context() as m:
            m.setattr(operators, "divergence", shifted)
            with pytest.raises(SolverError, match=f"^initial projection: {incompatible}"):
                initialize(cfg, mesh)
        state, _, ws = initialize(cfg, mesh)
        monkeypatch.setattr(operators, "divergence", shifted)
        with pytest.raises(SolverError, match=f"^pressure step 2: {incompatible}"):
            advance(state, cfg, ws)

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
        rtol = linalg.FACTORED_RTOL
        for rec in short_run.records:
            assert rec.div_residual <= 10 * rtol * rec.u_l2

    def test_pressure_mean_zero_along_run(self, short_run):
        state = short_run.state
        mass = p1nc_mass(state.u_curr.mesh)
        mean = abs(mass @ state.p_curr.values)
        assert mean <= 1e-13 * max(np.abs(state.p_curr.values).max(), 1.0)


def _column_residuals(A, b, x):
    """|b - A x| / |b| of each column of a two-column solve."""
    assert b.shape == x.shape == (A.matrix.shape[0], 2)
    return [np.linalg.norm(b[:, c] - A.matrix @ x[:, c]) / np.linalg.norm(b[:, c])
            for c in range(2)]


class TestMomentumSolveResidual:
    def test_true_residual_meets_rtol(self, monkeypatch):
        # regression: on this run BiCGStab once stopped on its recursive
        # residual while |b - A x| / |b| was 1.00005e-12 > rtol.  One
        # two-column solve per step, each column on its own gate
        residuals = []

        def recording_solve(A, b, maxiter=None, **kwargs):
            x, info = linalg.solve(A, b, maxiter, **kwargs)
            residuals.append(_column_residuals(A, b, x))
            return x, info

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:3", k=0.01, n_steps=20, re=1.0,
                        case="manufactured-A")
        run(cfg)
        assert len(residuals) == cfg.n_steps
        assert max(max(r) for r in residuals) <= linalg.BICGSTAB_RTOL


    def test_huge_forcing_is_solved(self):
        # at re = 1e-200 the momentum right-hand side passes 1e154, where
        # its norm once overflowed and each solve returned its guess after
        # 0 iterations; the velocity is that of re = 1e-150
        runs = [run(RunConfig(mesh_spec="acute:1", n_steps=2, re=re))
                for re in (1e-200, 1e-150)]
        assert all(r.mom_iters > 0 for r in runs[0].records)
        for a, b in zip(*(r.records for r in runs)):
            assert a.u_l2 == pytest.approx(b.u_l2, rel=1e-6)
            assert a.p_l2 == pytest.approx(b.p_l2, rel=1e-6)


class TestMomentumPreconditioner:
    """BiCGStab on the momentum system is preconditioned by a lagged
    SuperLU factor of the BDF2 momentum matrix."""

    def _counted_run(self, monkeypatch, n_steps):
        factors, solves = [], []
        factor = scheme.LUFactor

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        def recording_solve(A, b, maxiter=None, **kwargs):
            x, info = linalg.solve(A, b, maxiter, **kwargs)
            solves.append((info.iterations, max(_column_residuals(A, b, x)),
                           [col.iterations for col in info.columns]))
            return x, info

        monkeypatch.setattr(scheme, "LUFactor", counting_factor)
        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:3", k=0.01, n_steps=n_steps, re=1.0,
                        case="manufactured-A")
        return run(cfg), factors, solves

    def test_one_factor_and_few_iterations(self, monkeypatch):
        traj, factors, solves = self._counted_run(monkeypatch, 20)
        assert len(factors) == 1
        # one two-column solve per step
        assert len(solves) == 20
        # Jacobi needs about 80 iterations per component here
        assert max(max(cols) for _, _, cols in solves) <= 10
        assert max(res for _, res, _ in solves) <= linalg.BICGSTAB_RTOL
        assert all(it == sum(cols) for it, _, cols in solves)
        assert [r.mom_iters for r in traj.records] == [it for it, _, _ in solves[1:]]
        assert [r.mom_refactor for r in traj.records] == [0] * 19

    def test_preconditioner_holds_no_matrix(self, monkeypatch):
        # the lagged factor keeps its SuperLU object, not the matrix it was
        # built from, at start-up and after a rebuild
        monkeypatch.setattr(scheme, "LAGGED_MAXITER", 1)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        state, diagnostics, ws = initialize(cfg, unit_square_acute(1))
        assert diagnostics["mom_refactor"] == 2
        for _ in range(2):
            factor = ws.mom_factor
            assert not [v for v in vars(factor).values() if sp.issparse(v)]
            assert factor.nnz > 0 and factor.build_s > 0
            state, _ = advance(state, cfg, ws)
            assert ws.mom_factor is not factor

    def test_one_data_array_per_matrix(self, monkeypatch):
        # each momentum matrix is written into the data array it holds: no
        # second array of H's pattern (such as a shared (1/Re) H + C to
        # shift) stays alive in the step through its solves; and the
        # right-hand sides and guess come in the layout solve iterates on
        mesh = unit_square_acute(1)
        H = h_gram(mesh)
        spare = []

        def inspecting_solve(A, b, maxiter=None, **kwargs):
            step = sys._getframe(1).f_locals
            reached = list(step.values())
            for v in step.values():
                for cell in getattr(v, "__closure__", None) or ():
                    reached.append(cell.cell_contents)
            spare.extend(v for v in reached if isinstance(v, np.ndarray)
                         and v.shape == H.data.shape and v is not H.data)
            assert A.matrix.data.shape == H.data.shape
            assert b.T.flags.c_contiguous and A.guess.T.flags.c_contiguous
            return linalg.solve(A, b, maxiter, **kwargs)

        monkeypatch.setattr(scheme, "solve", inspecting_solve)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=8)
        run(cfg, mesh)
        assert spare == []

    def test_refactor_each_step_still_meets_rtol(self, monkeypatch):
        # a cap of one iteration fails every capped solve, so every step,
        # the start-up step included, repeats its solve with a fresh factor
        monkeypatch.setattr(scheme, "LAGGED_MAXITER", 1)
        traj, factors, solves = self._counted_run(monkeypatch, 6)
        assert len(factors) == 7 and len(solves) == 12
        assert traj.init_diagnostics["mom_refactor"] == 2
        assert [r.mom_refactor for r in traj.records] == [1] * 5
        assert max(res for _, res, _ in solves[1::2]) <= linalg.BICGSTAB_RTOL

    def test_rebuilt_only_after_a_failed_solve(self, monkeypatch):
        # a factor serves until a capped solve with it fails; the repeat's
        # fresh factor of the step's own matrix becomes the current one
        matrices = []

        def recording_solve(A, b, maxiter=None, **kwargs):
            matrices.append(A.matrix)
            return linalg.solve(A, b, maxiter, **kwargs)

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        first = ws.mom_factor
        state, rec = advance(state, cfg, ws)
        assert ws.mom_factor is first and rec.mom_refactor == 0
        # a factor of H alone does not bring the step's solve to
        # convergence within the cap
        ws.mom_factor = lagged = scheme.LUFactor(h_gram(mesh))
        state, rec = advance(state, cfg, ws)
        assert rec.mom_refactor == 1 and rec.mom_iters > 2 * scheme.LAGGED_MAXITER
        fresh = ws.mom_factor
        assert fresh not in (first, lagged)
        x = np.random.default_rng(0).standard_normal((mesh.num_triangles, 2))
        assert np.allclose(fresh.apply(matrices[-1] @ x), x, rtol=0, atol=1e-10)
        state, rec = advance(state, cfg, ws)
        assert ws.mom_factor is fresh and rec.mom_refactor == 0


class TestMomentumRetry:
    """A momentum solve that the lagged factor does not bring to
    convergence within LAGGED_MAXITER iterations is repeated with a fresh
    factor of the step's matrix."""

    @pytest.mark.parametrize("mesh_spec, re, k, n_steps",
                             [("acute:2", 1e6, 1.0, 10),
                              ("acute:3", 1e5, 0.5, 4)])
    def test_failed_solve_is_retried(self, monkeypatch, mesh_spec, re, k,
                                     n_steps):
        # both runs raised SolverError when only a slow solve refactored,
        # and only at the next step; uncapped, their failing attempts ran
        # 844 and 1,381 iterations before BiCGStab diverged
        solves = []

        def recording_solve(A, b, maxiter=None, **kwargs):
            x, info = linalg.solve(A, b, maxiter, **kwargs)
            solves.append((info.converged, b, max(_column_residuals(A, b, x)),
                           maxiter, [c.iterations for c in info.columns]))
            return x, info

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec=mesh_spec, k=k, n_steps=n_steps, re=re,
                        case="manufactured-A")
        traj = run(cfg)
        cap = scheme.LAGGED_MAXITER
        assert cap == 20
        failed = [i for i, (ok, *_) in enumerate(solves) if not ok]
        assert failed
        for i in failed:
            # the lagged attempt stops at the cap; the fresh-factor retry
            # of the same right-hand sides has the default cap and meets
            # the gate
            _, _, _, maxiter, cols = solves[i]
            assert maxiter == cap and max(cols) == cap
            ok, b, res, maxiter, _ = solves[i + 1]
            assert ok and np.array_equal(b, solves[i][1]) and maxiter is None
            assert res <= linalg.BICGSTAB_RTOL
        assert all(max(cols) <= cap for _, _, _, maxiter, cols in solves
                   if maxiter == cap)
        # one factor at start-up, and one for each repeat
        builds = [traj.init_diagnostics["mom_refactor"]] + [
            r.mom_refactor for r in traj.records]
        assert sum(builds) == 1 + len(failed)
        assert max(r.energy_residual for r in traj.records) <= 1e-10

    def test_every_later_build_follows_a_failed_capped_solve(self, monkeypatch):
        # a factor is built only at the run's first solve and for the
        # repeat of a capped solve that failed: nothing builds ahead
        events = []
        factor = scheme.LUFactor

        def recording_factor(*args, **kwargs):
            events.append("build")
            return factor(*args, **kwargs)

        def recording_solve(A, b, maxiter=None, **kwargs):
            x, info = linalg.solve(A, b, maxiter, **kwargs)
            events.append((info.converged, maxiter))
            return x, info

        monkeypatch.setattr(scheme, "LUFactor", recording_factor)
        monkeypatch.setattr(scheme, "solve", recording_solve)
        run(RunConfig(mesh_spec="acute:2", k=1.0, n_steps=10, re=1e6,
                      case="manufactured-A"))
        builds = [i for i, e in enumerate(events) if e == "build"]
        assert builds[0] == 0 and len(builds) > 2
        for i in builds[1:]:
            assert events[i - 1] == (False, scheme.LAGGED_MAXITER)
            assert events[i + 1] == (True, None)

    def test_fresh_factor_failure_raises(self, monkeypatch):
        # no solve meets rtol 1e-30 (atol 1e-300): the lagged factor fails,
        # one fresh factor is built, and its failure is raised
        cfg = RunConfig(mesh_spec="acute:0", k=1e-2, n_steps=3)
        state, _, ws = initialize(cfg, unit_square_acute(0))
        factors = []
        factor = scheme.LUFactor

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(scheme, "LUFactor", counting_factor)
        monkeypatch.setattr(linalg, "BICGSTAB_RTOL", 1e-30)
        monkeypatch.setattr(linalg, "BICGSTAB_ATOL", 1e-300)
        with pytest.raises(SolverError, match=r"^momentum solve \(component 0\)"):
            momentum_step(state, cfg, ws)
        assert len(factors) == 1

    @pytest.mark.parametrize("re", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("k", [0.01, 0.1, 0.5, 1.0])
    def test_stable_across_re_and_k(self, re, k):
        from fvproj.analysis import stability_monitors
        cfg = RunConfig(mesh_spec="acute:2", k=k, n_steps=10, re=re,
                        case="manufactured-A")
        traj = run(cfg)
        assert max(r.energy_residual for r in traj.records) <= 1e-10
        assert stability_monitors(traj.records, k=k).ok


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
        assert all(0.0 < v <= linalg.FACTORED_RTOL for v in col)
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

        def counting(u):
            built.append((u, build(u)))
            return built[-1][1]

        def checking(W, v, w):
            u, C = built[-1]
            assert W is C
            value = operators.trilinear_form(W, v, w)
            assert value == operators.trilinear_form(build(u), v, w)
            pairings.append(value)
            return value

        monkeypatch.setattr(scheme, "convection_matrix", counting)
        monkeypatch.setattr(operators, "convection_matrix", counting)
        monkeypatch.setattr(scheme, "trilinear_form", checking)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=5)
        traj = run(cfg)
        # the start-up step and four BDF2 steps, each one build of C(u*)
        assert len(built) == 5 and len(pairings) == len(traj.records) == 4


def _count_divgrad(monkeypatch, calls):
    """Record (name, argument) of every gradient and divergence that scheme
    and operators (``leray_project``) call."""
    from fvproj import operators
    for module in (scheme, operators):
        for name in ("gradient", "divergence"):
            op = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, op=op, name=name:
                                calls.append((name, x)) or op(x))


class TestPerStepWork:
    def test_each_quantity_computed_once(self, monkeypatch):
        # div(u_tilde) serves the projection and the certificate's scale;
        # div(u^{n+1}) the certificate and the record; |u_tilde|_h the
        # record and the energy term
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        state, _, ws = initialize(cfg, unit_square_acute(1))
        calls, hnorms = [], []
        hn = scheme.h_norm
        _count_divgrad(monkeypatch, calls)
        monkeypatch.setattr(scheme, "h_norm", lambda v: hnorms.append(v) or hn(v))
        for _ in range(2):
            calls.clear()
            hnorms.clear()
            state, rec = advance(state, cfg, ws)
            divs = [x for name, x in calls if name == "divergence"]
            assert len(divs) == 2 and len(hnorms) == 1
            assert divs[0] is hnorms[0] is state.u_tilde
            assert divs[1] is state.u_curr.field
            assert rec.div_residual == l2_norm(divergence(state.u_curr.field))
            assert rec.ut_hnorm == h_norm(state.u_tilde)

    def test_two_gradients_and_two_divergences_per_step(self, monkeypatch):
        # gradient(phi) and gradient(p^{n+1}), div(u_tilde) and div(u^{n+1});
        # gradient(p^n) is the one the previous step (or start-up) kept
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        calls = []
        _count_divgrad(monkeypatch, calls)
        state, _, ws = initialize(cfg, unit_square_acute(1))
        for _ in range(2):
            calls.clear()
            state, _ = advance(state, cfg, ws)
            assert sorted(name for name, _ in calls) == (["divergence"] * 2
                                                         + ["gradient"] * 2)
            assert np.array_equal(state.grad_p.values,
                                  gradient(state.p_curr).values)

    def test_start_up_takes_each_divergence_once(self, monkeypatch):
        # the projections of the data and of the start-up predictor, each
        # taking div v and the certificate's div u: four fields, each
        # divergence once
        calls = []
        _count_divgrad(monkeypatch, calls)
        initialize(RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4),
                   unit_square_acute(1))
        divs = [id(x) for name, x in calls if name == "divergence"]
        assert len(divs) == len(set(divs)) == 4
        # gradients of phi^0, phi^1 and p^1; that of p^0 = 0 is a zero field
        assert len(calls) == 7

    def test_snapshot_divergence_is_the_fields(self, tmp_path):
        from test_vtkio import _bits, _decode
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4, case="manufactured-A",
                        out_dir=str(tmp_path), cadence=4)
        traj = run(cfg)
        _, _, arrays = _decode((tmp_path / "pressure_000004.vtk").read_bytes())
        expected = divergence(traj.state.u_curr.field).values
        assert np.array_equal(_bits(arrays["SCALARS div_velocity"]), _bits(expected))


class TestExtrapolatedAdvection:
    def test_momentum_uses_two_un_minus_unm1(self):
        # regression: the advecting field is the BDF2 extrapolation, not
        # the current velocity
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        mesh = unit_square_acute(1)
        state, _, ws = initialize(cfg, mesh)
        state, _ = advance(state, cfg, ws)  # now u_prev != u_curr

        from fvproj.operators import convection_matrix

        ut = momentum_step(state, cfg, ws)[0]
        k = cfg.k

        def assemble_with(advecting):
            A = (sp.diags(1.5 / k * mesh.tri_area) + (1.0 / cfg.re) * h_gram(mesh)
                 + convection_matrix(advecting)).tocsr()
            f = ws.forcing
            gp = gradient(state.p_curr)
            rhs = (f.values + (4 * state.u_curr.values - state.u_prev.values)
                   / (2 * k) - gp.values) * mesh.tri_area[:, None]
            from fvproj.linalg import LUFactor, SparseOperator, solve
            out, info = solve(SparseOperator(A, LUFactor(A).apply), rhs)
            assert info.converged
            return out

        extrapolated = SolenoidalP0(2.0 * state.u_curr.field - state.u_prev.field)
        good = assemble_with(extrapolated)
        assert np.abs(ut.values - good).max() <= 1e-11 * np.abs(good).max()

        wrong = assemble_with(state.u_curr)
        assert np.abs(ut.values - wrong).max() > 1e-9 * np.abs(good).max()


class TestStartingGuess:
    def test_weights_extrapolate_a_quartic(self):
        # sampled at the last five steps (newest first), a quartic in t is
        # extrapolated exactly to the new step
        quartic = np.polynomial.Polynomial(np.random.default_rng(3).standard_normal(5))
        guess = sum(w * quartic(-j) for j, w in enumerate(scheme.GUESS_WEIGHTS))
        assert abs(guess - quartic(1.0)) <= 1e-12 * max(abs(quartic.coef).sum(), 1.0)

    def test_u_star_until_five_predictors(self, monkeypatch):
        guesses = []

        def recording_solve(A, b, maxiter=None, **kwargs):
            guesses.append(A.guess)
            return linalg.solve(A, b, maxiter, **kwargs)

        monkeypatch.setattr(scheme, "solve", recording_solve)
        cfg = RunConfig(mesh_spec="acute:1", k=1e-2, n_steps=4)
        state, _, ws = initialize(cfg, unit_square_acute(1))
        # the start-up step's u* = 2 u^0 - u^0
        assert np.array_equal(guesses[0], state.u_prev.values)
        for _ in range(8):
            u_star = 2.0 * state.u_curr.values - state.u_prev.values
            history = state.predictors
            state, _ = advance(state, cfg, ws)
            expected = (sum(w * v for w, v in zip(scheme.GUESS_WEIGHTS, history))
                        if len(history) == 5 else u_star)
            assert np.array_equal(guesses[-1], expected)
            # the new predictor joins the history, which keeps the last five
            assert state.predictors[0] is state.u_tilde.values
            assert len(state.predictors) == min(len(history) + 1, 5)
            assert all(a is b for a, b in zip(state.predictors[1:], history))


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
        head = snaps[0].read_bytes().split(b"\n")
        assert head[0] == b"# vtk DataFile Version 3.0"
        assert any(line.startswith(b"CELL_DATA") for line in head)
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
