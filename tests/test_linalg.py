import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fvproj import reference
from fvproj.fields import ScalarP1NC, mean_zero, p1nc_mass
from fvproj.linalg import (SolveInfo, SolverConfig, SolverError, SparseOperator,
                           Tolerance, ZeroMeanSolver, solve)
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.operators import (pressure_solver, pressure_stiffness,
                              velocity_stiffness)


@pytest.fixture(scope="module")
def pressure_system():
    mesh = unit_square_acute(1)
    A = pressure_stiffness(mesh)
    mass = p1nc_mass(mesh)
    rng = np.random.default_rng(11)
    rhs_field = mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges)))
    b = mass * rhs_field.values
    return mesh, A, mass, b


def test_identity_solve():
    n = 17
    b = np.linspace(-1, 1, n)
    for method in ("cg", "bicgstab", "gmres", "dense"):
        x, info = solve(sp.eye(n, format="csr"), b, SolverConfig(method=method))
        assert info.converged
        assert np.allclose(x, b, atol=1e-12)


def test_zero_rhs_short_circuits():
    x, info = solve(sp.eye(4, format="csr"), np.zeros(4), SolverConfig())
    assert info.converged and info.iterations == 0
    assert np.all(x == 0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="sor")
    with pytest.raises(ValueError):
        SolverConfig(rtol=-1)
    with pytest.raises(ValueError):
        SolverConfig(restart=0)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve(sp.eye(3, format="csr"), np.ones(4), SolverConfig())


class TestConstrainedSolve:
    def test_cg_matches_dense(self, pressure_system):
        # with weights the solve is the zero-mean factor, whatever the method
        mesh, A, mass, b = pressure_system
        x_cg, info_cg = solve(A, b, SolverConfig(method="cg", rtol=1e-12),
                              zero_mean_weights=mass)
        x_d = reference.zero_mean_solve_dense(A.toarray(), b, mass)
        assert info_cg.converged and info_cg.method == "lu"
        assert np.linalg.norm(x_cg - x_d) <= 1e-8 * np.linalg.norm(x_d)

    def test_weighted_mean_pinned(self, pressure_system):
        mesh, A, mass, b = pressure_system
        for method in ("cg", "dense"):
            x, info = solve(A, b, SolverConfig(method=method),
                            zero_mean_weights=mass)
            assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)
        x = reference.zero_mean_solve_dense(A.toarray(), b, mass)
        assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)

    def test_unconstrained_singular_mean_arbitrary(self, pressure_system):
        # without the constraint the kernel component is unpinned: the
        # constrained and unconstrained solutions differ by a constant
        mesh, A, mass, b = pressure_system
        x_free, info = solve(A, b, SolverConfig(method="cg", rtol=1e-11))
        assert info.converged
        x_pin, _ = solve(A, b, SolverConfig(method="cg", rtol=1e-11),
                         zero_mean_weights=mass)
        shift = x_free - x_pin
        assert np.abs(shift - shift.mean()).max() < 1e-7 * max(np.abs(x_pin).max(), 1.0)

    def test_incompatible_rhs_flagged(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        bad = np.ones(mesh.num_edges)  # constant rhs is not in the range
        x, info = solve(A, bad, SolverConfig(method="cg", maxiter=500))
        assert not info.converged


def test_momentum_like_bicgstab():
    mesh = unit_square_acute(1)
    H = velocity_stiffness(mesh).matrix
    rng = np.random.default_rng(4)
    n = mesh.num_triangles
    skew = sp.random(n, n, density=0.02, random_state=7, format="csr")
    A = sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)
    b = rng.standard_normal(n)
    x, info = solve(A, b, SolverConfig(method="bicgstab", rtol=1e-12))
    assert info.converged
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_fallback_chain_reaches_dense():
    # starve the Krylov solvers of iterations: the chain must end at the
    # dense direct solve (n < 2000)
    rng = np.random.default_rng(0)
    n = 40
    A = sp.csr_matrix(np.diag(np.linspace(1, 100, n)) + 0.5 * rng.random((n, n)))
    b = rng.standard_normal(n)
    x, info = solve(A, b, SolverConfig(method="bicgstab", maxiter=2, restart=2))
    assert info.converged
    assert info.method == "dense"
    assert "bicgstab" in info.fallbacks and "gmres" in info.fallbacks


def test_deterministic_repeat(pressure_system):
    mesh, A, mass, b = pressure_system
    x1, _ = solve(A, b, SolverConfig(method="cg"), zero_mean_weights=mass)
    x2, _ = solve(A, b, SolverConfig(method="cg"), zero_mean_weights=mass)
    assert np.array_equal(x1, x2)


class TestSparseOperator:
    def test_duplicate_entries_summed(self):
        m = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
        op = SparseOperator(m)
        assert op.matrix[0, 1] == 3.0

    def test_matvec_and_transpose(self):
        op = SparseOperator(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]])),
                            domain="a", codomain="b")
        assert np.allclose(op @ np.array([1.0, 1.0]), [3.0, 3.0])
        assert op.T.domain == "b"
        assert np.allclose(op.T @ np.array([1.0, 0.0]), [1.0, 2.0])

    def test_solve_info_str(self):
        info = SolveInfo(True, 5, 1e-12, "cg")
        assert "cg" in str(info)


def test_solve_info_str_fallbacks():
    info = SolveInfo(False, 3, 1e-2, "gmres", fallbacks=["bicgstab"])
    assert "bicgstab" in str(info)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["cg", "bicgstab", "gmres", "dense"])
def test_non_finite_rhs_rejected(bad, method):
    b = np.linspace(-1, 1, 9)
    b[4] = bad
    with pytest.raises(SolverError):
        solve(sp.eye(9, format="csr"), b, SolverConfig(method=method))


def _compatible_rhs(mesh, seed=3):
    mass = p1nc_mass(mesh)
    rng = np.random.default_rng(seed)
    return mass, mass * mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))).values


class TestZeroMeanSolver:
    @pytest.mark.parametrize("mesh", [equilateral_pair()] + [
        unit_square_acute(level) for level in range(3)])
    def test_matches_dense_bordered_solve(self, mesh):
        mass, b = _compatible_rhs(mesh)
        A = pressure_stiffness(mesh)
        x, info = pressure_solver(mesh).solve(b, Tolerance(rtol=1e-13))
        x_d = reference.zero_mean_solve_dense(A.toarray(), b, mass)
        assert info.converged
        assert np.linalg.norm(x - x_d) <= 1e-10 * np.linalg.norm(x_d)
        assert abs(mass @ x) <= 1e-13 * np.abs(x).max()
        assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)
        assert info.residual == pytest.approx(np.linalg.norm(b - A @ x))

    def test_constant_rhs_raises(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        with pytest.raises(SolverError):
            ZeroMeanSolver(A, mass).solve(np.ones(mesh.num_edges), SolverConfig())

    def test_gate_is_the_backward_error(self):
        # b = M q for the lowest non-constant pressure mode q: a smooth
        # right-hand side for which |A| |x| is far above |b|, so a
        # backward-stable solve leaves |b - A x| above rtol |b| at the
        # production rtol, and only a backward-error gate accepts it
        mesh = unit_square_acute(3)
        A, mass = pressure_stiffness(mesh).matrix, p1nc_mass(mesh)
        vals, vecs = spla.eigsh(A, k=2, M=sp.diags(mass), sigma=-1e-2,
                                v0=np.linspace(1.0, 2.0, mesh.num_edges))
        q = vecs[:, np.argmax(vals)]
        b = mass * (q - (mass @ q) / mass.sum())
        solver, tol = pressure_solver(mesh), Tolerance(rtol=1e-13)
        x, info = solver.solve(b, tol)
        r = b - A @ x
        assert info.converged
        assert np.linalg.norm(r) > tol.rtol * np.linalg.norm(b)
        scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()
        assert np.abs(r).max() <= tol.rtol * scale
        # an incompatible right-hand side is still rejected: its backward
        # error is of the size of its mean
        with pytest.raises(SolverError, match="backward error"):
            solver.solve(np.ones(mesh.num_edges), tol)

    def test_repeat_is_bit_identical(self, pressure_system):
        mesh, A, mass, b = pressure_system
        solver = pressure_solver(mesh)
        x1, _ = solver.solve(b, SolverConfig())
        x2, _ = solver.solve(b, SolverConfig())
        assert np.array_equal(x1, x2)

    def test_factored_once_per_mesh(self):
        mesh = unit_square_acute(1)
        assert pressure_solver(mesh) is pressure_solver(mesh)
        assert pressure_solver(unit_square_acute(1)) is not pressure_solver(mesh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, pressure_system, bad):
        mesh, A, mass, b = pressure_system
        b = b.copy()
        b[7] = bad
        with pytest.raises(SolverError):
            pressure_solver(mesh).solve(b, SolverConfig())

    def test_size_mismatch(self, pressure_system):
        mesh, A, mass, b = pressure_system
        with pytest.raises(ValueError):
            pressure_solver(mesh).solve(b[:-1], SolverConfig())
        with pytest.raises(ValueError):
            ZeroMeanSolver(A, mass[:-1])
