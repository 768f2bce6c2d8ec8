import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fvproj import reference
from fvproj.fields import ScalarP1NC, mean_zero, p1nc_mass
from fvproj.fields import h_gram
from fvproj.linalg import (FactoredSolver, SolveInfo, SolverError,
                           SparseOperator, Tolerance, solve)
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.operators import (h_solver, pressure_solver, pressure_stiffness,
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
    x, info = solve(sp.eye(n, format="csr"), b, Tolerance())
    assert info.converged and info.method == "bicgstab"
    assert np.allclose(x, b, atol=1e-12)


def test_zero_rhs_short_circuits():
    x, info = solve(sp.eye(4, format="csr"), np.zeros(4), Tolerance())
    assert info.converged and info.iterations == 0
    assert np.all(x == 0)


def test_solver_config_validation():
    # a solve is configured by its tolerances alone
    with pytest.raises(ValueError):
        Tolerance(rtol=-1)
    with pytest.raises(ValueError):
        Tolerance(atol=0.0)
    with pytest.raises(TypeError):
        Tolerance(method="cg")


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve(sp.eye(3, format="csr"), np.ones(4), Tolerance())


class TestConstrainedSolve:
    def test_cg_matches_dense(self, pressure_system):
        # with weights the solve is the zero-mean factor, whatever the method
        mesh, A, mass, b = pressure_system
        x_cg, info_cg = solve(A, b, Tolerance(rtol=1e-12),
                              zero_mean_weights=mass)
        x_d = reference.zero_mean_solve_dense(A.toarray(), b, mass)
        assert info_cg.converged and info_cg.method == "lu"
        assert np.linalg.norm(x_cg - x_d) <= 1e-8 * np.linalg.norm(x_d)

    def test_weighted_mean_pinned(self, pressure_system):
        mesh, A, mass, b = pressure_system
        x, info = solve(A, b, Tolerance(), zero_mean_weights=mass)
        assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)
        x = reference.zero_mean_solve_dense(A.toarray(), b, mass)
        assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)

    def test_unconstrained_singular_mean_arbitrary(self, pressure_system):
        # without the constraint BiCGStab leaves the kernel component
        # unpinned: the constrained and unconstrained solutions differ by a
        # constant
        mesh, A, mass, b = pressure_system
        x_free, info = solve(A, b, Tolerance(rtol=1e-11))
        assert info.converged and info.method == "bicgstab"
        x_pin, _ = solve(A, b, Tolerance(rtol=1e-11), zero_mean_weights=mass)
        shift = x_free - x_pin
        assert np.abs(shift - shift.mean()).max() < 1e-7 * max(np.abs(x_pin).max(), 1.0)

    def test_incompatible_rhs_flagged(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        bad = np.ones(mesh.num_edges)  # constant rhs is not in the range
        x, info = solve(A, bad, Tolerance())
        # BiCGStab stops once its residual diverges, long before its cap of
        # 10 n iterations, and says so; nothing falls back
        assert not info.converged and info.method == "bicgstab"
        assert 0 < info.iterations <= mesh.num_edges // 10
        assert not info.residual <= 1e10 * np.linalg.norm(bad)
        assert info.fallbacks == []


def test_momentum_like_bicgstab():
    mesh = unit_square_acute(1)
    H = velocity_stiffness(mesh).matrix
    rng = np.random.default_rng(4)
    n = mesh.num_triangles
    skew = sp.random(n, n, density=0.02, random_state=7, format="csr")
    A = sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)
    b = rng.standard_normal(n)
    x, info = solve(A, b, Tolerance(rtol=1e-12))
    assert info.converged
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_breakdown_ends_unconverged_without_warning():
    # with r0 = b the first direction v = A p is orthogonal to r0, so
    # alpha = rho / (r0 . v) would divide by zero
    import warnings
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, info = solve(A, np.array([1.0, 0.0]), Tolerance())
    assert not info.converged
    assert np.isfinite(info.residual) and np.all(np.isfinite(x))


class TestFactorPreconditioner:
    """``solve`` uses the preconditioner a SparseOperator carries."""

    @pytest.fixture(scope="class")
    def system(self):
        mesh = unit_square_acute(2)
        H = velocity_stiffness(mesh).matrix
        n = mesh.num_triangles
        skew = sp.random(n, n, density=0.01, random_state=7, format="csr")
        A = (sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)).tocsr()
        return A, np.random.default_rng(4).standard_normal(n)

    def test_exact_factor_converges_at_once(self, system):
        A, b = system
        op = SparseOperator(A, preconditioner=FactoredSolver(A).apply)
        x, info = solve(op, b, Tolerance(rtol=1e-12))
        _, jacobi = solve(A, b, Tolerance(rtol=1e-12))
        assert info.converged and info.iterations <= 2 < jacobi.iterations
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    def test_lagged_factor_still_meets_the_gate(self, system):
        # a factor of a different matrix is only a preconditioner: the
        # result is still certified on the true residual of A
        A, b = system
        lagged = FactoredSolver(A + sp.diags(np.full(A.shape[0], 0.5))).apply
        x, info = solve(SparseOperator(A, preconditioner=lagged), b,
                        Tolerance(rtol=1e-12))
        assert info.converged and info.iterations > 2
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_deterministic_repeat(pressure_system):
    mesh, A, mass, b = pressure_system
    x1, _ = solve(A, b, Tolerance(), zero_mean_weights=mass)
    x2, _ = solve(A, b, Tolerance(), zero_mean_weights=mass)
    assert np.array_equal(x1, x2)


class TestSparseOperator:
    def test_duplicate_entries_summed(self):
        m = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
        op = SparseOperator(m)
        assert op.matrix[0, 1] == 3.0

    def test_matvec_and_tags(self):
        op = SparseOperator(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]])),
                            domain="a", codomain="b")
        assert np.allclose(op @ np.array([1.0, 1.0]), [3.0, 3.0])
        assert (op.domain, op.codomain) == ("a", "b")
        assert op.preconditioner is None

    def test_solve_info_str(self):
        info = SolveInfo(True, 5, 1e-12, "bicgstab")
        assert "bicgstab" in str(info)


# the two solve paths: BiCGStab, and a factored solve (here the plain factor)
_SOLVES = {
    "bicgstab": lambda A, b: solve(A, b, Tolerance()),
    "lu": lambda A, b: FactoredSolver(A).solve(b, Tolerance()),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["bicgstab", "lu"])
def test_non_finite_rhs_rejected(bad, method):
    b = np.linspace(-1, 1, 9)
    b[4] = bad
    with pytest.raises(SolverError):
        _SOLVES[method](sp.eye(9, format="csr"), b)


def _compatible_rhs(mesh, seed=3):
    mass = p1nc_mass(mesh)
    rng = np.random.default_rng(seed)
    return mass, mass * mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))).values


def _lowest_mode_rhs(mesh):
    """b = M q for the lowest non-constant pressure mode q, made exactly
    compatible."""
    A, mass = pressure_stiffness(mesh).matrix, p1nc_mass(mesh)
    vals, vecs = spla.eigsh(A, k=2, M=sp.diags(mass), sigma=-1e-2,
                            v0=np.linspace(1.0, 2.0, mesh.num_edges))
    q = vecs[:, np.argmax(vals)]
    return mass * (q - (mass @ q) / mass.sum())


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

    @pytest.mark.parametrize("level", [3, 4])
    def test_grounded_solve_is_backward_stable(self, level):
        # the grounded factor leaves the rounding of every row in row 0;
        # the one correction solve spreads it along w, so the backward error
        # stays at the bordered factor's (without it: up to 1.2e-14)
        mesh = unit_square_acute(level)
        A, mass = pressure_stiffness(mesh).matrix, p1nc_mass(mesh)
        solver = pressure_solver(mesh)
        rhs = [_lowest_mode_rhs(mesh)] + [
            _compatible_rhs(mesh, seed)[1] for seed in (1, 2, 3)]
        for b in rhs:
            x, info = solver.solve(b, Tolerance(rtol=1e-13))
            backward = (np.abs(b - A @ x).max()
                        / (spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()))
            assert backward <= 1e-15
            assert info.backward_error == pytest.approx(backward, rel=1e-12)
            assert abs(mass @ x) <= 1e-13 * np.abs(x).max()
        with pytest.raises(SolverError, match="backward error"):
            solver.solve(np.ones(mesh.num_edges), Tolerance(rtol=1e-13))
        # several right-hand sides at once give the columns' solves
        X, info = solver.solve(np.stack(rhs, axis=1), Tolerance(rtol=1e-13))
        assert info.backward_error <= 1e-15
        for c, b in enumerate(rhs):
            x, _ = solver.solve(b, Tolerance(rtol=1e-13))
            assert np.linalg.norm(X[:, c] - x) <= 1e-13 * np.linalg.norm(x)

    def test_plain_factor_reports_backward_error(self):
        mesh = unit_square_acute(1)
        b = np.random.default_rng(5).standard_normal(mesh.num_triangles)
        _, info = h_solver(mesh).solve(b, Tolerance(rtol=1e-13))
        assert 0.0 <= info.backward_error <= 1e-15

    def test_constant_rhs_raises(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        with pytest.raises(SolverError):
            FactoredSolver(A, mass).solve(np.ones(mesh.num_edges), Tolerance())

    def test_gate_is_the_backward_error(self):
        # b = M q for the lowest non-constant pressure mode q: a smooth
        # right-hand side for which |A| |x| is far above |b|, so a
        # backward-stable solve leaves |b - A x| above rtol |b| at the
        # production rtol, and only a backward-error gate accepts it
        mesh = unit_square_acute(3)
        A = pressure_stiffness(mesh).matrix
        b = _lowest_mode_rhs(mesh)
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
        x1, _ = solver.solve(b, Tolerance())
        x2, _ = solver.solve(b, Tolerance())
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
            pressure_solver(mesh).solve(b, Tolerance())

    def test_size_mismatch(self, pressure_system):
        mesh, A, mass, b = pressure_system
        with pytest.raises(ValueError):
            pressure_solver(mesh).solve(b[:-1], Tolerance())
        with pytest.raises(ValueError):
            FactoredSolver(A, mass[:-1])


class TestHFactor:
    """The cached factor of the discrete H1 Gram matrix H (no weights)."""

    def test_factored_once_per_mesh(self):
        mesh = unit_square_acute(1)
        assert h_solver(mesh) is h_solver(mesh)
        assert h_solver(unit_square_acute(1)) is not h_solver(mesh)

    def test_matches_dense_solve(self):
        mesh = unit_square_acute(1)
        H = h_gram(mesh).toarray()
        b = np.random.default_rng(5).standard_normal((mesh.num_triangles, 2))
        x, info = h_solver(mesh).solve(b, Tolerance(rtol=1e-13))
        assert info.converged and x.shape == b.shape
        for c in range(2):
            x_d = np.linalg.solve(H, b[:, c])
            assert np.linalg.norm(x[:, c] - x_d) <= 1e-12 * np.linalg.norm(x_d)
            x1, _ = h_solver(mesh).solve(b[:, c], Tolerance(rtol=1e-13))
            assert np.linalg.norm(x1 - x_d) <= 1e-12 * np.linalg.norm(x_d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        mesh = unit_square_acute(1)
        b = np.ones(mesh.num_triangles)
        b[3] = bad
        with pytest.raises(SolverError):
            h_solver(mesh).solve(b, Tolerance())
