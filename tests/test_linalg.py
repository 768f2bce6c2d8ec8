import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fvproj.fields import ScalarP1NC, mean_zero, p1nc_mass
from fvproj.fields import h_gram
from fvproj import linalg
from fvproj.linalg import (FactoredSolver, LUFactor, SolveInfo, SolverError,
                           SparseOperator, solve)
from fvproj.mesh import equilateral_pair, unit_square_acute
from fvproj.operators import h_solver, pressure_solver, pressure_stiffness
from loop_oracles import zero_mean_solve_dense


def _identity(A):
    """A with no preconditioning."""
    return SparseOperator(A, lambda v: v)


def _diagonal(A):
    """A preconditioned by its diagonal (Jacobi)."""
    A = sp.csr_matrix(A)
    inverse = 1.0 / A.diagonal()
    return SparseOperator(A, lambda v: inverse[:, None] * v)


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
    x, info = solve(_identity(sp.eye(n, format="csr")), b[:, None])
    assert info.converged and info.method == "bicgstab"
    assert np.allclose(x[:, 0], b, atol=1e-12)


def test_zero_rhs_short_circuits():
    x, info = solve(_identity(sp.eye(4, format="csr")), np.zeros((4, 1)))
    assert info.converged and info.iterations == 0
    assert np.all(x == 0)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve(_identity(sp.eye(3, format="csr")), np.ones((4, 1)))
    # the right-hand sides are the columns of a 2-D array
    with pytest.raises(ValueError):
        solve(_identity(sp.eye(3, format="csr")), np.ones(3))


class TestConstrainedSolve:
    def test_cg_matches_dense(self, pressure_system):
        # with weights the solve is the zero-mean factor, whatever the method
        mesh, A, mass, b = pressure_system
        x_cg, info_cg = solve(A, b, zero_mean_weights=mass)
        x_d = zero_mean_solve_dense(A.toarray(), b, mass)
        assert info_cg.converged and info_cg.method == "lu"
        assert np.linalg.norm(x_cg - x_d) <= 1e-8 * np.linalg.norm(x_d)

    def test_weighted_mean_pinned(self, pressure_system):
        mesh, A, mass, b = pressure_system
        x, info = solve(A, b, zero_mean_weights=mass)
        assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)
        x = zero_mean_solve_dense(A.toarray(), b, mass)
        assert abs(mass @ x) <= 1e-13 * max(np.abs(x).max(), 1.0)

    def test_unconstrained_singular_mean_arbitrary(self, pressure_system):
        # without the constraint BiCGStab leaves the kernel component
        # unpinned: the constrained and unconstrained solutions differ by a
        # constant
        mesh, A, mass, b = pressure_system
        x_free, info = solve(_diagonal(A), b[:, None])
        assert info.converged and info.method == "bicgstab"
        x_pin, _ = solve(A, b, zero_mean_weights=mass)
        shift = x_free[:, 0] - x_pin
        assert np.abs(shift - shift.mean()).max() < 1e-7 * max(np.abs(x_pin).max(), 1.0)

    def test_incompatible_rhs_flagged(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        bad = np.ones(mesh.num_edges)  # constant rhs is not in the range
        x, info = solve(_diagonal(A), bad[:, None])
        # BiCGStab stops once its residual diverges, long before its cap of
        # 10 n iterations, and says so; nothing falls back
        assert not info.converged and info.method == "bicgstab"
        assert 0 < info.iterations <= mesh.num_edges // 10
        assert not info.residual <= 1e10 * np.linalg.norm(bad)
        assert info.fallbacks == []


def test_momentum_like_bicgstab():
    mesh = unit_square_acute(1)
    H = h_gram(mesh)
    rng = np.random.default_rng(4)
    n = mesh.num_triangles
    skew = sp.random(n, n, density=0.02, random_state=7, format="csr")
    A = sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)
    b = rng.standard_normal((n, 1))
    x, info = solve(_diagonal(A), b)
    assert info.converged
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("factor", [1e160, 1e300])
def test_huge_rhs_meets_the_gate(factor):
    # past |b| ~ 1e154 sqrt(b . b) reads inf: the gate then passed at once
    # and the guess came back unsolved.  At 1e300 the norm of the two
    # columns' residuals, each about 1e287, overflows too
    mesh = unit_square_acute(1)
    A = (h_gram(mesh) + 100 * sp.eye(mesh.num_triangles)).tocsr()
    B = np.random.default_rng(3).standard_normal((mesh.num_triangles, 2))
    X, info = solve(_diagonal(A), factor * B)
    assert info.converged and np.isfinite(info.residual)
    for c, col in enumerate(info.columns):
        r = (factor * B[:, c] - A @ X[:, c]) / factor
        assert col.iterations > 0
        assert np.linalg.norm(r) <= linalg.BICGSTAB_RTOL * np.linalg.norm(B[:, c])


def test_breakdown_ends_unconverged_without_warning():
    # with r0 = b the first direction v = A p is orthogonal to r0, so
    # alpha = rho / (r0 . v) would divide by zero
    import warnings
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, info = solve(_identity(A), np.array([[1.0], [0.0]]))
    assert not info.converged
    assert np.isfinite(info.residual) and np.all(np.isfinite(x))


class TestFactorPreconditioner:
    """``solve`` uses the preconditioner a SparseOperator carries."""

    @pytest.fixture(scope="class")
    def system(self):
        mesh = unit_square_acute(2)
        H = h_gram(mesh)
        n = mesh.num_triangles
        skew = sp.random(n, n, density=0.01, random_state=7, format="csr")
        A = (sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)).tocsr()
        return A, np.random.default_rng(4).standard_normal((n, 1))

    def test_exact_factor_converges_at_once(self, system):
        A, b = system
        op = SparseOperator(A, LUFactor(A).apply)
        x, info = solve(op, b)
        _, jacobi = solve(_diagonal(A), b)
        assert info.converged and info.iterations <= 2 < jacobi.iterations
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    def test_lagged_factor_still_meets_the_gate(self, system):
        # a factor of a different matrix is only a preconditioner: the
        # result is still certified on the true residual of A
        A, b = system
        lagged = LUFactor(A + sp.diags(np.full(A.shape[0], 0.5))).apply
        x, info = solve(SparseOperator(A, lagged), b)
        assert info.converged and info.iterations > 2
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


class TestBlockSolve:
    """Several right-hand sides in one lockstep BiCGStab: each column keeps
    its own scalars, gate, cap and restarts, so its iterates are those of
    its own solve."""

    @pytest.fixture(scope="class")
    def system(self):
        mesh = unit_square_acute(2)
        H = h_gram(mesh)
        n = mesh.num_triangles
        skew = sp.random(n, n, density=0.01, random_state=7, format="csr")
        A = (sp.diags(np.full(n, 2.0)) + 0.01 * H + 0.05 * (skew - skew.T)).tocsr()
        lagged = LUFactor(A + sp.diags(np.full(n, 0.5))).apply
        return A, lagged, np.random.default_rng(4).standard_normal((n, 2))

    @staticmethod
    def _check_columns(op, B, X, info, maxiter=None):
        """Each column against its own single-column solve."""
        assert X.shape == B.shape and len(info.columns) == B.shape[1]
        assert info.iterations == sum(c.iterations for c in info.columns)
        assert info.converged == all(c.converged for c in info.columns)
        for c, col in enumerate(info.columns):
            x, single = solve(op, B[:, c:c + 1], maxiter)
            assert (col.iterations, col.converged) == (single.iterations, single.converged)
            x = x[:, 0]
            assert np.linalg.norm(X[:, c] - x) <= 1e-14 * max(np.linalg.norm(x), 1e-300)

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_equals_single_column_solves(self, system, preconditioned):
        # preconditioned by the lagged factor or by the diagonal
        A, lagged, B = system
        op = SparseOperator(A, lagged) if preconditioned else _diagonal(A)
        X, info = solve(op, B)
        assert info.converged and info.method == "bicgstab"
        assert min(c.iterations for c in info.columns) > 2
        self._check_columns(op, B, X, info)

    def test_one_preconditioner_call_serves_both_columns(self, system):
        A, lagged, B = system
        shapes = []

        def recording(v):
            shapes.append(v.shape)
            return lagged(v)

        op = SparseOperator(A, recording)
        _, info = solve(op, B)
        assert info.converged and shapes[0] == B.shape
        assert all(s[0] == B.shape[0] and s[1] in (1, 2) for s in shapes)
        # two calls per iteration of the slower column, at most
        assert len(shapes) <= 2 * max(c.iterations for c in info.columns)

    def test_zero_column(self, system):
        A, lagged, B = system
        B = B.copy()
        B[:, 0] = 0.0
        op = SparseOperator(A, lagged)
        X, info = solve(op, B)
        assert info.converged and np.all(X[:, 0] == 0.0)
        assert (info.columns[0].iterations, info.columns[0].residual) == (0, 0.0)
        self._check_columns(op, B, X, info)

    def test_each_column_meets_its_own_gate(self, system):
        # norms 1e8 apart: a shared gate would stop the small column early
        A, lagged, B = system
        B = B * np.array([1.0, 1e8])
        op = SparseOperator(A, lagged)
        X, info = solve(op, B)
        assert info.converged
        for c in range(2):
            assert (np.linalg.norm(B[:, c] - A @ X[:, c])
                    <= linalg.BICGSTAB_RTOL * np.linalg.norm(B[:, c]))
        self._check_columns(op, B, X, info)

    def test_breakdown_in_one_column(self):
        # column 0 breaks down at once (see the single-column test below);
        # column 1 converges in one iteration, untouched by it
        import warnings
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        B = np.array([[1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, info = solve(_identity(A), B)
        assert not info.converged and np.all(np.isfinite(X))
        assert not info.columns[0].converged and info.columns[1].converged
        assert np.allclose(X[:, 1], [1.0, 1.0], atol=1e-14)
        self._check_columns(_identity(A), B, X, info)

    def test_iteration_cap_per_column(self, system):
        A, lagged, B = system
        op = SparseOperator(A, lagged)
        X, info = solve(op, B, 2)
        assert not info.converged
        assert [c.iterations for c in info.columns] == [2, 2]
        self._check_columns(op, B, X, info, 2)


def test_deterministic_repeat(pressure_system):
    mesh, A, mass, b = pressure_system
    x1, _ = solve(A, b, zero_mean_weights=mass)
    x2, _ = solve(A, b, zero_mean_weights=mass)
    assert np.array_equal(x1, x2)


class TestSparseOperator:
    def test_duplicate_entries_summed(self):
        m = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
        op = SparseOperator(m, None)
        assert op.matrix[0, 1] == 3.0
        assert np.allclose(op.matrix @ np.array([1.0, 1.0]), [3.0, 0.0])

    def test_solve_info_str(self):
        info = SolveInfo(True, 5, 1e-12, "bicgstab")
        assert "bicgstab" in str(info)


# the two solve paths: BiCGStab, and a factored solve (here the plain factor)
_SOLVES = {
    "bicgstab": lambda A, b: solve(_identity(A), b[:, None]),
    "lu": lambda A, b: FactoredSolver(A).solve(b),
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
    A, mass = pressure_stiffness(mesh), p1nc_mass(mesh)
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
        x, info = pressure_solver(mesh).solve(b)
        x_d = zero_mean_solve_dense(A.toarray(), b, mass)
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
        A, mass = pressure_stiffness(mesh), p1nc_mass(mesh)
        solver = pressure_solver(mesh)
        rhs = [_lowest_mode_rhs(mesh)] + [
            _compatible_rhs(mesh, seed)[1] for seed in (1, 2, 3)]
        for b in rhs:
            x, info = solver.solve(b)
            backward = (np.abs(b - A @ x).max()
                        / (spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()))
            assert backward <= 1e-15
            assert info.backward_error == pytest.approx(backward, rel=1e-12)
            assert abs(mass @ x) <= 1e-13 * np.abs(x).max()
        with pytest.raises(SolverError, match="backward error"):
            solver.solve(np.ones(mesh.num_edges))
        # several right-hand sides at once give the columns' solves
        X, info = solver.solve(np.stack(rhs, axis=1))
        assert info.backward_error <= 1e-15
        for c, b in enumerate(rhs):
            x, _ = solver.solve(b)
            assert np.linalg.norm(X[:, c] - x) <= 1e-13 * np.linalg.norm(x)

    def test_plain_factor_reports_backward_error(self):
        mesh = unit_square_acute(1)
        b = np.random.default_rng(5).standard_normal(mesh.num_triangles)
        _, info = h_solver(mesh).solve(b)
        assert 0.0 <= info.backward_error <= 1e-15

    def test_constant_rhs_raises(self, pressure_system):
        mesh, A, mass, _ = pressure_system
        with pytest.raises(SolverError):
            FactoredSolver(A, mass).solve(np.ones(mesh.num_edges))

    def test_gate_is_the_backward_error(self):
        # b = M q for the lowest non-constant pressure mode q: a smooth
        # right-hand side for which |A| |x| is far above |b|, so a
        # backward-stable solve leaves |b - A x| above rtol |b| at the
        # production rtol, and only a backward-error gate accepts it
        mesh = unit_square_acute(3)
        A = pressure_stiffness(mesh)
        b = _lowest_mode_rhs(mesh)
        solver, rtol = pressure_solver(mesh), linalg.FACTORED_RTOL
        x, info = solver.solve(b)
        r = b - A @ x
        assert info.converged
        assert np.linalg.norm(r) > rtol * np.linalg.norm(b)
        scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()
        assert np.abs(r).max() <= rtol * scale
        # an incompatible right-hand side is still rejected: its backward
        # error is of the size of its mean
        with pytest.raises(SolverError, match="backward error"):
            solver.solve(np.ones(mesh.num_edges))

    def test_tiny_incompatible_rhs_raises(self):
        # the gate has no absolute floor: a constant right-hand side of
        # 1e-20, far outside the range, fails it as one of 1 does (with a
        # floor of 1e-14 both calls below returned converged=True)
        mesh = unit_square_acute(2)
        A, mass = pressure_stiffness(mesh), p1nc_mass(mesh)
        b = 1e-20 * np.ones(mesh.num_edges)
        with pytest.raises(SolverError, match="backward error"):
            pressure_solver(mesh).solve(b)
        with pytest.raises(SolverError, match="backward error"):
            solve(A, b, None, zero_mean_weights=mass)
        # a zero right-hand side still passes: r = 0
        x, info = pressure_solver(mesh).solve(np.zeros(mesh.num_edges))
        assert info.converged and info.backward_error == 0.0 and not x.any()

    def test_repeat_is_bit_identical(self, pressure_system):
        mesh, A, mass, b = pressure_system
        solver = pressure_solver(mesh)
        x1, _ = solver.solve(b)
        x2, _ = solver.solve(b)
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
            pressure_solver(mesh).solve(b)

    def test_size_mismatch(self, pressure_system):
        mesh, A, mass, b = pressure_system
        with pytest.raises(ValueError):
            pressure_solver(mesh).solve(b[:-1])
        with pytest.raises(ValueError):
            FactoredSolver(A, mass[:-1])


def test_run_and_verify_share_one_factored_gate(monkeypatch):
    # the one constant gates every factored solve: the run's projections,
    # the verification suite's and the dual norm's H1 solve
    from fvproj import analysis, scheme
    from fvproj.fields import VectorP0
    from fvproj.operators import dual_norm
    monkeypatch.setattr(linalg, "FACTORED_RTOL", 1e-30)
    mesh = unit_square_acute(0)
    with pytest.raises(SolverError, match="^initial projection: .*backward error"):
        scheme.initialize(scheme.RunConfig(mesh_spec="acute:0"), mesh)
    with pytest.raises(SolverError,
                       match="^projection identities level 0: .*backward error"):
        analysis.check_identities(unit_square_acute(0))
    v = VectorP0(mesh, np.random.default_rng(1).standard_normal((mesh.num_triangles, 2)))
    with pytest.raises(SolverError, match="^dual norm: .*backward error"):
        dual_norm(v)


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
        x, info = h_solver(mesh).solve(b)
        assert info.converged and x.shape == b.shape
        for c in range(2):
            x_d = np.linalg.solve(H, b[:, c])
            assert np.linalg.norm(x[:, c] - x_d) <= 1e-12 * np.linalg.norm(x_d)
            x1, _ = h_solver(mesh).solve(b[:, c])
            assert np.linalg.norm(x1 - x_d) <= 1e-12 * np.linalg.norm(x_d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        mesh = unit_square_acute(1)
        b = np.ones(mesh.num_triangles)
        b[3] = bad
        with pytest.raises(SolverError):
            h_solver(mesh).solve(b)


class TestStartingGuess:
    """``solve`` starts each column from ``SparseOperator.guess``; the gate
    stays rtol |b| whatever the guess."""

    @pytest.fixture(scope="class")
    def system(self):
        mesh = unit_square_acute(2)
        n = mesh.num_triangles
        skew = sp.random(n, n, density=0.01, random_state=7, format="csr")
        A = (sp.diags(np.full(n, 2.0)) + 0.01 * h_gram(mesh)
             + 0.05 * (skew - skew.T)).tocsr()
        lagged = LUFactor(A + sp.diags(np.full(n, 0.5))).apply
        X = np.random.default_rng(4).standard_normal((n, 2))
        return A, lagged, X, A @ X

    def test_exact_guess_takes_no_iteration(self, system):
        A, lagged, X, B = system
        x, info = solve(SparseOperator(A, lagged, X), B)
        assert info.converged and info.iterations == 0
        assert np.array_equal(x, X)

    def test_poor_guess_meets_the_gate(self, system):
        A, lagged, X, B = system
        guess = 1e3 * np.random.default_rng(5).standard_normal(B.shape)
        x, info = solve(SparseOperator(A, lagged, guess), B)
        assert info.converged and info.iterations > 0
        for c in range(2):
            assert (np.linalg.norm(B[:, c] - A @ x[:, c])
                    <= linalg.BICGSTAB_RTOL * np.linalg.norm(B[:, c]))

    def test_zero_column_from_a_nonzero_guess(self, system):
        # |b| = 0 cannot scale the divergence guard: the guess's residual does
        A, lagged, X, B = system
        b = B.copy()
        b[:, 0] = 0.0
        x, info = solve(SparseOperator(A, lagged, 1e-6 * X), b)
        assert info.converged and info.columns[0].iterations > 0
        assert np.linalg.norm(A @ x[:, 0]) <= linalg.BICGSTAB_ATOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_guess_rejected_before_iterating(self, system, bad):
        A, lagged, X, B = system
        calls = []

        def recording(v):
            calls.append(v.shape)
            return lagged(v)

        guess = X.copy()
        guess[3, 1] = bad
        with pytest.raises(SolverError, match="starting guess"):
            solve(SparseOperator(A, recording, guess), B)
        assert calls == []

    def test_guess_shape_checked(self, system):
        A, lagged, X, B = system
        with pytest.raises(ValueError):
            solve(SparseOperator(A, lagged, X[:, :1]), B)

    def test_extrapolated_predictor_saves_work(self, monkeypatch):
        # the momentum system of step 22 of an acute:2 run, solved from the
        # scheme's guess (the extrapolated predictor), from u* and from
        # zero, with the same preconditioner
        from fvproj import scheme
        systems = []

        def recording_solve(A, b, maxiter=None, **kwargs):
            systems.append((A, b, maxiter))
            return solve(A, b, maxiter, **kwargs)

        cfg = scheme.RunConfig(mesh_spec="acute:2", k=1e-2, n_steps=3)
        state, _, ws = scheme.initialize(cfg, unit_square_acute(2))
        for _ in range(20):
            state, _ = scheme.advance(state, cfg, ws)
        monkeypatch.setattr(scheme, "solve", recording_solve)
        scheme.advance(state, cfg, ws)
        (A, b, maxiter), = systems
        assert len(state.predictors) == len(scheme.GUESS_WEIGHTS)
        assert np.array_equal(A.guess, sum(
            w * v for w, v in zip(scheme.GUESS_WEIGHTS, state.predictors)))

        def counted(guess):
            calls = []

            def precondition(v):
                calls.append(v.shape)
                return A.preconditioner(v)

            _, info = solve(SparseOperator(A.matrix, precondition, guess), b, maxiter)
            assert info.converged
            return info.iterations, len(calls)

        u_star = 2.0 * state.u_curr.values - state.u_prev.values
        (warm, warm_calls), (star, star_calls), (cold, _) = (
            counted(A.guess), counted(u_star), counted(None))
        assert warm <= star < cold and warm_calls < star_calls


class TestFactorStorage:
    """Every SuperLU factor has unrelaxed supernodes: it stores the entries
    of its triangles and no explicit zeros of padding.  The pressure factor
    keeps the Cholesky factor R = D^{-1/2} U of the grounded block alone, as
    a SuperLU object with L = I."""

    @staticmethod
    def _momentum_factor(mesh):
        from fvproj import scheme
        return scheme.initialize(scheme.RunConfig(), mesh)[2].mom_factor

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("which", ["pressure", "h", "momentum"])
    def test_no_padded_entries(self, level, which):
        mesh = unit_square_acute(level)
        factor = {"pressure": pressure_solver, "h": h_solver,
                  "momentum": self._momentum_factor}[which](mesh)
        lu = factor._cholesky if which == "pressure" else factor._lu
        assert factor.nnz == lu.nnz == lu.L.nnz + lu.U.nnz

    @pytest.mark.parametrize("level", [2, 3])
    def test_pressure_factor_stores_one_triangle(self, level):
        # nnz(U) + n entries (L = I), with the fill of the full LU's U
        mesh = unit_square_acute(level)
        factor, n = pressure_solver(mesh), mesh.num_edges - 1
        upper = factor._cholesky
        assert factor.nnz == upper.U.nnz + n
        assert upper.L.nnz == n
        assert np.array_equal(upper.perm_r, np.arange(n))
        full = spla.splu(pressure_stiffness(mesh)[1:, 1:].tocsc(),
                         permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1,
                         options={"SymmetricMode": True})
        assert upper.U.nnz == full.U.nnz == full.L.nnz
        assert 2 * upper.nnz == full.nnz + 2 * n

    def test_full_lu_does_not_outlive_the_build(self):
        # the full LU's perm_c is a view of it: an array the pressure
        # factor kept from it would keep all of it alive.  The one SuperLU
        # object it keeps, directly or under an array, is the factor of U
        factor = pressure_solver(unit_square_acute(2))
        superlu = type(factor._cholesky)
        for name, value in vars(factor).items():
            while isinstance(value, np.ndarray):
                value = value.base
            assert not isinstance(value, superlu) or value is factor._cholesky, name

    @pytest.mark.parametrize("build", [pressure_solver, h_solver])
    def test_factored_solver_has_no_ungated_apply(self, build):
        # a preconditioner is an LUFactor; a FactoredSolver solves only
        # through its backward-error gate
        factor = build(unit_square_acute(1))
        assert not isinstance(factor, LUFactor)
        assert not hasattr(factor, "apply")

    def test_reports_its_build(self):
        mesh = unit_square_acute(1)
        factor = FactoredSolver(h_gram(mesh))
        assert factor.nnz == factor._lu.nnz > mesh.num_triangles
        assert 0.0 < factor.build_s < 10.0

    def test_singular_matrix_raises_solver_error(self):
        with pytest.raises(SolverError, match="^named: SuperLU: .*singular"):
            FactoredSolver(sp.csr_matrix(np.ones((2, 2))), name="named")

    def test_pressure_factor_keeps_no_scaling_arrays(self):
        # D lives only inside the Cholesky factor R = D^{-1/2} U, and the
        # zero-mean shift divides by the one weight sum: the one float
        # array kept beside the factor is the caller's weights
        mesh = unit_square_acute(2)
        factor = pressure_solver(mesh)
        floats = [name for name, value in vars(factor).items()
                  if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
        assert floats == ["weights"] and factor.weights is p1nc_mass(mesh)
        upper = factor._cholesky.U
        R = spla.splu(pressure_stiffness(mesh)[1:, 1:].tocsc(),
                      permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1,
                      options={"SymmetricMode": True, "DiagPivotThresh": 0.0}).U
        R = sp.diags(1.0 / np.sqrt(R.diagonal())) @ R
        assert abs(upper - R).max() <= 1e-14 * abs(R).max()

    def test_indefinite_matrix_raises_solver_error(self):
        # symmetric, the constants in its kernel, and its grounded block
        # [[-1, 2], [2, -2]] nonsingular: its pivots are not zero, but one
        # is negative
        A = np.array([[1.0, -1.0, 0.0], [-1.0, -1.0, 2.0], [0.0, 2.0, -2.0]])
        with pytest.raises(SolverError, match="^named: non-positive pivot .*"
                                              "not positive definite"):
            FactoredSolver(A, np.ones(3), name="named")

    def test_zero_diagonal_pivot_raises_solver_error(self):
        # the grounded block [[0, 1], [1, 0]] is nonsingular but indefinite,
        # so SuperLU must leave its diagonal
        A = np.array([[2.0, -1.0, -1.0], [-1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(SolverError, match="^named: zero diagonal pivot"):
            FactoredSolver(A, np.ones(3), name="named")

    def test_one_call_site(self):
        # every factor goes through FactoredSolver, so every one gets its
        # SuperLU settings
        from pathlib import Path
        import fvproj
        sites = {path.name: path.read_text().count("splu(")
                 for path in Path(fvproj.__file__).parent.glob("*.py")}
        assert {name: n for name, n in sites.items() if n} == {"linalg.py": 1}
