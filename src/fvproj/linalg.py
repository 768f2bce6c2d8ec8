"""Sparse linear algebra: the two solves the scheme needs.

``solve`` runs BiCGStab on the nonsymmetric momentum system, all
right-hand sides (the two velocity components) in one lockstep solve,
preconditioned by and started from what its ``SparseOperator`` carries
(the scheme passes a lagged factor and the extrapolated predictor).
``FactoredSolver`` factors a fixed matrix once with SuperLU, so each later
solve with it is two triangular solves (four for a zero-mean solve, which
refines once): the pressure Laplacian on its zero-mean subspace, grounded
at one unknown; and the discrete H1 Gram matrix of the dual norm and the
verification suite.  ``LUFactor`` is such a factor alone, without its
matrix or a gate: the preconditioner's factor of the momentum matrix.

Each solver has one gate, the module constants below, and no caller
passes a tolerance: a BiCGStab caller varies only the iteration cap.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


class SparseOperator:
    """A CSR matrix, the preconditioner ``solve`` applies to it (a callable
    v -> P^{-1} v with P close to the matrix, for v of shape (n, m)), and
    the guess ``solve`` starts from (None: zero)."""

    __slots__ = ("matrix", "preconditioner", "guess")

    def __init__(self, matrix, preconditioner, guess=None):
        self.matrix = sp.csr_matrix(matrix)
        self.preconditioner = preconditioner
        self.guess = guess


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    residual: float
    method: str
    # "second projection" when ``leray_project`` projected twice; else empty
    fallbacks: list = field(default_factory=list)
    # normwise backward error of a factored solve (the largest over columns)
    backward_error: float | None = None
    # one SolveInfo per column of a BiCGStab solve, whose ``iterations`` is
    # their sum; empty for a column's own SolveInfo and a factored solve
    columns: tuple = ()

    def __str__(self):
        return (f"{self.method}: converged={self.converged} "
                f"iters={self.iterations} residual={self.residual:.3e}")


# The one gate of each solver, read at call time.  BiCGStab (the momentum
# solve): |b - A x| <= max(BICGSTAB_RTOL |b|, BICGSTAB_ATOL) per column.
# A factored solve (the pressure and H1 Gram solves, in a run and in the
# verification suite): normwise backward error <= FACTORED_RTOL, no floor.
BICGSTAB_RTOL = 1e-12
BICGSTAB_ATOL = 1e-14
FACTORED_RTOL = 1e-13

# BiCGStab iteration cap, per unknown
_MAXITER_PER_UNKNOWN = 10
# BiCGStab gives up once its residual exceeds this multiple of max(|b|, |b - A x0|)
_DIVERGENCE_FACTOR = 1e10


def _require_finite(b, what="right-hand side"):
    if not np.all(np.isfinite(b)):
        raise SolverError(f"{what} has NaN or Inf entries")


def _bicgstab_column(A, b, x, maxiter: int):
    """Right-preconditioned BiCGStab for one right-hand side from the guess
    x, with up to two restarts so the true residual, not the recursion,
    meets max(BICGSTAB_RTOL |b|, BICGSTAB_ATOL) whatever the guess.  A
    residual that is not finite or exceeds _DIVERGENCE_FACTOR max(|b|, the
    guess's residual) ends the solve as not converged.

    A column with max|b| >= 1 iterates on b, x and the floors scaled by the
    power of two 2^-e that brings max|b| into [1/2, 1) (``np.frexp``), so
    that |b| = sqrt(b . b) cannot overflow (past |b| ~ 1e154 it read inf,
    and the gate passed at once); x and the residual are scaled back on
    return.  A power of two scales exactly, so every iterate equals the
    unscaled one wherever that is finite.  A smaller column is not scaled
    (nor copied): its |b| cannot overflow, and scaling a tiny b up would
    carry the guess and the floors past the largest float.

    A generator: it yields each vector v to precondition and is sent back
    P^{-1} v, so that ``_bicgstab`` serves several columns with one
    preconditioner call; it returns (x, SolveInfo)."""
    e = max(int(np.frexp(max(b.max(), -b.min()))[1]), 0)
    if e:
        b, x = np.ldexp(b, -e), np.ldexp(x, -e)
    b_norm = math.sqrt(b @ b)
    tol = max(BICGSTAB_RTOL * b_norm, math.ldexp(BICGSTAB_ATOL, -e))
    r = b - A @ x
    res = math.sqrt(r @ r)
    scale = max(b_norm, res, math.ldexp(1e-300, -e))
    diverged = lambda res: not res <= _DIVERGENCE_FACTOR * scale
    it = 0
    for _ in range(3):
        if res <= tol or it >= maxiter:
            break
        r0 = r
        rho = alpha = omega = 1.0
        v = p = np.zeros_like(b)  # so that the first direction is p = r
        while res > tol and it < maxiter:
            rho_new = r0 @ r
            if abs(rho_new) < 1e-30 * scale * scale:
                break  # breakdown
            p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
            phat = yield p
            v = A @ phat
            r0v = r0 @ v
            if abs(r0v) < 1e-30 * scale * scale:
                break  # breakdown
            alpha = rho_new / r0v
            s = r - alpha * v
            if math.sqrt(s @ s) <= tol:
                x = x + alpha * phat
                it += 1
                break
            shat = yield s
            t = A @ shat
            tt = t @ t
            if tt == 0.0:
                break
            omega = (t @ s) / tt
            x = x + alpha * phat + omega * shat
            r = s - omega * t
            rho = rho_new
            res = math.sqrt(r @ r)
            it += 1
            if diverged(res):
                break
        r = b - A @ x
        res = math.sqrt(r @ r)
        if diverged(res):
            break
    info = SolveInfo(res <= tol, it, float(np.ldexp(res, e)), "bicgstab")
    return (np.ldexp(x, e) if e else x), info


def _bicgstab(A, B, X0, maxiter, precondition):
    """BiCGStab on the m rows of B (m, n) in lockstep from the rows of X0:
    each row runs its own ``_bicgstab_column`` (its own scalars, breakdown
    and divergence guards, true-residual gate, iteration cap and restarts,
    so its iterates are those of a solve of that row alone).  The k rows
    still running each request one vector per half-step; one ``precondition``
    call on their stack, transposed to (n, k) in Fortran order as SuperLU
    takes it, serves them all.  Returns (X, one SolveInfo per row)."""
    if maxiter is None:
        maxiter = _MAXITER_PER_UNKNOWN * B.shape[1]
    columns = [_bicgstab_column(A, b, x, maxiter) for b, x in zip(B, X0)]
    results = [None] * len(columns)
    requests = {}

    def resume(j, value):
        try:
            requests[j] = columns[j].send(value)
        except StopIteration as done:
            results[j] = done.value

    for j in range(len(columns)):
        resume(j, None)
    while requests:
        rows = list(requests)
        block = precondition(np.array([requests.pop(j) for j in rows]).T)
        for i, j in enumerate(rows):
            resume(j, block[:, i])
    return np.array([x for x, _ in results]), [info for _, info in results]


def solve(A, b, maxiter: int | None = None, zero_mean_weights=None):
    """Solve A x = b for the m right-hand sides of b (n, m) by BiCGStab,
    capped at ``maxiter`` (None: 10 n) iterations per column,
    preconditioned by ``A.preconditioner`` and started from ``A.guess`` (A
    a SparseOperator; a NaN or Inf guess raises SolverError); it iterates
    on the rows of b.T and of the guess's transpose, which are views when
    the caller builds both as (m, n) C-ordered arrays.  Returns
    (x, SolveInfo), and the caller judges ``SolveInfo.converged`` (all
    columns converged; ``iterations`` is their sum and ``columns`` holds
    each one's SolveInfo).  With ``zero_mean_weights`` (the diagonal mass
    of the pressure space), returns the solution of zero weighted mean from
    a ``FactoredSolver`` of the matrix A, which ignores ``maxiter`` and
    raises SolverError on failure."""
    if zero_mean_weights is not None:
        return FactoredSolver(A, zero_mean_weights).solve(b)
    b = np.asarray(b, dtype=float)
    x0 = np.zeros_like(b) if A.guess is None else np.asarray(A.guess, dtype=float)
    n = b.shape[0]
    if b.ndim != 2 or A.matrix.shape != (n, n) or x0.shape != b.shape:
        raise ValueError(f"matrix shape {A.matrix.shape} or guess shape {x0.shape} "
                         f"does not match rhs of shape {b.shape}")
    _require_finite(b)
    _require_finite(x0, "starting guess")
    x, infos = _bicgstab(A.matrix, np.ascontiguousarray(b.T),
                         np.ascontiguousarray(x0.T), maxiter, A.preconditioner)
    info = SolveInfo(all(c.converged for c in infos),
                     sum(c.iterations for c in infos),
                     math.hypot(*(c.residual for c in infos)),
                     "bicgstab", columns=tuple(infos))
    return np.ascontiguousarray(x.T), info


def _superlu(M, permc_spec: str, name: str, **options):
    """SuperLU's factor of the CSC matrix M with unrelaxed supernodes and
    one-column panels; raises SolverError, naming ``name``, if SuperLU
    fails (a factor that is exactly singular)."""
    try:
        return spla.splu(M, permc_spec=permc_spec, relax=1, panel_size=1,
                         options=options)
    except RuntimeError as exc:
        raise SolverError(f"{name}: SuperLU: {exc}") from None


def _lu(A, name: str):
    """SuperLU's LU of a nonsingular A, ordered and pivoted as ``LUFactor`` says."""
    return _superlu(sp.csc_matrix(A), "MMD_AT_PLUS_A", name, SymmetricMode=True)


def _cholesky_factor(A, name: str):
    """(SuperLU of R, p) for the grounded block M = A[1:, 1:] of a CSR
    matrix A, M symmetric positive definite: M[i, j] = (R^T R)[p[i], p[j]]
    with R = D^{-1/2} U, from SuperLU's LU of M with diagonal pivots only,
    U its upper triangle and D = diag(U).  A pivot that is not positive
    raises SolverError naming ``name``.  The SuperLU object of R has L = I,
    so it stores nnz(U) + n entries; M and the full LU of M die here,
    before the second pass would sit on top of them (``perm_c`` is a view
    of the LU, so p is a copy)."""
    M = A[1:, 1:].tocsc()
    lu = _superlu(M, "MMD_AT_PLUS_A", name, SymmetricMode=True, DiagPivotThresh=0.0)
    del M
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"{name}: zero diagonal pivot: the matrix is not "
                          "positive definite")
    R, perm = lu.U, lu.perm_c.copy()
    del lu
    pivots = R.diagonal()
    if not np.all(pivots > 0):
        raise SolverError(f"{name}: non-positive pivot {pivots.min():.3e}: the "
                          "matrix is not positive definite")
    R.data /= np.sqrt(pivots)[R.indices]  # its rows, in place
    return _superlu(R, "NATURAL", name, DiagPivotThresh=0.0), perm


class LUFactor:
    """SuperLU's factor of a nonsingular matrix A, with a minimum-degree
    ordering of its symmetric pattern (the default COLAMD ordering fills
    about twice as much on the pressure Laplacian) and diagonal pivots
    preferred, kept without A.  That suits the symmetric H1 matrix and the
    nonsymmetric momentum matrix, which is structurally symmetric and
    column diagonally dominant (SuperLU keeps its diagonal pivots on
    acute:3 and acute:5).  ``apply`` is the two triangular solves alone,
    with no gate: an approximate inverse for a preconditioner, the lagged
    momentum factor.

    Supernodes are not relaxed and panels are one column wide (SuperLU's
    ``relax`` and ``panel_size``; Demmel, Eisenstat, Gilbert, Li and Liu,
    SIAM J. Matrix Anal. Appl. 20(3), 1999).  On these 2D mesh matrices,
    about 35 entries per row of L + U, the defaults (relax 10, wide panels)
    pad small supernodes with explicit zeros and gain nothing from wide
    panels: at acute:5 the momentum factor stores 980,742 entries against
    nnz(L) + nnz(U) = 895,402 and builds in 62-74 ms against 40-52 ms,
    with the same solve times and backward errors.  ``nnz`` is the entries
    the factor stores and ``build_s`` the wall time of its build; ``name``
    names the matrix in a SolverError when SuperLU finds it singular.
    """

    def __init__(self, A, name: str = "LUFactor"):
        start = time.perf_counter()
        self._lu = _lu(A, name)
        self.nnz = self._lu.nnz
        self.build_s = time.perf_counter() - start

    def apply(self, b):
        return self._lu.solve(b)


class FactoredSolver:
    """Direct solver of A x = b for a fixed A, factored once with the ordering
    and pivots of ``LUFactor`` and kept for the gate.  Without weights A
    must be nonsingular and its factor is the LU of A (held, not inherited:
    there is no ungated ``apply``).  With weights w, A is symmetric positive
    semidefinite with the constants as kernel, and the solve is on the
    subspace w . x = 0.  Unknown 0 is grounded: the factor is of A with its
    row and column 0 deleted (Bochev and Lehoucq, SIAM Review 47(1), 2005),
    which keeps the sparsity that a dense border [[A, w], [w', 0]] would
    spoil.  That block is positive definite, so SuperLU factors it with
    diagonal pivots only, U = D L^T, and the factor keeps the Cholesky
    factor R = D^{-1/2} U alone, its rows scaled in place (George and Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981):
    A_00^{-1} = P R^{-1} R^{-T} P^T is a transposed and a plain solve with
    the SuperLU object of R, and D is held only inside R.  At acute:5 that
    stores 760,542 entries against the LU's 1,440,830, solves about 15%
    faster and builds 60-100 ms slower (a second SuperLU pass, over R).
    scipy's ``SuperLU.U`` builds and caches L's CSC too, so while U is
    taken out the full LU and both triangles are alive together: that
    moment, or the end of the time loop, sets the peak memory of an acute:5
    run.  A solve takes x0 = [0; A_00^{-1} b_0], shifts it to zero weighted
    mean, and refines it once (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 12) by the same solve of r - w sum(r) / sum(w), r = b -
    A x0: the grounded solve leaves the rounding of every row in row 0, and
    the correction spreads it along w.  An incompatible right-hand side
    (sum b != 0) keeps its sum in row 0 and fails the gate.

    Each solve is gated, column by column, on its normwise backward error
    |b - A x| <= FACTORED_RTOL (|A| |x| + |b|) in the infinity norm
    (Rigal and Gaches, J. ACM 14(3), 1967; Higham, section 7.1), which a
    backward-stable factor meets however large |A| |x| / |b| grows on fine
    meshes.  There is no absolute floor, so a tiny right-hand side is held
    to the same relative bound (a zero one passes: r = 0).
    """

    def __init__(self, A, weights=None, name: str = "FactoredSolver"):
        A = sp.csr_matrix(A)
        n = A.shape[0]
        w = None if weights is None else np.asarray(weights, dtype=float)
        if A.shape != (n, n) or (w is not None and w.shape != (n,)):
            raise ValueError("need a square matrix and one weight per unknown")
        self.matrix = A
        self.weights = w
        self._weight_sum = None if w is None else float(w.sum())
        self.norm_inf = float(spla.norm(A, np.inf))
        start = time.perf_counter()
        if w is None:
            self._lu = _lu(A, name)
            self.nnz = self._lu.nnz
        else:
            self._cholesky, self._perm = _cholesky_factor(A, name)
            self.nnz = self._cholesky.nnz
        self.build_s = time.perf_counter() - start

    def _grounded(self, b):
        """[0; A_00^{-1} b_0] shifted to zero weighted mean."""
        c = np.empty_like(b[1:])
        c[self._perm] = b[1:]
        y = self._cholesky.solve(c, trans="T")
        x = np.zeros_like(b)
        x[1:] = self._cholesky.solve(y)[self._perm]
        x -= (self.weights @ x) / self._weight_sum
        return x

    def gate(self, x, b, r):
        """(x's residual r for b meets the gate in each column, largest backward error)."""
        r_inf = np.abs(r).max(axis=0)
        scale = self.norm_inf * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
        return (bool(np.all(r_inf <= FACTORED_RTOL * scale)),
                float(np.max(r_inf / np.maximum(scale, 1e-300))))

    def solve(self, b, where: str = "FactoredSolver"):
        """Solve for one right-hand side (n,) or several (n, m).  Returns
        (x, SolveInfo) with the 2-norm of the true residual and the largest
        normwise backward error; raises SolverError, naming ``where``, when
        the backward-error gate fails."""
        b = np.asarray(b, dtype=float)
        n = self.matrix.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"rhs of shape {b.shape} does not match a system of size {n}")
        _require_finite(b)
        if self.weights is None:
            x = self._lu.solve(b)
        else:
            x = self._grounded(b)
            r = b - self.matrix @ x
            r -= np.multiply.outer(self.weights, r.sum(axis=0) / self._weight_sum)
            x += self._grounded(r)
        r = b - self.matrix @ x
        passed, backward = self.gate(x, b, r)
        info = SolveInfo(passed, 1 if self.weights is None else 2,
                         float(np.linalg.norm(r)), "lu", backward_error=backward)
        if not info.converged:
            raise SolverError(
                f"{where}: factored solve failed: {info}, backward error "
                f"{backward:.3e} > {FACTORED_RTOL:.1e}")
        return x, info
