"""Sparse linear algebra: tagged CSR operators and the two solves the
scheme needs.

``solve`` runs preconditioned BiCGStab on the nonsymmetric momentum
system: with the preconditioner its ``SparseOperator`` carries (the scheme
passes a lagged factor of the momentum matrix), else with Jacobi.
``FactoredSolver`` factors a fixed matrix once with SuperLU, so each later
solve with it is two triangular solves (four for a zero-mean solve, which
refines once): the pressure Laplacian on its zero-mean subspace, grounded
at one unknown; the discrete H1 Gram matrix of the dual norm and the
verification suite; and the momentum matrix of that preconditioner.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


class SparseOperator:
    """Compressed-row matrix tagged with its domain and codomain spaces.

    ``preconditioner``, when given, is a callable v -> P^{-1} v with P
    close to the matrix; ``solve`` uses it in place of Jacobi.
    """

    __slots__ = ("matrix", "domain", "codomain", "preconditioner")

    def __init__(self, matrix, domain: str = "", codomain: str = "",
                 preconditioner=None):
        m = sp.csr_matrix(matrix)
        m.sum_duplicates()
        self.matrix = m
        self.domain = domain
        self.codomain = codomain
        self.preconditioner = preconditioner

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, x):
        return self.matrix @ x

    def toarray(self):
        return self.matrix.toarray()

    def __repr__(self):
        return (f"SparseOperator({self.shape[0]}x{self.shape[1]}, "
                f"{self.domain or '?'} -> {self.codomain or '?'}, "
                f"nnz={self.matrix.nnz})")


@dataclass
class Tolerance:
    """The tolerances of a solve."""
    rtol: float = 1e-10
    atol: float = 1e-14

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    residual: float
    method: str
    # always empty: nothing falls back; perfbench/job.py still reads it
    fallbacks: list = field(default_factory=list)
    # normwise backward error of a factored solve (the largest over columns)
    backward_error: float | None = None

    def __str__(self):
        return (f"{self.method}: converged={self.converged} "
                f"iters={self.iterations} residual={self.residual:.3e}")


# BiCGStab iteration cap, per unknown
_MAXITER_PER_UNKNOWN = 10
# BiCGStab gives up once its residual exceeds this multiple of |b|
_DIVERGENCE_FACTOR = 1e10


def _as_csr(A):
    return A.matrix if isinstance(A, SparseOperator) else sp.csr_matrix(A)


def _require_finite(b):
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side has NaN or Inf entries")


def _bicgstab(A, b, config: Tolerance, precondition):
    """Right-preconditioned BiCGStab (``precondition(v)`` ~ A^{-1} v) with
    up to two restarts so the reported (true) residual, not the recursion,
    meets the tolerance.  A residual that is not finite or exceeds
    _DIVERGENCE_FACTOR |b| ends the solve as not converged."""
    n = len(b)
    maxiter = _MAXITER_PER_UNKNOWN * n
    tol = max(config.rtol * np.linalg.norm(b), config.atol)
    scale = max(np.linalg.norm(b), 1e-300)
    diverged = lambda res: not res <= _DIVERGENCE_FACTOR * scale
    x = np.zeros(n)
    it = 0
    for _ in range(3):
        r = b - A @ x
        res = np.linalg.norm(r)
        if res <= tol or it >= maxiter:
            break
        r0 = r.copy()
        rho = alpha = omega = 1.0
        v = p = np.zeros(n)  # so that the first direction is p = r
        while res > tol and it < maxiter:
            rho_new = r0 @ r
            if abs(rho_new) < 1e-30 * scale * scale:
                break  # breakdown
            p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
            phat = precondition(p)
            v = A @ phat
            r0v = r0 @ v
            if abs(r0v) < 1e-30 * scale * scale:
                break  # breakdown
            alpha = rho_new / r0v
            s = r - alpha * v
            if np.linalg.norm(s) <= tol:
                x = x + alpha * phat
                it += 1
                break
            shat = precondition(s)
            t = A @ shat
            tt = t @ t
            if tt == 0.0:
                break
            omega = (t @ s) / tt
            x = x + alpha * phat + omega * shat
            r = s - omega * t
            rho = rho_new
            res = np.linalg.norm(r)
            it += 1
            if diverged(res):
                break
        res = np.linalg.norm(b - A @ x)
        if res <= tol or diverged(res):
            break
    return x, SolveInfo(res <= tol, it, float(res), "bicgstab")


def solve(A, b, tol: Tolerance, zero_mean_weights=None):
    """Solve A x = b by BiCGStab, capped at 10 n iterations, preconditioned
    by ``A.preconditioner`` when A is a SparseOperator that carries one and
    by Jacobi otherwise; returns (x, SolveInfo), and the caller judges
    ``SolveInfo.converged``.  With ``zero_mean_weights`` (the diagonal mass
    of the pressure space), returns the solution of zero weighted mean from
    a ``FactoredSolver`` of A, which raises SolverError on failure."""
    if zero_mean_weights is not None:
        return FactoredSolver(A, zero_mean_weights).solve(b, tol)
    A_csr = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = len(b)
    if A_csr.shape != (n, n):
        raise ValueError(f"matrix shape {A_csr.shape} does not match rhs of size {n}")
    _require_finite(b)
    if not np.linalg.norm(b):
        return np.zeros(n), SolveInfo(True, 0, 0.0, "bicgstab")

    precondition = getattr(A, "preconditioner", None)
    if precondition is None:
        diag = A_csr.diagonal()
        jacobi = np.where(np.abs(diag) > 0, 1.0 / np.where(diag != 0, diag, 1.0), 1.0)
        precondition = lambda v: jacobi * v
    return _bicgstab(A_csr, b, tol, precondition)


class FactoredSolver:
    """Direct solver of A x = b for a fixed A, factored once by SuperLU
    with a minimum-degree ordering of its symmetric pattern (the default
    COLAMD ordering fills about twice as much on the pressure Laplacian)
    and diagonal pivots preferred.  That suits the symmetric pressure and
    H1 matrices and the nonsymmetric momentum matrix, which is structurally
    symmetric and column diagonally dominant (SuperLU keeps its diagonal
    pivots on acute:3 and acute:5).

    Without weights A must be nonsingular.  With weights w, A is symmetric
    positive semidefinite with the constants as kernel, and the solve is on
    the subspace w . x = 0.  Unknown 0 is grounded: the factor is of A with
    its row and column 0 deleted (Bochev and Lehoucq, SIAM Review 47(1),
    2005), which keeps the sparsity that a dense border [[A, w], [w', 0]]
    would spoil.  A solve takes x0 = [0; A_00^{-1} b_0], shifts it to zero
    weighted mean, and refines it once (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12) by the same solve of r - w sum(r) / sum(w),
    r = b - A x0: the grounded solve leaves the rounding of every row in row
    0, and the correction spreads it along w.  An incompatible right-hand
    side (sum b != 0) keeps its sum in row 0 and fails the gate.

    Each solve is gated, column by column, on its normwise backward error
    |b - A x| <= max(rtol (|A| |x| + |b|), atol) in the infinity norm
    (Rigal and Gaches, J. ACM 14(3), 1967; Higham, section 7.1), which a
    backward-stable factor meets however large |A| |x| / |b| grows on fine
    meshes.
    """

    def __init__(self, A, weights=None):
        A = _as_csr(A)
        n = A.shape[0]
        w = None if weights is None else np.asarray(weights, dtype=float)
        if A.shape != (n, n) or (w is not None and w.shape != (n,)):
            raise ValueError("need a square matrix and one weight per unknown")
        self.matrix = A
        self.weights = w
        self.norm_inf = float(spla.norm(A, np.inf))
        self._lu = spla.splu((A if w is None else A[1:, 1:]).tocsc(),
                             permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})

    def _grounded(self, b):
        """[0; A_00^{-1} b_0] shifted to zero weighted mean."""
        x = np.zeros_like(b)
        x[1:] = self._lu.solve(b[1:])
        return x - (self.weights @ x) / self.weights.sum()

    def solve(self, b, tol: Tolerance, where: str = "FactoredSolver"):
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
            spread = np.multiply.outer(self.weights, r.sum(axis=0) / self.weights.sum())
            x = x + self._grounded(r - spread)
        r = b - self.matrix @ x
        r_inf = np.abs(r).max(axis=0)
        scale = self.norm_inf * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
        backward = float(np.max(r_inf / np.maximum(scale, 1e-300)))
        info = SolveInfo(bool(np.all(r_inf <= np.maximum(tol.rtol * scale, tol.atol))),
                         1 if self.weights is None else 2,
                         float(np.linalg.norm(r)), "lu", backward_error=backward)
        if not info.converged:
            raise SolverError(
                f"{where}: factored solve failed: {info}, backward error "
                f"{backward:.3e} > rtol {tol.rtol:.1e}")
        return x, info

    def apply(self, b):
        """The triangular solves alone, with no gate: an approximate
        inverse for a preconditioner (plain factor only)."""
        return self._lu.solve(b)
