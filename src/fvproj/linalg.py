"""Sparse linear algebra: tagged CSR operators and the two solves the
scheme needs.

``solve`` runs Jacobi-preconditioned BiCGStab on the nonsymmetric momentum
system.  ``FactoredSolver`` factors a fixed symmetric matrix once with
SuperLU, so each later solve with it is two triangular solves: the
pressure Laplacian on its zero-mean subspace, and the discrete H1 Gram
matrix of the dual norm and the verification suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


class SparseOperator:
    """Compressed-row matrix tagged with its domain and codomain spaces."""

    __slots__ = ("matrix", "domain", "codomain")

    def __init__(self, matrix, domain: str = "", codomain: str = ""):
        m = sp.csr_matrix(matrix)
        m.sum_duplicates()
        self.matrix = m
        self.domain = domain
        self.codomain = codomain

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, x):
        return self.matrix @ x

    @property
    def T(self):
        return SparseOperator(self.matrix.T.tocsr(),
                              domain=self.codomain, codomain=self.domain)

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

    def __str__(self):
        return (f"{self.method}: converged={self.converged} "
                f"iters={self.iterations} residual={self.residual:.3e}")


# BiCGStab iteration cap, per unknown
_MAXITER_PER_UNKNOWN = 10


def _as_csr(A):
    return A.matrix if isinstance(A, SparseOperator) else sp.csr_matrix(A)


def _require_finite(b):
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side has NaN or Inf entries")


def _bicgstab(A, b, config: Tolerance, jacobi):
    """Jacobi-preconditioned BiCGStab with up to two restarts so the
    reported (true) residual, not the recursion, meets the tolerance."""
    n = len(b)
    maxiter = _MAXITER_PER_UNKNOWN * n
    tol = max(config.rtol * np.linalg.norm(b), config.atol)
    scale = max(np.linalg.norm(b), 1e-300)
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
            phat = jacobi * p
            v = A @ phat
            alpha = rho_new / (r0 @ v)
            s = r - alpha * v
            if np.linalg.norm(s) <= tol:
                x = x + alpha * phat
                it += 1
                break
            shat = jacobi * s
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
        res = np.linalg.norm(b - A @ x)
        if res <= tol:
            break
    return x, SolveInfo(res <= tol, it, float(res), "bicgstab")


def solve(A, b, tol: Tolerance, zero_mean_weights=None):
    """Solve A x = b by Jacobi-preconditioned BiCGStab, capped at 10 n
    iterations; returns (x, SolveInfo), and the caller judges
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

    diag = A_csr.diagonal()
    jacobi = np.where(np.abs(diag) > 0, 1.0 / np.where(diag != 0, diag, 1.0), 1.0)
    return _bicgstab(A_csr, b, tol, jacobi)


class FactoredSolver:
    """Direct solver of A x = b for a fixed symmetric A, factored once by
    SuperLU with a minimum-degree ordering of its symmetric pattern (the
    default COLAMD ordering fills about twice as much on the pressure
    Laplacian).

    Without weights A must be nonsingular.  With weights w, A is positive
    semidefinite with the constants as kernel, and the solve is on the
    subspace w . x = 0 through the nonsingular bordered system
    [[A, w], [w', 0]] [x; lam] = [b; 0]; an incompatible right-hand side
    (sum b != 0) leaves a residual that fails the gate.

    Each solve is gated, column by column, on its normwise backward error
    |b - A x| <= max(rtol (|A| |x| + |b|), atol) in the infinity norm
    (Rigal and Gaches, J. ACM 14(3), 1967; Higham, Accuracy and Stability
    of Numerical Algorithms, section 7.1), which a backward-stable factor
    meets however large |A| |x| / |b| grows on fine meshes.
    """

    def __init__(self, A, weights=None):
        A = _as_csr(A)
        n = A.shape[0]
        w = None if weights is None else np.asarray(weights, dtype=float)
        if A.shape != (n, n) or (w is not None and w.shape != (n,)):
            raise ValueError("need a square matrix and one weight per unknown")
        system = A.tocsc()
        if w is not None:
            col = sp.csr_matrix(w[:, None])
            system = sp.bmat([[A, col], [col.T, None]], format="csc")
        self.matrix = A
        self.norm_inf = float(spla.norm(A, np.inf))
        self._lu = spla.splu(system, permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})

    def solve(self, b, tol: Tolerance, where: str = "FactoredSolver"):
        """Solve for one right-hand side (n,) or several (n, m).  Returns
        (x, SolveInfo) with the 2-norm of the true residual; raises
        SolverError, naming ``where``, when the backward-error gate fails."""
        b = np.asarray(b, dtype=float)
        n = self.matrix.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"rhs of shape {b.shape} does not match a system of size {n}")
        _require_finite(b)
        border = np.zeros((self._lu.shape[0] - n,) + b.shape[1:])
        x = self._lu.solve(np.concatenate([b, border]))[:n]
        r = b - self.matrix @ x
        r_inf = np.abs(r).max(axis=0)
        scale = self.norm_inf * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
        info = SolveInfo(bool(np.all(r_inf <= np.maximum(tol.rtol * scale, tol.atol))),
                         1, float(np.linalg.norm(r)), "lu")
        if not info.converged:
            raise SolverError(
                f"{where}: factored solve failed: {info}, backward error "
                f"{np.max(r_inf / scale):.3e} > rtol {tol.rtol:.1e}")
        return x, info
