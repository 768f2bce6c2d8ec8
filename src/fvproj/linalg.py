"""Sparse linear algebra: tagged CSR operators, the general solve of
nonsingular systems (momentum, dual norms), and the factored zero-mean
solver of the pressure Laplacian.

``solve`` runs Jacobi-preconditioned CG or BiCGStab, GMRES from scipy, or
a dense direct solve; a failed Krylov method falls back to GMRES, then to
the dense solve.  Every zero-mean solve goes through ``ZeroMeanSolver``,
which factors the bordered system once with SuperLU, so each later solve
with the same operator is two triangular solves.
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
    """The tolerances of a solve; all a factored solve reads."""
    rtol: float = 1e-10
    atol: float = 1e-14

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolverConfig(Tolerance):
    method: str = "cg"          # cg | bicgstab | gmres | dense
    maxiter: int | None = None  # default 10 * n
    restart: int = 50

    def __post_init__(self):
        super().__post_init__()
        if self.method not in ("cg", "bicgstab", "gmres", "dense"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    residual: float
    method: str
    fallbacks: list = field(default_factory=list)

    def __str__(self):
        tail = f" (after {'/'.join(self.fallbacks)})" if self.fallbacks else ""
        return (f"{self.method}{tail}: converged={self.converged} "
                f"iters={self.iterations} residual={self.residual:.3e}")


def _as_csr(A):
    return A.matrix if isinstance(A, SparseOperator) else sp.csr_matrix(A)


def _tol(b, config):
    return max(config.rtol * np.linalg.norm(b), config.atol)


def _require_finite(b):
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side has NaN or Inf entries")


def _cg(A, b, config, jacobi):
    """Preconditioned CG with up to two restarts so the reported (true)
    residual, not the recursion, meets the tolerance."""
    n = len(b)
    maxiter = config.maxiter or 10 * n
    tol = _tol(b, config)
    x = np.zeros(n)
    total_it = 0
    res = np.inf
    for _ in range(3):
        r = b - A @ x
        res = np.linalg.norm(r)
        if res <= tol or total_it >= maxiter:
            break
        z = jacobi * r
        p = z.copy()
        rz = r @ z
        rec = res
        while rec > 0.5 * tol and total_it < maxiter:
            Ap = A @ p
            denom = p @ Ap
            if denom <= 0:
                break  # lost positive definiteness
            alpha = rz / denom
            x += alpha * p
            r -= alpha * Ap
            z = jacobi * r
            rz_new = r @ z
            if rz_new == 0.0:
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
            rec = np.linalg.norm(r)
            total_it += 1
        res = np.linalg.norm(b - A @ x)
        if res <= tol:
            break
    return x, SolveInfo(res <= tol, total_it, float(res), "cg")


def _bicgstab(A, b, config, jacobi):
    """Jacobi-preconditioned BiCGStab with up to two restarts so the
    reported (true) residual, not the recursion, meets the tolerance."""
    n = len(b)
    maxiter = config.maxiter or 10 * n
    tol = _tol(b, config)
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


def _gmres(A, b, config):
    n = len(b)
    maxiter = (config.maxiter or 10 * n) // config.restart + 1
    tol = _tol(b, config)
    x, flag = spla.gmres(A, b, rtol=config.rtol, atol=config.atol,
                         restart=config.restart, maxiter=maxiter)
    res = float(np.linalg.norm(b - A @ x))
    return x, SolveInfo(flag == 0 and res <= tol * 1.01, -1 if flag == 0 else flag,
                        res, "gmres")


def _dense(A, b, config):
    x = np.linalg.solve(A.toarray(), b)
    res = float(np.linalg.norm(b - A @ x))
    # a direct solve of a numerically singular system can return garbage
    # without raising; judge convergence by the actual residual
    return x, SolveInfo(res <= max(10 * _tol(b, config), 1e-11 * np.linalg.norm(b)),
                        1, res, "dense")


def solve(A, b, config: SolverConfig | None = None, zero_mean_weights=None):
    """Solve A x = b.

    With ``zero_mean_weights`` (the diagonal mass of the pressure space),
    the solution is the one with zero weighted mean, from a
    ``ZeroMeanSolver`` factor of A; it raises SolverError on failure.
    Otherwise the configured method runs; on CG or BiCGStab breakdown or
    non-convergence the solver falls back to GMRES, then to a dense direct
    solve below 2000 unknowns.

    Returns (x, SolveInfo).
    """
    config = config or SolverConfig()
    if zero_mean_weights is not None:
        return ZeroMeanSolver(A, zero_mean_weights).solve(b, config)
    A_csr = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = len(b)
    if A_csr.shape != (n, n):
        raise ValueError(f"matrix shape {A_csr.shape} does not match rhs of size {n}")
    _require_finite(b)
    if not np.linalg.norm(b):
        return np.zeros(n), SolveInfo(True, 0, 0.0, config.method)

    diag = A_csr.diagonal()
    jacobi = np.where(np.abs(diag) > 0, 1.0 / np.where(diag != 0, diag, 1.0), 1.0)

    if config.method == "cg":
        x, info = _cg(A_csr, b, config, jacobi)
    elif config.method == "bicgstab":
        x, info = _bicgstab(A_csr, b, config, jacobi)
    elif config.method == "gmres":
        x, info = _gmres(A_csr, b, config)
    else:
        return _dense(A_csr, b, config)

    if not info.converged and config.method in ("cg", "bicgstab"):
        fallbacks = [info.method]
        x, info = _gmres(A_csr, b, config)
        if not info.converged and n < 2000:
            fallbacks.append("gmres")
            x, info = _dense(A_csr, b, config)
        info.fallbacks = fallbacks
    return x, info


class ZeroMeanSolver:
    """Solver for A x = b on the subspace w . x = 0, for a symmetric
    positive semidefinite A whose kernel is the constants.

    The bordered system [[A, w], [w', 0]] [x; lam] = [b; 0] is
    nonsingular; it is factored once by SuperLU with a minimum-degree
    ordering of its symmetric pattern (the default COLAMD ordering fills
    about twice as much on the pressure Laplacian).  A compatible right-hand side
    (sum b = 0) gives lam = 0; an incompatible one leaves a residual that
    the solve reports as a failure.

    Each solve is gated on its normwise backward error in the infinity
    norm, |b - A x| <= max(rtol (|A| |x| + |b|), atol) (Rigal and Gaches,
    J. ACM 14(3), 1967; Higham, Accuracy and Stability of Numerical
    Algorithms, section 7.1), which a backward-stable factor meets however
    large |A| |x| / |b| grows on fine meshes.
    """

    def __init__(self, A, weights):
        A = _as_csr(A)
        w = np.asarray(weights, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or w.shape != (n,):
            raise ValueError("constraint weights must match the system size")
        col = sp.csr_matrix(w[:, None])
        bordered = sp.bmat([[A, col], [col.T, None]], format="csc")
        self.matrix = A
        self.norm_inf = float(spla.norm(A, np.inf))
        self._lu = spla.splu(bordered, permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})

    def solve(self, b, tol: Tolerance, where: str = "ZeroMeanSolver"):
        """Returns (x, SolveInfo) with the 2-norm of the true residual;
        raises SolverError, naming ``where``, when the backward-error gate
        fails."""
        b = np.asarray(b, dtype=float)
        n = self.matrix.shape[0]
        if b.shape != (n,):
            raise ValueError(f"rhs of shape {b.shape} does not match a system of size {n}")
        _require_finite(b)
        x = self._lu.solve(np.append(b, 0.0))[:n]
        r = b - self.matrix @ x
        r_inf = float(np.abs(r).max())
        scale = self.norm_inf * float(np.abs(x).max()) + float(np.abs(b).max())
        info = SolveInfo(r_inf <= max(tol.rtol * scale, tol.atol), 1,
                         float(np.linalg.norm(r)), "lu")
        if not info.converged:
            raise SolverError(
                f"{where}: zero-mean solve failed: {info}, backward error "
                f"{r_inf / scale:.3e} > rtol {tol.rtol:.1e}")
        return x, info
