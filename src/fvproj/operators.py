"""The discrete differential operators, as sparse matrices and as actions.

Gradient (edge-midpoint scalars -> cellwise vectors) and divergence
(cellwise vectors -> edge-midpoint scalars) are exact adjoints under the
cellwise and diagonal edge masses.  The gradient is a sparse matrix; the
divergence is its edge formula, 3|e|/(|K|+|L|) times the jump of v . n
across an interior edge and -3|e|/|K| v_K . n on a boundary edge, the
weight that makes adjointness hold identically.

Two Laplacians: the pressure Laplacian is the composition div(grad) with
an SPD weak form (grad, grad); the velocity Laplacian is the two-point
flux operator whose negative mass-weighted matrix is the Gram matrix of
the discrete H1 norm.  The pressure Laplacian and that Gram matrix are
each factored once per mesh; the factored pressure Laplacian also gives
the one discrete Leray projection, and the factored Gram matrix the dual
norm ``dual_norm``.  The upwind convection matrix is filled straight into
the CSR pattern of that Gram matrix, so that the momentum matrix of every
step is one data array on it.  Every matrix, factor, weight and index
array here is built once per mesh and kept on it through ``mesh.per_mesh``.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, VectorRT0,
                     h_gram, l2_inner, l2_norm, p1nc_mass)
from .linalg import FactoredSolver, SolverError
from .mesh import Mesh, per_mesh


@per_mesh
def gradient_matrices(mesh: Mesh):
    """Component matrices (Gx, Gy), each nt x ne, of the broken gradient
    of the affine reconstruction: grad q|_K = (1/|K|) sum |e| q(m_e) n_{K,e}.
    Row K holds the three edges of K in increasing order; Gy shares Gx's
    index arrays."""
    nt = mesh.num_triangles
    edges = np.sort(mesh.tri_edges, axis=1)
    # sign of the outward normal relative to the stored edge normal: +1
    # where the triangle owns the edge
    sign = np.where(mesh.edge_owner[edges] == np.arange(nt)[:, None], 1.0, -1.0)
    base = sign * mesh.edge_length[edges] / mesh.tri_area[:, None]
    n = mesh.edge_normal[edges]  # (nt, 3, 2)
    shape = (nt, mesh.num_edges)
    Gx = sp.csr_matrix(((base * n[:, :, 0]).ravel(), edges.ravel(),
                        np.arange(0, 3 * nt + 1, 3)), shape=shape)
    Gy = sp.csr_matrix(((base * n[:, :, 1]).ravel(), Gx.indices, Gx.indptr), shape=shape)
    return Gx, Gy


def gradient(q: ScalarP1NC) -> VectorP0:
    Gx, Gy = gradient_matrices(q.mesh)
    return VectorP0(q.mesh, np.stack([Gx @ q.values, Gy @ q.values], axis=1))


def norm_1h(q: ScalarP1NC) -> float:
    """Graph norm: (|q|^2 + |grad_h q|^2)^(1/2)."""
    g = gradient(q)
    return float(np.sqrt(l2_inner(q, q) + l2_inner(g, g)))


@per_mesh
def divergence_weights(mesh: Mesh) -> np.ndarray:
    """(ne, 2) weights of the edgewise divergence, read-only: 3|e| n /
    (|K| + |L|) on an interior edge, 3|e| n / |K| on a boundary edge."""
    K, L = mesh.edge_owner, mesh.edge_neighbor
    cells = mesh.tri_area[K] + np.where(L >= 0, mesh.tri_area[L], 0.0)
    w = (3.0 * mesh.edge_length / cells)[:, None] * mesh.edge_normal
    w.flags.writeable = False
    return w


def divergence(v: VectorP0) -> ScalarP1NC:
    """Edgewise divergence: the weight times the jump (v_L - v_K) . n, with
    a zero cell behind every boundary edge (its neighbour -1 reads it)."""
    mesh = v.mesh
    cells = np.zeros((mesh.num_triangles + 1, 2))
    cells[:-1] = v.values
    jump = np.take(cells, mesh.edge_neighbor, axis=0)
    jump -= np.take(cells, mesh.edge_owner, axis=0)
    jump *= divergence_weights(mesh)
    return ScalarP1NC(mesh, jump[:, 0] + jump[:, 1])


@per_mesh
def pressure_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """SPD weak form of the pressure Laplacian: (A q) . r = (grad q, grad r).

    Symmetric positive semidefinite with the constants as kernel; solved
    on the zero-mean subspace.
    """
    Gx, Gy = gradient_matrices(mesh)
    M = sp.diags(mesh.tri_area)
    return (Gx.T @ M @ Gx + Gy.T @ M @ Gy).tocsr()


@per_mesh
def pressure_solver(mesh: Mesh) -> FactoredSolver:
    """The factored pressure Laplacian on the mass-weighted zero-mean
    subspace (grounded at edge 0, see ``FactoredSolver``)."""
    return FactoredSolver(pressure_stiffness(mesh), p1nc_mass(mesh),
                          name="pressure Laplacian")


@per_mesh
def h_solver(mesh: Mesh) -> FactoredSolver:
    """The factored Gram matrix H of the discrete H1 norm (SPD)."""
    return FactoredSolver(h_gram(mesh), name="H1 Gram matrix")


def dual_norm(v: VectorP0) -> float:
    """Dual of the discrete H1 norm, realized exactly by one solve with the
    factored H for both components: ||v||_* = sqrt((Mv)' H^{-1} (Mv))."""
    mv = v.mesh.tri_area[:, None] * v.values
    w, _ = h_solver(v.mesh).solve(mv, "dual norm")
    return float(np.sqrt(max(np.sum(mv * w), 0.0)))


# The divergence certificate of a projected field, |div u| <= CERT_TOL
# max(|u|, |div v|); the pressure solve's own gate is its backward error.
CERT_TOL = 1e-12


def leray_project(v: VectorP0, where: str = "Leray projection"):
    """Discrete Leray projection u = v - grad phi, (grad phi, grad r) =
    (v, grad r) for all r, by one zero-mean pressure solve: every
    projection of the scheme and the verification suite.  Returns (u,
    certified as a SolenoidalP0, phi, the solve's SolveInfo, |div u|).
    Raises SolverError naming ``where`` for a non-finite v, a right-hand
    side -(div v, r) whose sum is above rounding (a rounding-level sum is
    removed: in the grounded row it fails the gate when div v is small
    against v), or a u that fails the certificate.

    A u that fails it by rounding alone is projected once more: M div u =
    A phi - b is the pressure residual, and it meets ``FactoredSolver.gate``
    while |div u| ~ eps |A| |phi| grows like h^-2 past CERT_TOL (acute:6,
    k = 0.1).  Then phi2 solves -(div u, r), u - grad phi2 and phi + phi2
    are returned, and the SolveInfo lists "second projection" in
    ``fallbacks`` with the larger backward error.  A u off by more fails."""
    if not np.all(np.isfinite(v.values)):
        raise SolverError(f"{where}: field has NaN or Inf entries")
    solver = pressure_solver(v.mesh)  # built before the field's temporaries
    mass = p1nc_mass(v.mesh)

    def potential(div):  # phi, its SolveInfo and right-hand side -(div, r)
        b = -(mass * div.values)
        if abs(b.sum()) > 1e-12 * max(np.linalg.norm(b), 1.0):
            raise SolverError(f"{where}: right-hand side incompatible: "
                              f"(div v, 1) = {-b.sum():.3e}")
        b -= mass * (b.sum() / mass.sum())
        phi, info = solver.solve(b, where)
        return ScalarP1NC(v.mesh, phi), info, b

    div = divergence(v)
    phi, info, b = potential(div)
    u = v - gradient(phi)
    div_u = divergence(u)
    div_l2 = l2_norm(div_u)
    scale = max(l2_norm(u), l2_norm(div))
    if div_l2 > CERT_TOL * scale and solver.gate(phi.values, b, mass * div_u.values)[0]:
        phi2, info2, _ = potential(div_u)
        u = u - gradient(phi2)
        phi = phi + phi2
        info.fallbacks.append("second projection")
        info.backward_error = max(info.backward_error, info2.backward_error)
        div_l2 = l2_norm(divergence(u))
        scale = max(l2_norm(u), l2_norm(div))
    if not div_l2 <= CERT_TOL * scale:  # NaN fails
        raise SolverError(
            f"{where}: divergence-free certificate failed (|div u| = "
            f"{div_l2:.3e} > {CERT_TOL:.1e} * {scale:.3e}; pressure solve "
            f"backward error {info.backward_error:.1e})")
    return SolenoidalP0(u), phi, info, div_l2


def laplacian_p0(v: VectorP0) -> VectorP0:
    """Two-point-flux Laplacian with homogeneous Dirichlet boundary terms."""
    H = h_gram(v.mesh)
    return VectorP0(v.mesh, -(H @ v.values) / v.mesh.tri_area[:, None])


def _h_positions(mesh: Mesh, rows, cols) -> np.ndarray:
    """Positions of the entries (rows, cols) in the data array of
    ``h_gram(mesh)``, whose pattern (the diagonal and the two-point
    neighbours) holds them: its (row nt + col) keys are sorted."""
    H = h_gram(mesh)
    nt = mesh.num_triangles
    keys = np.repeat(np.arange(nt, dtype=np.int64), np.diff(H.indptr)) * nt + H.indices
    return np.searchsorted(keys, np.asarray(rows, dtype=np.int64) * nt + cols)


@per_mesh
def h_diagonal(mesh: Mesh) -> np.ndarray:
    """Positions of the diagonal in the data array of ``h_gram(mesh)``, and
    so of every matrix on its pattern."""
    cells = np.arange(mesh.num_triangles)
    return _h_positions(mesh, cells, cells)


@per_mesh
def _convection_positions(mesh: Mesh) -> np.ndarray:
    """Positions of (K, L), then (L, K), of every interior edge in the data
    array of ``h_gram(mesh)``."""
    ii = mesh.interior_edges
    K, L = mesh.edge_owner[ii], mesh.edge_neighbor[ii]
    return _h_positions(mesh, np.concatenate([K, L]), np.concatenate([L, K]))


def convection_matrix(u) -> sp.csr_matrix:
    """Weighted upwind transport matrix W for the advecting flux field u,
    the cell-mass form of the transport (its rows are |K| times the
    operator's), on the CSR pattern of ``h_gram(mesh)`` (it shares H's
    index arrays): each interior edge adds to its cells' diagonal entries
    (K, K) and (L, L) and sets (K, L) and (L, K), at their per-mesh
    positions in H's data.  Boundary edges contribute nothing since their
    fluxes vanish.
    """
    if not isinstance(u, (SolenoidalP0, VectorRT0)):
        raise TypeError("advecting field must carry single-valued edge fluxes "
                        "(SolenoidalP0 or VectorRT0), got " + type(u).__name__)
    mesh = u.mesh
    ii = mesh.interior_edges
    cells = np.concatenate([mesh.edge_owner[ii], mesh.edge_neighbor[ii]])
    sf = mesh.edge_length[ii] * u.edge_normal_fluxes()[ii]
    up = np.maximum(sf, 0.0)    # |e| max(f, 0): out of K
    dn = sf - up                # |e| min(f, 0): into K
    diag = np.concatenate([up, -dn])    # at (K, K), (L, L)
    off = np.concatenate([dn, -up])     # at (K, L), (L, K)
    H = h_gram(mesh)
    data = np.zeros(H.nnz)
    data[h_diagonal(mesh)] = np.bincount(cells, diag, minlength=mesh.num_triangles)
    data[_convection_positions(mesh)] = off
    return sp.csr_matrix((data, H.indices, H.indptr), shape=H.shape)


def upwind_convection(u, v: VectorP0) -> VectorP0:
    """Componentwise upwind transport of v by the certified flux field u:
    (W v)/|K|, W its ``convection_matrix``."""
    return VectorP0(v.mesh, (convection_matrix(u) @ v.values)
                    / v.mesh.tri_area[:, None])


def trilinear_form(W, v: VectorP0, w: VectorP0) -> float:
    """Cell-mass pairing of w with the upwind transport of v, given the
    advecting field's ``convection_matrix`` W."""
    return float(np.vdot(w.values, W @ v.values))
