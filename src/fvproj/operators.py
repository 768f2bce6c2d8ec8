"""The discrete differential operators, as sparse matrices and as actions.

Gradient (edge-midpoint scalars -> cellwise vectors) and divergence
(cellwise vectors -> edge-midpoint scalars) are exact adjoints under the
cellwise and diagonal edge masses.  The boundary rows of the divergence
carry the weight 3|e|/|K| so that adjointness holds identically; the
interior rows carry 3|e|/(|K|+|L|).

Two Laplacians: the pressure Laplacian is the composition div(grad) with
an SPD weak form (grad, grad); the velocity Laplacian is the two-point
flux operator whose negative mass-weighted matrix is the Gram matrix of
the discrete H1 norm.  The pressure Laplacian and that Gram matrix are
each factored once per mesh; the factored pressure Laplacian also gives
the one discrete Leray projection.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fields import (ScalarP1NC, SolenoidalP0, VectorP0, VectorRT0,
                     h_gram, p1nc_mass)
from .linalg import FactoredSolver, SparseOperator, Tolerance
from .mesh import Mesh


def _owner_sign(mesh: Mesh) -> np.ndarray:
    """(nt, 3) sign of the outward normal relative to the stored edge
    normal: +1 where the triangle owns the edge."""
    cached = mesh._cache.get("owner_sign")
    if cached is None:
        cached = np.where(
            mesh.edge_owner[mesh.tri_edges] == np.arange(mesh.num_triangles)[:, None],
            1.0, -1.0)
        mesh._cache["owner_sign"] = cached
    return cached


def gradient_matrices(mesh: Mesh):
    """Component matrices (Gx, Gy), each nt x ne, of the broken gradient
    of the affine reconstruction: grad q|_K = (1/|K|) sum |e| q(m_e) n_{K,e}."""
    cached = mesh._cache.get("gradient_matrices")
    if cached is not None:
        return cached
    sign = _owner_sign(mesh)
    rows = np.repeat(np.arange(mesh.num_triangles), 3)
    cols = mesh.tri_edges.ravel()
    base = (sign * mesh.edge_length[mesh.tri_edges]
            / mesh.tri_area[:, None]).ravel()
    n = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2)
    shape = (mesh.num_triangles, mesh.num_edges)
    Gx = sp.csr_matrix((base * n[:, :, 0].ravel(), (rows, cols)), shape=shape)
    Gy = sp.csr_matrix((base * n[:, :, 1].ravel(), (rows, cols)), shape=shape)
    mesh._cache["gradient_matrices"] = (Gx, Gy)
    return Gx, Gy


def gradient(q: ScalarP1NC) -> VectorP0:
    Gx, Gy = gradient_matrices(q.mesh)
    return VectorP0(q.mesh, np.stack([Gx @ q.values, Gy @ q.values], axis=1))


def divergence_matrices(mesh: Mesh):
    """Component matrices (Dx, Dy), each ne x nt, of the edgewise divergence."""
    cached = mesh._cache.get("divergence_matrices")
    if cached is not None:
        return cached
    ne, nt = mesh.num_edges, mesh.num_triangles
    ii = mesh.interior_edges
    bb = mesh.boundary_edges
    K, L = mesh.edge_owner[ii], mesh.edge_neighbor[ii]
    coef_i = 3.0 * mesh.edge_length[ii] / (mesh.tri_area[K] + mesh.tri_area[L])
    coef_b = 3.0 * mesh.edge_length[bb] / mesh.tri_area[mesh.edge_owner[bb]]
    rows = np.concatenate([ii, ii, bb])
    cols = np.concatenate([L, K, mesh.edge_owner[bb]])
    vals = np.concatenate([coef_i, -coef_i, -coef_b])
    n_rows = mesh.edge_normal[rows]
    Dx = sp.csr_matrix((vals * n_rows[:, 0], (rows, cols)), shape=(ne, nt))
    Dy = sp.csr_matrix((vals * n_rows[:, 1], (rows, cols)), shape=(ne, nt))
    mesh._cache["divergence_matrices"] = (Dx, Dy)
    return Dx, Dy


def divergence(v: VectorP0) -> ScalarP1NC:
    Dx, Dy = divergence_matrices(v.mesh)
    return ScalarP1NC(v.mesh, Dx @ v.values[:, 0] + Dy @ v.values[:, 1])


def pressure_stiffness(mesh: Mesh) -> SparseOperator:
    """SPD weak form of the pressure Laplacian: (A q) . r = (grad q, grad r).

    Symmetric positive semidefinite with the constants as kernel; solved
    on the zero-mean subspace.
    """
    cached = mesh._cache.get("pressure_stiffness")
    if cached is None:
        Gx, Gy = gradient_matrices(mesh)
        M = sp.diags(mesh.tri_area)
        A = (Gx.T @ M @ Gx + Gy.T @ M @ Gy).tocsr()
        cached = SparseOperator(A, domain="p1nc", codomain="p1nc")
        mesh._cache["pressure_stiffness"] = cached
    return cached


def pressure_solver(mesh: Mesh) -> FactoredSolver:
    """The factored pressure Laplacian on the mass-weighted zero-mean
    subspace; built on first use and kept for the life of the mesh."""
    cached = mesh._cache.get("pressure_solver")
    if cached is None:
        cached = FactoredSolver(pressure_stiffness(mesh).matrix, p1nc_mass(mesh))
        mesh._cache["pressure_solver"] = cached
    return cached


def h_solver(mesh: Mesh) -> FactoredSolver:
    """The factored Gram matrix H of the discrete H1 norm (SPD); built on
    first use and kept for the life of the mesh."""
    cached = mesh._cache.get("h_solver")
    if cached is None:
        cached = FactoredSolver(h_gram(mesh))
        mesh._cache["h_solver"] = cached
    return cached


def leray_project(v: VectorP0, tol: Tolerance, where: str = "Leray projection"):
    """Discrete Leray projection: remove the gradient part of a cellwise
    field by one zero-mean pressure solve.  Returns (projected field,
    potential); the caller certifies or trusts the projected field."""
    mesh = v.mesh
    phi, _ = pressure_solver(mesh).solve(
        -(p1nc_mass(mesh) * divergence(v).values), tol, where)
    phi = ScalarP1NC(mesh, phi)
    return v - gradient(phi), phi


def velocity_stiffness(mesh: Mesh) -> SparseOperator:
    """Symmetric positive form of the two-point-flux velocity Laplacian
    (row K scaled by |K|); acts identically on both components."""
    return SparseOperator(h_gram(mesh), domain="p0", codomain="p0")


def laplacian_p0(v: VectorP0) -> VectorP0:
    """Two-point-flux Laplacian with homogeneous Dirichlet boundary terms."""
    H = h_gram(v.mesh)
    return VectorP0(v.mesh, -(H @ v.values) / v.mesh.tri_area[:, None])


def _advecting_fluxes(u) -> np.ndarray:
    if isinstance(u, (SolenoidalP0, VectorRT0)):
        return u.edge_normal_fluxes()
    raise TypeError(
        "advecting field must carry single-valued edge fluxes "
        "(SolenoidalP0 or VectorRT0), got " + type(u).__name__)


def convection_matrix(u, weighted: bool = False) -> SparseOperator:
    """Upwind transport matrix for the advecting flux field u.

    Unweighted rows carry 1/|K| (the operator); weighted rows carry |K|
    times that (the form used in the momentum system).  Boundary edges
    contribute nothing since their fluxes vanish.
    """
    mesh = u.mesh
    flux = _advecting_fluxes(u)
    ii = mesh.interior_edges
    K, L = mesh.edge_owner[ii], mesh.edge_neighbor[ii]
    s = mesh.edge_length[ii]
    f = flux[ii]
    up = s * np.maximum(f, 0.0)
    dn = s * np.minimum(f, 0.0)
    rows = np.concatenate([K, K, L, L])
    cols = np.concatenate([K, L, L, K])
    vals = np.concatenate([up, dn, s * np.maximum(-f, 0.0), s * np.minimum(-f, 0.0)])
    if not weighted:
        vals = vals / mesh.tri_area[rows]
    nt = mesh.num_triangles
    C = sp.csr_matrix((vals, (rows, cols)), shape=(nt, nt))
    return SparseOperator(C, domain="p0", codomain="p0")


def upwind_convection(u, v: VectorP0) -> VectorP0:
    """Componentwise upwind transport of v by the certified flux field u."""
    C = convection_matrix(u).matrix
    return VectorP0(v.mesh, np.stack([C @ v.values[:, 0], C @ v.values[:, 1]], axis=1))


def trilinear_form(u, v: VectorP0, w: VectorP0) -> float:
    """Cell-mass pairing of w with the upwind transport of v by u."""
    W = convection_matrix(u, weighted=True).matrix
    return float(np.einsum("td,td->", w.values,
                           np.stack([W @ v.values[:, 0], W @ v.values[:, 1]], axis=1)))
