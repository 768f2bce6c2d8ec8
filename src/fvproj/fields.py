"""Discrete fields: cellwise constants, edge-midpoint affine scalars, and
lowest-order flux vectors, with their projections, inner products and norms.

Conventions
-----------
* Cellwise (P0) values are indexed by triangle id; vector fields are
  (nt, 2) arrays.
* Nonconforming-P1 scalars store the value at each edge midpoint, which
  equals the edge mean of the affine reconstruction.
* Flux vectors store one signed normal flux per edge, relative to the
  owner triangle's outward normal; boundary fluxes are identically zero.
* The edge-midpoint quadrature makes the nonconforming mass matrix
  diagonal: (|K|+|L|)/3 on interior edges, |K|/3 on boundary edges.
  It is exact for products of affine functions.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import Mesh


class FluxContinuityError(ValueError):
    """A cellwise field failed its single-valued-normal-trace certificate."""


class SpaceMismatchError(ValueError):
    """Operands live on different meshes or in different spaces."""


def _check_same(a, b):
    if a.mesh is not b.mesh or type(a) is not type(b):
        raise SpaceMismatchError(
            f"cannot combine {type(a).__name__} and {type(b).__name__} on different meshes")


class _Field:
    __slots__ = ("mesh", "values")

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self._shape(mesh):
            raise ValueError(
                f"{type(self).__name__} expects shape {self._shape(mesh)}, got {values.shape}")
        self.mesh = mesh
        self.values = values

    def copy(self):
        return type(self)(self.mesh, self.values.copy())

    def __add__(self, other):
        _check_same(self, other)
        return type(self)(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return type(self)(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.mesh, -self.values)

    def __repr__(self):
        return f"{type(self).__name__}(n={len(self.values)})"


class ScalarP0(_Field):
    """One value per triangle."""

    @staticmethod
    def _shape(mesh):
        return (mesh.num_triangles,)


class VectorP0(_Field):
    """One 2-vector per triangle."""

    @staticmethod
    def _shape(mesh):
        return (mesh.num_triangles, 2)


class ScalarP1NC(_Field):
    """Affine per triangle, single-valued at edge midpoints; the stored
    degree of freedom is the midpoint value."""

    @staticmethod
    def _shape(mesh):
        return (mesh.num_edges,)


class VectorRT0(_Field):
    """Lowest-order flux vector: constant normal flux per edge (owner
    sign), zero on the boundary."""

    @staticmethod
    def _shape(mesh):
        return (mesh.num_edges,)

    def __init__(self, mesh, values):
        super().__init__(mesh, values)
        self.values = self.values.copy()
        self.values[mesh.boundary_edges] = 0.0

    def edge_normal_fluxes(self) -> np.ndarray:
        return self.values


def max_normal_jump(v: VectorP0) -> float:
    """Largest inter-element normal jump; boundary edges count their full
    normal trace."""
    mesh = v.mesh
    n = mesh.edge_normal
    own = np.einsum("ed,ed->e", v.values[mesh.edge_owner], n)
    jump = np.abs(own[mesh.boundary_edges]).max(initial=0.0)
    ii = mesh.interior_edges
    if len(ii):
        nb = np.einsum("ed,ed->e", v.values[mesh.edge_neighbor[ii]], n[ii])
        jump = max(jump, np.abs(nb - own[ii]).max())
    return float(jump)


class SolenoidalP0:
    """A cellwise-constant vector field whose edge normal traces are
    single-valued and vanish on the boundary, i.e. it is pointwise
    divergence free in the discrete sense.

    Carries a certificate: the measured maximum normal jump, measured on
    first access when the field was built with ``trusted``.
    """

    __slots__ = ("field", "_max_jump")

    def __init__(self, field: VectorP0, max_jump: float | None = None):
        self.field = field
        self._max_jump = max_jump

    @property
    def max_jump(self) -> float:
        if self._max_jump is None:
            self._max_jump = max_normal_jump(self.field)
        return self._max_jump

    @classmethod
    def certify(cls, field: VectorP0, rel_tol: float = 1e-10) -> "SolenoidalP0":
        jump = max_normal_jump(field)
        scale = float(np.abs(field.values).max(initial=0.0))
        if jump > rel_tol * scale:
            raise FluxContinuityError(
                f"normal jump {jump:.3e} exceeds {rel_tol:.1e} * |v|_inf = "
                f"{rel_tol * scale:.3e}")
        return cls(field, jump)

    @classmethod
    def trusted(cls, field: VectorP0) -> "SolenoidalP0":
        """Wrap without enforcing a tolerance; the jump is measured only if
        ``max_jump`` is read."""
        return cls(field)

    @property
    def mesh(self):
        return self.field.mesh

    @property
    def values(self):
        return self.field.values

    def edge_normal_fluxes(self) -> np.ndarray:
        """Single-valued normal flux per edge (average of the two traces on
        interior edges, zero on the boundary)."""
        mesh = self.mesh
        flux = np.einsum("ed,ed->e", self.values[mesh.edge_owner], mesh.edge_normal)
        ii = mesh.interior_edges
        if len(ii):
            nb = np.einsum("ed,ed->e",
                           self.values[mesh.edge_neighbor[ii]], mesh.edge_normal[ii])
            flux[ii] = 0.5 * (flux[ii] + nb)
        flux[mesh.boundary_edges] = 0.0
        return flux


# -- projections --------------------------------------------------------------

def _as_points(f, pts):
    """Evaluate f on an (..., 2) point array, accepting f(x, y) vectorized."""
    return np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)


def project_p0(f, mesh: Mesh, quad_order: int = 4):
    """Cell averages by quadrature; exact for polynomials up to quad_order.

    Returns ScalarP0 or VectorP0 depending on the shape f produces:
    scalar f(x, y) -> (...) or vector f(x, y) -> (..., 2).
    """
    bary, w = quadrature.triangle_rule(quad_order)
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    vals = _as_points(f, pts)  # (nt, nq) or (nt, nq, 2)
    if vals.ndim == 2:
        return ScalarP0(mesh, vals @ w)
    return VectorP0(mesh, np.einsum("tqd,q->td", vals, w))


def collocate_p0(f, mesh: Mesh):
    """Point values at circumcenters (the collocation variant of the cell
    projection, defined for continuous functions)."""
    vals = _as_points(f, mesh.tri_center)
    if vals.ndim == 1:
        return ScalarP0(mesh, vals)
    return VectorP0(mesh, vals)


def project_rt0(f, mesh: Mesh, npoints: int = 3) -> VectorRT0:
    """Edge means of the normal component; boundary fluxes forced to zero."""
    t, w = quadrature.segment_rule(npoints)
    pts = quadrature.segment_points(mesh.vertices[mesh.edges[:, 0]],
                                    mesh.vertices[mesh.edges[:, 1]], t)
    vals = _as_points(f, pts)  # (ne, nq, 2)
    flux = np.einsum("eqd,q,ed->e", vals, w, mesh.edge_normal)
    flux[mesh.boundary_edges] = 0.0
    return VectorRT0(mesh, flux)


# -- masses, inner products, norms ---------------------------------------------

def p0_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal of the cellwise mass: the triangle areas."""
    return mesh.tri_area


def p1nc_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal edge-midpoint-rule mass; exact on the nonconforming space."""
    m = np.zeros(mesh.num_edges)
    np.add.at(m, mesh.tri_edges.ravel(),
              np.repeat(mesh.tri_area / 3.0, 3))
    return m


def l2_inner(a, b) -> float:
    _check_same(a, b)
    mesh = a.mesh
    if isinstance(a, ScalarP0):
        return float(np.sum(mesh.tri_area * a.values * b.values))
    if isinstance(a, VectorP0):
        return float(np.sum(mesh.tri_area * np.einsum("td,td->t", a.values, b.values)))
    if isinstance(a, ScalarP1NC):
        return float(np.sum(p1nc_mass(mesh) * a.values * b.values))
    raise SpaceMismatchError(f"no inner product for {type(a).__name__}")


def l2_norm(a) -> float:
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


def h_gram(mesh: Mesh) -> sp.csr_matrix:
    """Gram matrix of the discrete H1 seminorm-with-boundary: the symmetric
    two-point-flux stiffness (per scalar component).

    v' H v = sum_int tau |v_L - v_K|^2 + sum_ext tau |v_K|^2.
    """
    cached = mesh._cache.get("h_gram")
    if cached is not None:
        return cached
    ii = mesh.interior_edges
    K = mesh.edge_owner[ii]
    L = mesh.edge_neighbor[ii]
    tau = mesh.edge_tau
    rows = np.concatenate([K, L, K, L, mesh.edge_owner[mesh.boundary_edges]])
    cols = np.concatenate([K, L, L, K, mesh.edge_owner[mesh.boundary_edges]])
    vals = np.concatenate([tau[ii], tau[ii], -tau[ii], -tau[ii],
                           tau[mesh.boundary_edges]])
    H = sp.csr_matrix((vals, (rows, cols)),
                      shape=(mesh.num_triangles, mesh.num_triangles))
    H.sum_duplicates()
    mesh._cache["h_gram"] = H
    return H


def h_norm(v) -> float:
    """Discrete H1 norm of a cellwise field; zero only for the zero field
    (boundary edges see the full cell value)."""
    mesh = v.mesh
    vals = v.values if isinstance(v, (ScalarP0, VectorP0)) else None
    if vals is None:
        raise SpaceMismatchError(f"h_norm is for cellwise fields, got {type(v).__name__}")
    ii = mesh.interior_edges
    diff = vals[mesh.edge_neighbor[ii]] - vals[mesh.edge_owner[ii]]
    bnd = vals[mesh.edge_owner[mesh.boundary_edges]]
    if vals.ndim == 1:
        s = np.sum(mesh.edge_tau[ii] * diff**2) + np.sum(
            mesh.edge_tau[mesh.boundary_edges] * bnd**2)
    else:
        s = np.sum(mesh.edge_tau[ii] * np.einsum("ed,ed->e", diff, diff)) + np.sum(
            mesh.edge_tau[mesh.boundary_edges] * np.einsum("ed,ed->e", bnd, bnd))
    return float(np.sqrt(max(s, 0.0)))


def dual_norm(v: VectorP0) -> float:
    """Dual of the discrete H1 norm, realized exactly by one solve with the
    factored H for both components: ||v||_* = sqrt((Mv)' H^{-1} (Mv))."""
    from . import linalg, operators  # deferred: operators imports fields

    mv = v.mesh.tri_area[:, None] * v.values
    w, _ = operators.h_solver(v.mesh).solve(mv, linalg.Tolerance(rtol=1e-12),
                                            "dual norm")
    return float(np.sqrt(max(np.sum(mv * w), 0.0)))


def mean_zero(q: ScalarP1NC) -> ScalarP1NC:
    """Subtract the mesh-weighted mean so the field integrates to zero."""
    m = p1nc_mass(q.mesh)
    mean = float(m @ q.values) / float(m.sum())
    return ScalarP1NC(q.mesh, q.values - mean)


def norm_1h(q: ScalarP1NC) -> float:
    """Graph norm: (|q|^2 + |grad_h q|^2)^(1/2)."""
    from . import operators  # deferred to avoid an import cycle

    g = operators.gradient(q)
    return float(np.sqrt(l2_inner(q, q) + l2_inner(g, g)))
