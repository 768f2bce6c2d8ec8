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
* The cellwise mass is ``mesh.tri_area``; the edge mass (read-only) and the
  H1 Gram matrix are kept per mesh by ``mesh.per_mesh``, like the operators
  and factors of ``operators``, which also holds ``dual_norm`` and ``norm_1h``.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import Mesh, per_mesh


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

    def __add__(self, other):
        _check_same(self, other)
        return type(self)(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return type(self)(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(n={len(self.values)})"


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


class SolenoidalP0:
    """A cellwise-constant vector field taken as discretely divergence
    free: the marker type of an advecting field.  ``trusted`` wraps a field
    without a check; the scheme's divergence certificate returns one after
    gating |div v|."""

    __slots__ = ("field",)

    def __init__(self, field: VectorP0):
        self.field = field

    @classmethod
    def trusted(cls, field: VectorP0) -> "SolenoidalP0":
        return cls(field)

    @property
    def mesh(self):
        return self.field.mesh

    @property
    def values(self):
        return self.field.values

    def edge_normal_fluxes(self) -> np.ndarray:
        """Single-valued normal flux per edge (average of the two traces on
        interior edges; zero on the boundary, overwriting what neighbour -1 read)."""
        mesh = self.mesh
        ux, uy = self.values.T
        nx, ny = mesh.edge_normal.T
        K, L = mesh.edge_owner, mesh.edge_neighbor
        flux = 0.5 * ((ux[K] * nx + uy[K] * ny) + (ux[L] * nx + uy[L] * ny))
        flux[mesh.boundary_edges] = 0.0
        return flux


# -- projections --------------------------------------------------------------

def _as_points(f, pts):
    """Evaluate f on an (..., 2) point array, accepting f(x, y) vectorized."""
    return np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)


def project_p0(f, mesh: Mesh) -> VectorP0:
    """Cell averages of a vector f(x, y) -> (..., 2) by quadrature; exact
    for polynomials up to degree 4."""
    bary, w = quadrature.triangle_rule(4)
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    vals = _as_points(f, pts)  # (nt, nq, 2)
    return VectorP0(mesh, np.einsum("tqd,q->td", vals, w))


def collocate_p0(f, mesh: Mesh) -> VectorP0:
    """Point values at circumcenters (the collocation variant of the cell
    projection, defined for continuous functions)."""
    return VectorP0(mesh, _as_points(f, mesh.tri_center))


RT0_POINTS = 5      # Gauss points per edge of project_rt0


def project_rt0(f, mesh: Mesh) -> VectorRT0:
    """Edge means of the normal component; boundary fluxes forced to zero.
    The RT0_POINTS-point Gauss rule is exact to degree 9: it integrates the
    degree-7 edge traces of the consistency-rate check's transporting field,
    so that field's per-cell flux balance vanishes."""
    t, w = quadrature.segment_rule(RT0_POINTS)
    pts = quadrature.segment_points(mesh.vertices[mesh.edges[:, 0]],
                                    mesh.vertices[mesh.edges[:, 1]], t)
    vals = _as_points(f, pts)  # (ne, nq, 2)
    flux = np.einsum("eqd,q,ed->e", vals, w, mesh.edge_normal)
    flux[mesh.boundary_edges] = 0.0
    return VectorRT0(mesh, flux)


# -- masses, inner products, norms ---------------------------------------------

@per_mesh
def p1nc_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal edge-midpoint-rule mass; exact on the nonconforming space;
    read-only."""
    mass = np.zeros(mesh.num_edges)
    np.add.at(mass, mesh.tri_edges.ravel(), np.repeat(mesh.tri_area / 3.0, 3))
    mass.flags.writeable = False
    return mass


def l2_inner(a, b) -> float:
    _check_same(a, b)
    mesh = a.mesh
    if isinstance(a, VectorP0):
        return float(np.sum(mesh.tri_area @ (a.values * b.values)))
    if isinstance(a, ScalarP1NC):
        return float(np.sum(p1nc_mass(mesh) * a.values * b.values))
    raise SpaceMismatchError(f"no inner product for {type(a).__name__}")


def l2_norm(a) -> float:
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


@per_mesh
def h_gram(mesh: Mesh) -> sp.csr_matrix:
    """Gram matrix of the discrete H1 seminorm-with-boundary: the symmetric
    two-point-flux stiffness (per scalar component).

    v' H v = sum_int tau |v_L - v_K|^2 + sum_ext tau |v_K|^2.
    """
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
    # the summed data and indices are views of the longer COO-length
    # arrays, and every momentum matrix shares these indices
    return H.copy()


def h_norm(v) -> float:
    """Discrete H1 norm of a cellwise field; zero only for the zero field
    (boundary edges see the full cell value).  Summed edge by edge, never
    through ``h_gram``, which the coercivity check compares it with."""
    if not isinstance(v, VectorP0):
        raise SpaceMismatchError(f"h_norm is for cellwise fields, got {type(v).__name__}")
    mesh = v.mesh
    K, L, bnd = mesh.edge_owner, mesh.edge_neighbor, mesh.boundary_edges
    s = 0.0
    for c in v.values.T:
        jump = c[K] - c[L]
        jump[bnd] = c[K[bnd]]
        s += (mesh.edge_tau * jump) @ jump
    return float(np.sqrt(max(s, 0.0)))


def mean_zero(q: ScalarP1NC) -> ScalarP1NC:
    """Subtract the mesh-weighted mean so the field integrates to zero."""
    m = p1nc_mass(q.mesh)
    mean = float(m @ q.values) / float(m.sum())
    return ScalarP1NC(q.mesh, q.values - mean)
