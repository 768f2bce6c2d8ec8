"""Independent reference computations that ``fvproj verify`` compares the
production operators with: the adjointness pairings, the inf-sup supremum
and the dense generalized eigenvalues.

Everything here is assembled by direct enumeration with its own geometry
(areas by the shoelace formula, circumcenters from perpendicular-bisector
intersections, affine reconstructions by solving 3x3 interpolation
systems).  It imports no ``fvproj`` module and shares no code with the
sparse assembly paths, so agreement is a genuine cross-check rather than
a tautology.  The oracles that only the tests compare against live in
``tests/loop_oracles.py``.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


# -- local geometry (recomputed from scratch) -----------------------------------

def _tri_pts(mesh, k):
    return [mesh.vertices[v] for v in mesh.triangles[k]]


def _area(mesh, k):
    a, b, c = _tri_pts(mesh, k)
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _circumcenter(mesh, k):
    a, b, c = _tri_pts(mesh, k)
    # intersect two perpendicular bisectors
    m1, d1 = 0.5 * (a + b), b - a
    m2, d2 = 0.5 * (a + c), c - a
    A = np.array([[d1[0], d1[1]], [d2[0], d2[1]]])
    rhs = np.array([d1 @ m1, d2 @ m2])
    return np.linalg.solve(A, rhs)


def _edge_normal_out_of(mesh, e, k):
    va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
    t = vb - va
    n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
    opp = [v for v in mesh.triangles[k] if v not in mesh.edges[e]]
    mid = 0.5 * (va + vb)
    if n @ (mid - mesh.vertices[opp[0]]) < 0:
        n = -n
    return n


def _tau(mesh, e):
    va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
    length = np.linalg.norm(vb - va)
    K = mesh.edge_owner[e]
    L = mesh.edge_neighbor[e]
    if L >= 0:
        d = np.linalg.norm(_circumcenter(mesh, L) - _circumcenter(mesh, K))
    else:
        d = np.linalg.norm(0.5 * (va + vb) - _circumcenter(mesh, K))
    return length / d


# -- direct forms -----------------------------------------------------------------

def gradient_direct(mesh, qvals) -> np.ndarray:
    """Per-triangle gradient by solving the 3x3 affine interpolation through
    the three edge-midpoint values, then differentiating."""
    out = np.empty((mesh.num_triangles, 2))
    for k in range(mesh.num_triangles):
        rows = []
        rhs = []
        for e in mesh.tri_edges[k]:
            va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
            mid = 0.5 * (va + vb)
            rows.append([1.0, mid[0], mid[1]])
            rhs.append(qvals[e])
        coef = np.linalg.solve(np.array(rows), np.array(rhs))
        out[k] = coef[1:]
    return out


def divergence_direct(mesh, vvals) -> np.ndarray:
    """Edgewise divergence values straight from the defining formula, with
    locally recomputed areas and normals."""
    out = np.empty(mesh.num_edges)
    for e in range(mesh.num_edges):
        K = mesh.edge_owner[e]
        L = mesh.edge_neighbor[e]
        n = _edge_normal_out_of(mesh, e, K)
        va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
        length = np.linalg.norm(vb - va)
        if L >= 0:
            coef = 3.0 * length / (_area(mesh, K) + _area(mesh, L))
            out[e] = coef * (vvals[L] - vvals[K]) @ n
        else:
            coef = 3.0 * length / _area(mesh, K)
            out[e] = -coef * vvals[K] @ n
    return out


def p0_inner_direct(mesh, a, b) -> float:
    total = 0.0
    for k in range(mesh.num_triangles):
        total += _area(mesh, k) * float(np.dot(np.atleast_1d(a[k]), np.atleast_1d(b[k])))
    return total


def p1nc_inner_direct(mesh, q, r) -> float:
    """Triangle-by-triangle edge-midpoint quadrature: sum |K|/3 q(m) r(m)."""
    total = 0.0
    for k in range(mesh.num_triangles):
        w = _area(mesh, k) / 3.0
        for e in mesh.tri_edges[k]:
            total += w * q[e] * r[e]
    return total


def h_gram_direct(mesh) -> np.ndarray:
    """Dense Gram matrix of the discrete H1 norm by edge enumeration."""
    nt = mesh.num_triangles
    H = np.zeros((nt, nt))
    for e in range(mesh.num_edges):
        tau = _tau(mesh, e)
        K = mesh.edge_owner[e]
        L = mesh.edge_neighbor[e]
        if L >= 0:
            H[K, K] += tau
            H[L, L] += tau
            H[K, L] -= tau
            H[L, K] -= tau
        else:
            H[K, K] += tau
    return H


def adjointness_sides_direct(mesh, vvals, qvals):
    """Both pairings of the adjointness identity by independent routes."""
    grad = gradient_direct(mesh, qvals)
    lhs = p0_inner_direct(mesh, vvals, grad)
    div = divergence_direct(mesh, vvals)
    rhs = -p1nc_inner_direct(mesh, qvals, div)
    return lhs, rhs


# -- dense dual norms --------------------------------------------------------------

def _h_dual_norm(mesh, coef) -> float:
    """sup over cellwise v of (c, v) / ||v||_h, which by Cauchy-Schwarz in
    the H inner product is sqrt(c' H^{-1} c): one dense Cholesky solve for
    both components of the (nt, 2) coefficients."""
    factor = scipy.linalg.cho_factor(h_gram_direct(mesh))
    w = scipy.linalg.cho_solve(factor, coef)
    return float(np.sqrt(np.sum(coef * w)))


def infsup_sup_over_velocities(mesh, qvals) -> float:
    """sup over cellwise v of -(q, div_h v) / ||v||_h for a fixed pressure
    (no Schur shortcut).

    The pairing is linear in v; its coefficients are assembled here by
    direct edge enumeration.
    """
    ne = mesh.num_edges
    nt = mesh.num_triangles
    area = np.array([_area(mesh, k) for k in range(nt)])
    coef = np.zeros((nt, 2))
    for e in range(ne):
        L = mesh.edge_neighbor[e]
        K = mesh.edge_owner[e]
        n = _edge_normal_out_of(mesh, e, K)
        va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
        length = np.linalg.norm(vb - va)
        if L >= 0:
            w = (area[K] + area[L]) / 3.0
            c = 3.0 * length / (area[K] + area[L])
            coef[L] -= w * qvals[e] * c * n
            coef[K] += w * qvals[e] * c * n
        else:
            w = area[K] / 3.0
            c = 3.0 * length / area[K]
            coef[K] += w * qvals[e] * c * n
    return _h_dual_norm(mesh, coef)


def p1nc_l2_norm_direct(mesh, qvals) -> float:
    return float(np.sqrt(p1nc_inner_direct(mesh, qvals, qvals)))


def generalized_eig_extremes(A: np.ndarray, B: np.ndarray):
    """(min, max) eigenvalues of A x = lambda B x for SPD B, dense."""
    vals = scipy.linalg.eigh(A, B, eigvals_only=True)
    return float(vals[0]), float(vals[-1])
