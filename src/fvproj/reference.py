"""Independent reference computations for cross-validating the production
operators.

Everything here is assembled by direct enumeration with its own geometry
(areas by the shoelace formula, circumcenters from perpendicular-bisector
intersections, affine reconstructions by solving 3x3 interpolation
systems).  No code is shared with the sparse assembly paths, so agreement
is a genuine cross-check rather than a tautology.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize


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


def p1nc_mass_direct(mesh) -> np.ndarray:
    """Full consistent mass of the nonconforming basis, integrated with a
    degree-4 rule (not the midpoint rule).  Diagonality is therefore a
    genuine property of the basis, not an artifact of the quadrature."""
    from .quadrature import triangle_rule

    bary, w = triangle_rule(4)
    phis = 1.0 - 2.0 * bary  # (nq, 3): phi_j = 1 - 2 lambda_j at each point
    ne = mesh.num_edges
    M = np.zeros((ne, ne))
    for k in range(mesh.num_triangles):
        area = _area(mesh, k)
        local = np.einsum("q,qi,qj->ij", w, phis, phis) * area
        idx = mesh.tri_edges[k]
        for i in range(3):
            for j in range(3):
                M[idx[i], idx[j]] += local[i, j]
    return M


def h_norm_direct(mesh, vvals) -> float:
    total = 0.0
    for e in range(mesh.num_edges):
        tau = _tau(mesh, e)
        K = mesh.edge_owner[e]
        L = mesh.edge_neighbor[e]
        if L >= 0:
            diff = np.atleast_1d(vvals[L] - vvals[K])
        else:
            diff = np.atleast_1d(vvals[K])
        total += tau * float(diff @ diff)
    return float(np.sqrt(total))


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


def upwind_direct(mesh, fluxes, vvals) -> np.ndarray:
    """Donor-cell transport by explicit case analysis per edge."""
    out = np.zeros_like(vvals)
    for e in range(mesh.num_edges):
        L = mesh.edge_neighbor[e]
        if L < 0:
            continue
        K = mesh.edge_owner[e]
        va, vb = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
        length = np.linalg.norm(vb - va)
        f = fluxes[e]
        donor_K = vvals[K] if f >= 0 else vvals[L]
        out[K] += length * f * donor_K / _area(mesh, K)
        donor_L = vvals[L] if -f >= 0 else vvals[K]
        out[L] += length * (-f) * donor_L / _area(mesh, L)
    return out


def adjointness_sides_direct(mesh, vvals, qvals):
    """Both pairings of the adjointness identity by independent routes."""
    grad = gradient_direct(mesh, qvals)
    lhs = p0_inner_direct(mesh, vvals, grad)
    div = divergence_direct(mesh, vvals)
    rhs = -p1nc_inner_direct(mesh, qvals, div)
    return lhs, rhs


# -- brute-force extremal quantities -----------------------------------------------

def brute_force_dual_norm(mesh, vvals, seed: int = 0, starts: int = 8) -> float:
    """Maximize (v, psi) / ||psi||_h over cellwise psi by quasi-Newton ascent
    from several seeded starts (no closed-form solve)."""
    H = h_gram_direct(mesh)
    nt = mesh.num_triangles
    area = np.array([_area(mesh, k) for k in range(nt)])
    mv = (area[:, None] * vvals).ravel()

    def neg_ratio(psi_flat):
        p = psi_flat.reshape(nt, 2)
        hn = np.sqrt(p[:, 0] @ H @ p[:, 0] + p[:, 1] @ H @ p[:, 1])
        if hn == 0:
            return 0.0
        return -(mv @ psi_flat) / hn

    def grad(psi_flat):
        p = psi_flat.reshape(nt, 2)
        Hp = np.stack([H @ p[:, 0], H @ p[:, 1]], axis=1).ravel()
        hn2 = psi_flat @ Hp
        hn = np.sqrt(hn2)
        num = mv @ psi_flat
        return -(mv / hn - num * Hp / (hn2 * hn))

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        x0 = rng.standard_normal(2 * nt)
        res = scipy.optimize.minimize(neg_ratio, x0, jac=grad, method="BFGS",
                                      options={"gtol": 1e-14, "maxiter": 500})
        best = max(best, -res.fun)
    return best


def infsup_sup_over_velocities(mesh, qvals, seed: int = 0, starts: int = 8) -> float:
    """sup over cellwise v of -(q, div_h v) / ||v||_h for a fixed pressure,
    by quasi-Newton ascent over the velocity sphere (no Schur shortcut).

    The pairing is linear in v; its coefficients are assembled here by
    direct edge enumeration.
    """
    ne = mesh.num_edges
    nt = mesh.num_triangles
    H = h_gram_direct(mesh)
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
    b = coef.ravel()

    def neg(vflat):
        v = vflat.reshape(nt, 2)
        hn = np.sqrt(v[:, 0] @ H @ v[:, 0] + v[:, 1] @ H @ v[:, 1])
        return -(b @ vflat) / hn if hn > 0 else 0.0

    def grad(vflat):
        v = vflat.reshape(nt, 2)
        Hv = np.stack([H @ v[:, 0], H @ v[:, 1]], axis=1).ravel()
        hn2 = vflat @ Hv
        hn = np.sqrt(hn2)
        return -(b / hn - (b @ vflat) * Hv / (hn2 * hn))

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        res = scipy.optimize.minimize(neg, rng.standard_normal(2 * nt),
                                      jac=grad, method="BFGS",
                                      options={"gtol": 1e-14, "maxiter": 500})
        best = max(best, -res.fun)
    return float(best)


def p1nc_l2_norm_direct(mesh, qvals) -> float:
    return float(np.sqrt(p1nc_inner_direct(mesh, qvals, qvals)))


def generalized_eig_extremes(A: np.ndarray, B: np.ndarray):
    """(min, max) eigenvalues of A x = lambda B x for SPD B, dense."""
    vals = scipy.linalg.eigh(A, B, eigvals_only=True)
    return float(vals[0]), float(vals[-1])


def zero_mean_solve_dense(A: np.ndarray, b, weights) -> np.ndarray:
    """x with w . x = 0 solving A x = b (A singular with the constants as
    kernel): dense LU of the bordered system [[A, w], [w', 0]]."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(w)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A
    aug[:n, n] = w
    aug[n, :n] = w
    return np.linalg.solve(aug, np.append(b, 0.0))[:n]


# -- mesh construction by loops -------------------------------------------------

def boundary_polygon_area(mesh) -> float:
    """Area enclosed by the boundary loop(s), by the shoelace formula over
    the counterclockwise boundary half-edges: the (a, b) of a triangle
    whose reverse (b, a) belongs to no triangle."""
    half = {(int(t[j]), int(t[(j + 1) % 3])) for t in mesh.triangles for j in range(3)}
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return 0.5 * sum(x[a] * y[b] - x[b] * y[a]
                     for a, b in sorted(half) if (b, a) not in half)


def edge_topology_loop(vertices, triangles):
    """Edge arrays of a triangulation by dictionary enumeration.

    Returns a dict with ``edges`` (vertex pairs, sorted lexicographically),
    ``edge_owner`` (lowest adjacent triangle id), ``edge_neighbor`` (-1 on
    the boundary), ``tri_edges`` (edge opposite each local vertex) and
    ``edge_normal`` (unit normal pointing away from the owner's opposite
    vertex).  Raises ValueError on an edge shared by more than two
    triangles.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    pairs = {}
    for k in range(nt):
        t = triangles[k]
        for j in range(3):
            key = (min(t[(j + 1) % 3], t[(j + 2) % 3]),
                   max(t[(j + 1) % 3], t[(j + 2) % 3]))
            pairs.setdefault(key, []).append((k, j))
    for key, owners in pairs.items():
        if len(owners) > 2:
            raise ValueError(f"edge {key} shared by {len(owners)} triangles")

    keys = sorted(pairs)
    edges = np.array(keys, dtype=np.int64).reshape(-1, 2)
    ne = len(keys)
    owner = np.empty(ne, dtype=np.int64)
    neighbor = np.full(ne, -1, dtype=np.int64)
    tri_edges = np.empty((nt, 3), dtype=np.int64)
    for e, key in enumerate(keys):
        inc = sorted(pairs[key])
        owner[e] = inc[0][0]
        if len(inc) == 2:
            neighbor[e] = inc[1][0]
        for k, j in inc:
            tri_edges[k, j] = e

    va = vertices[edges[:, 0]]
    vb = vertices[edges[:, 1]]
    tang = (vb - va) / np.linalg.norm(vb - va, axis=1)[:, None]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    opp = np.empty((ne, 2))
    for e in range(ne):
        k = owner[e]
        j = int(np.where(tri_edges[k] == e)[0][0])
        opp[e] = vertices[triangles[k, j]]
    flip = np.einsum("ed,ed->e", normal, 0.5 * (va + vb) - opp) < 0
    normal[flip] *= -1.0
    return {"edges": edges, "edge_owner": owner, "edge_neighbor": neighbor,
            "tri_edges": tri_edges, "edge_normal": normal}


def refine_uniform_loop(vertices, triangles):
    """(vertices, triangles) of the 4-to-1 midpoint refinement, children
    appended triangle by triangle."""
    vertices = np.asarray(vertices, dtype=float)
    topo = edge_topology_loop(vertices, triangles)
    edges = topo["edges"]
    mid = len(vertices) + np.arange(len(edges))
    verts = np.vstack([vertices,
                       0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])])
    tris = []
    for k, (v0, v1, v2) in enumerate(np.asarray(triangles, dtype=np.int64)):
        m0, m1, m2 = mid[topo["tri_edges"][k]]
        tris += [(v0, m2, m1), (m2, v1, m0), (m1, m0, v2), (m0, m1, m2)]
    return verts, np.array(tris, dtype=np.int64)
