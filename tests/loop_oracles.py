"""Loop-built oracles that only the tests compare against: the consistent
nonconforming-P1 mass, the discrete H1 norm, donor-cell transport, the
dense dual norm and zero-mean solve, and the mesh's boundary area, edge
topology and uniform refinement.

Like ``fvproj.reference``, whose local geometry they reuse, they are
assembled by direct enumeration and share no code with the sparse
assembly paths; only the degree-4 rule of ``p1nc_mass_direct`` comes from
``fvproj.quadrature``.
"""
import numpy as np

from fvproj.quadrature import triangle_rule
from fvproj.reference import _area, _h_dual_norm, _tau


def p1nc_mass_direct(mesh) -> np.ndarray:
    """Full consistent mass of the nonconforming basis, integrated with a
    degree-4 rule (not the midpoint rule).  Diagonality is therefore a
    genuine property of the basis, not an artifact of the quadrature."""
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


def brute_force_dual_norm(mesh, vvals) -> float:
    """sup over cellwise psi of (v, psi) / ||psi||_h, from the directly
    assembled Gram matrix and areas."""
    area = np.array([_area(mesh, k) for k in range(mesh.num_triangles)])
    return _h_dual_norm(mesh, area[:, None] * vvals)


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
