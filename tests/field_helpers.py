"""Field evaluations that only the tests use: the edge-mean projection
onto the nonconforming-P1 space, the L2 error of a cellwise-constant
field, and the per-cell affine reconstructions of nonconforming-P1
scalars and lowest-order flux vectors."""
import numpy as np

from fvproj import quadrature
from fvproj.fields import ScalarP1NC, VectorP0, VectorRT0
from fvproj.mesh import Mesh


def project_p1nc(f, mesh: Mesh, npoints: int = 3) -> ScalarP1NC:
    """Edge means by Gauss quadrature; the midpoint dof of the affine
    reconstruction equals the edge mean."""
    t, w = quadrature.segment_rule(npoints)
    pts = quadrature.segment_points(mesh.vertices[mesh.edges[:, 0]],
                                    mesh.vertices[mesh.edges[:, 1]], t)
    return ScalarP1NC(mesh, np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float) @ w)


def p0_l2_error(field: VectorP0, exact) -> float:
    """|exact - field| in L2, by the degree-4 rule on each cell."""
    mesh = field.mesh
    bary, w = quadrature.triangle_rule(4)
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    diff = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=float) - field.values[:, None, :]
    return float(np.sqrt(np.einsum("tqd,tqd,q,t->", diff, diff, w, mesh.tri_area)))


def p1nc_cell_values(q: ScalarP1NC, bary: np.ndarray) -> np.ndarray:
    """Evaluate the per-cell affine reconstruction at barycentric points;
    returns (nt, nq)."""
    basis = 1.0 - 2.0 * np.asarray(bary)  # phi_j = 1 - 2*lambda_j
    dofs = q.values[q.mesh.tri_edges]  # (nt, 3)
    return dofs @ basis.T


def rt0_cell_reconstruction(u: VectorRT0, bary: np.ndarray) -> np.ndarray:
    """Evaluate the a + b*x reconstruction at barycentric points.

    Returns (nt, nq, 2).  Basis for edge j (opposite vertex j):
    |e_j| / (2|K|) * (x - p_j), with the owner-sign flip applied.
    """
    mesh = u.mesh
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], np.asarray(bary))
    out = np.zeros_like(pts)
    sign = np.where(mesh.edge_owner[mesh.tri_edges]
                    == np.arange(mesh.num_triangles)[:, None], 1.0, -1.0)
    for j in range(3):
        e = mesh.tri_edges[:, j]
        coef = (u.values[e] * sign[:, j] * mesh.edge_length[e]
                / (2.0 * mesh.tri_area))
        p = mesh.vertices[mesh.triangles[:, j]]
        out += coef[:, None, None] * (pts - p[:, None, :])
    return out
