"""Small meshes that only the tests build: a single triangle and two
inadmissible (right-angled) triangulations of the unit square."""
import numpy as np

from fvproj.mesh import Mesh


def single_triangle(vertices=((0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2))) -> Mesh:
    """One triangle; default equilateral with unit sides."""
    return Mesh(np.array(vertices, dtype=float), np.array([[0, 1, 2]]))


def square_two_triangles() -> Mesh:
    """Unit square split by one diagonal.  Right angles: not admissible."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, tris)


def unit_square_crisscross(n: int = 2) -> Mesh:
    """n*n grid, each cell cut into 4 by both diagonals.  All angles are
    pi/4 or pi/2: not admissible."""
    pts = []
    idx = {}

    def vid(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in idx:
            idx[key] = len(pts)
            pts.append(key)
        return idx[key]

    tris = []
    d = 1.0 / n
    for i in range(n):
        for j in range(n):
            x0, y0 = i * d, j * d
            c = vid(x0 + d / 2, y0 + d / 2)
            corners = [vid(x0, y0), vid(x0 + d, y0), vid(x0 + d, y0 + d), vid(x0, y0 + d)]
            for a in range(4):
                tris.append((corners[a], corners[(a + 1) % 4], c))
    return Mesh(np.array(pts, dtype=float), np.array(tris, dtype=np.int64))
