"""Small meshes that only the tests build: a single triangle and two
inadmissible (right-angled) triangulations of the unit square; and the
writer of the mesh formats that the tests read back."""
from pathlib import Path

import numpy as np

from fvproj.mesh import Mesh


def save_mesh(mesh: Mesh, path) -> None:
    """Write the format that ``load_mesh`` reads from ``path``: for a
    ``.node`` or ``.ele`` suffix both files of the stem, 1-based; for any
    other the single-file plain-text format."""
    path = Path(path)
    if path.suffix in (".node", ".ele"):
        with open(path.with_suffix(".node"), "w") as f:
            f.write(f"{mesh.num_vertices} 2 0 0\n")
            for n, (x, y) in enumerate(mesh.vertices, 1):
                f.write(f"{n} {x:.17g} {y:.17g}\n")
        with open(path.with_suffix(".ele"), "w") as f:
            f.write(f"{mesh.num_triangles} 3 0\n")
            for n, (i, j, k) in enumerate(mesh.triangles, 1):
                f.write(f"{n} {i + 1} {j + 1} {k + 1}\n")
        return
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")


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
