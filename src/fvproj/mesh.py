"""Triangular meshes with circumcenter-based edge geometry.

A mesh is admissible when every interior angle is strictly acute, which
puts each circumcenter strictly inside its triangle and makes the
circumcenter-to-circumcenter segment of neighbouring triangles orthogonal
to their shared edge.  All edge weights (transmissibilities) of the
two-point-flux operators are derived from that geometry.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MeshFormatError(ValueError):
    """Malformed mesh file."""


class MeshTopologyError(ValueError):
    """Indices out of range, duplicate triangles, or non-manifold edges."""


class MeshOrientationError(ValueError):
    """Triangle with non-positive signed area."""


@dataclass(frozen=True)
class MeshQualityReport:
    min_angle: float
    max_angle: float
    min_tau: float
    min_d_over_edge: float
    min_edge_over_h: float
    admissible: bool

    def __str__(self):
        deg = 180.0 / np.pi
        return (
            f"angles [{self.min_angle * deg:.3f}, {self.max_angle * deg:.3f}] deg, "
            f"min tau {self.min_tau:.4g}, min d/|e| {self.min_d_over_edge:.4g}, "
            f"min |e|/h {self.min_edge_over_h:.4g}, "
            f"admissible={self.admissible}"
        )


class Mesh:
    """Immutable triangulation with cell, edge, and connectivity data.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    tri_area : (nt,) areas
    tri_center : (nt, 2) circumcenters
    tri_diameter : (nt,) circumcircle diameters
    tri_edges : (nt, 3) edge id opposite each local vertex
    edges : (ne, 2) vertex pairs, sorted lexicographically
    edge_length, edge_midpoint : per-edge geometry
    edge_owner, edge_neighbor : adjacent triangle ids (-1 when boundary)
    edge_normal : (ne, 2) unit normal pointing out of the owner
    edge_d : circumcenter distance (owner-to-neighbor, or owner-to-midpoint
        on the boundary)
    edge_tau : edge_length / edge_d (inf when edge_d == 0)
    interior_edges, boundary_edges : index arrays
    h : largest circumcircle diameter
    """

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (nt, 3) array")
        nv = len(vertices)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise MeshTopologyError("triangle vertex index out of range")
        keys = np.sort(triangles, axis=1)
        keys = keys[np.lexsort(keys.T[::-1])]
        if np.any(np.all(keys[1:] == keys[:-1], axis=1)):
            raise MeshTopologyError("duplicate triangle")

        self.vertices = vertices
        self.vertices.setflags(write=False)
        self.triangles = triangles
        self.triangles.setflags(write=False)

        p = vertices[triangles]  # (nt, 3, 2)
        a, b, c = p[:, 0], p[:, 1], p[:, 2]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        if np.any(cross <= 0):
            bad = int(np.argmax(cross <= 0))
            raise MeshOrientationError(
                f"triangle {bad} has non-positive signed area {0.5 * cross[bad]:.3e}"
            )
        self.tri_area = 0.5 * cross
        self.tri_area.setflags(write=False)
        self.tri_center = _circumcenters(a, b, c, cross)
        self.tri_center.setflags(write=False)
        self.tri_diameter = 2.0 * np.linalg.norm(a - self.tri_center, axis=1)
        self.tri_diameter.setflags(write=False)
        self.h = float(self.tri_diameter.max()) if len(triangles) else 0.0

        self._build_edges()
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_edges(self):
        nt = len(self.triangles)
        # half-edge h = 3k + j is the edge opposite local vertex j of
        # triangle k, i.e. (v_{j+1}, v_{j+2}); a stable sort by its vertex
        # pair groups each edge's half-edges in increasing triangle order
        tri = self.triangles
        a, b = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(order)))
        if np.any(counts > 2):
            e = int(np.argmax(counts > 2))
            key = (int(lo[starts[e]]), int(hi[starts[e]]))
            raise MeshTopologyError(f"edge {key} shared by {counts[e]} triangles")

        self.edges = np.stack([lo[starts], hi[starts]], axis=1)
        ne = len(starts)
        owner_half = order[starts]
        self.edge_owner = owner_half // 3
        self.edge_neighbor = np.full(ne, -1, dtype=np.int64)
        pair = counts == 2
        self.edge_neighbor[pair] = order[starts[pair] + 1] // 3
        tri_edges = np.empty(3 * nt, dtype=np.int64)
        tri_edges[order] = np.cumsum(first) - 1
        self.tri_edges = tri_edges.reshape(nt, 3)

        va = self.vertices[self.edges[:, 0]]
        vb = self.vertices[self.edges[:, 1]]
        self.edge_midpoint = 0.5 * (va + vb)
        self.edge_length = np.linalg.norm(vb - va, axis=1)
        tang = (vb - va) / self.edge_length[:, None]
        normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        # orient out of the owner: away from the opposite vertex
        opp = self.vertices[tri.ravel()[owner_half]]
        flip = np.einsum("ed,ed->e", normal, self.edge_midpoint - opp) < 0
        normal[flip] *= -1.0
        self.edge_normal = normal

        interior = self.edge_neighbor >= 0
        d = np.empty(ne)
        d[interior] = np.linalg.norm(
            self.tri_center[self.edge_neighbor[interior]]
            - self.tri_center[self.edge_owner[interior]], axis=1)
        d[~interior] = np.linalg.norm(
            self.edge_midpoint[~interior] - self.tri_center[self.edge_owner[~interior]],
            axis=1)
        self.edge_d = d
        with np.errstate(divide="ignore"):
            self.edge_tau = np.where(d > 0, self.edge_length / np.where(d > 0, d, 1.0), np.inf)
        self.interior_edges = np.nonzero(interior)[0]
        self.boundary_edges = np.nonzero(~interior)[0]
        for arr in (self.edges, self.edge_owner, self.edge_neighbor, self.tri_edges,
                    self.edge_midpoint, self.edge_length, self.edge_normal,
                    self.edge_d, self.edge_tau, self.interior_edges, self.boundary_edges):
            arr.setflags(write=False)

    # -- basic queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def area(self):
        return float(self.tri_area.sum())

    def angles(self):
        """All interior angles, shape (nt, 3); entry j is at local vertex j."""
        p = self.vertices[self.triangles]
        out = np.empty((len(self.triangles), 3))
        for j in range(3):
            u = p[:, (j + 1) % 3] - p[:, j]
            v = p[:, (j + 2) % 3] - p[:, j]
            cosang = np.einsum("td,td->t", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            out[:, j] = np.arccos(np.clip(cosang, -1.0, 1.0))
        return out

    def __repr__(self):
        return (f"Mesh(nv={self.num_vertices}, nt={self.num_triangles}, "
                f"ne={self.num_edges}, h={self.h:.4g})")


def _circumcenters(a, b, c, cross):
    a2 = (a * a).sum(1)
    b2 = (b * b).sum(1)
    c2 = (c * c).sum(1)
    d = 2.0 * cross
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
    return np.stack([ux, uy], axis=1)


# -- validation ----------------------------------------------------------------

def validate_mesh(mesh: Mesh) -> MeshQualityReport:
    """Quality report; never raises.

    Admissibility requires strictly acute angles and positive
    circumcenter distances on every edge.
    """
    ang = mesh.angles()
    tau = mesh.edge_tau
    with np.errstate(invalid="ignore"):
        d_over_edge = mesh.edge_d / mesh.edge_length
    edge_over_h = mesh.edge_length / mesh.h if mesh.h > 0 else np.zeros_like(mesh.edge_length)
    min_d = float(d_over_edge.min()) if len(d_over_edge) else 0.0
    admissible = bool(ang.max() < 0.5 * np.pi and min_d > 0.0 and np.all(np.isfinite(tau)))
    return MeshQualityReport(
        min_angle=float(ang.min()),
        max_angle=float(ang.max()),
        min_tau=float(tau.min()),
        min_d_over_edge=min_d,
        min_edge_over_h=float(edge_over_h.min()) if len(edge_over_h) else 0.0,
        admissible=admissible,
    )


def require_admissible(mesh: Mesh, allow_degenerate: bool = False) -> MeshQualityReport:
    """Raise on inadmissible meshes unless degeneracy is explicitly allowed."""
    report = validate_mesh(mesh)
    if not report.admissible:
        msg = f"mesh is not admissible: {report}"
        if allow_degenerate:
            warnings.warn(msg, stacklevel=2)
        else:
            raise MeshTopologyError(msg)
    return report


# -- file I/O -------------------------------------------------------------------

def load_mesh(path, fmt: str = "single-file") -> Mesh:
    """Read a mesh from disk.

    ``single-file``: line 1 is ``NV NT``, then NV ``x y`` lines, then NT
    ``i j k`` lines with 0-based vertex ids.

    ``node-ele``: the planar-triangulation two-file convention.  ``path``
    names either file or the common stem; the leading index column of each
    line is honoured (1-based in the wild) and attribute/marker columns
    are ignored.
    """
    path = Path(path)
    if fmt == "single-file":
        return _load_single(path)
    if fmt == "node-ele":
        return _load_node_ele(path)
    raise ValueError(f"unknown mesh format {fmt!r}")


def _tokens(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            yield line.split()


def _load_single(path) -> Mesh:
    rows = list(_tokens(path))
    if not rows or len(rows[0]) != 2:
        raise MeshFormatError(f"{path}: expected header 'NV NT'")
    try:
        nv, nt = int(rows[0][0]), int(rows[0][1])
        if len(rows) != 1 + nv + nt:
            raise MeshFormatError(
                f"{path}: expected {1 + nv + nt} content lines, found {len(rows)}")
        verts = np.array([[float(x) for x in r] for r in rows[1:1 + nv]])
        tris = np.array([[int(x) for x in r] for r in rows[1 + nv:]], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, MeshFormatError):
            raise
        raise MeshFormatError(f"{path}: {exc}") from exc
    if verts.size and verts.shape[1] != 2:
        raise MeshFormatError(f"{path}: vertex lines must be 'x y'")
    if tris.size and tris.shape[1] != 3:
        raise MeshFormatError(f"{path}: triangle lines must be 'i j k'")
    return Mesh(verts, tris)


def _load_node_ele(path) -> Mesh:
    path = Path(path)
    stem = path.with_suffix("") if path.suffix in (".node", ".ele") else path
    node_path, ele_path = stem.with_suffix(".node"), stem.with_suffix(".ele")

    rows = list(_tokens(node_path))
    if not rows:
        raise MeshFormatError(f"{node_path}: empty file")
    try:
        nv = int(rows[0][0])
        ids = []
        coords = []
        for r in rows[1:1 + nv]:
            ids.append(int(r[0]))
            coords.append((float(r[1]), float(r[2])))
        if len(coords) != nv:
            raise MeshFormatError(f"{node_path}: expected {nv} vertex lines")
        id_map = {i: row for row, i in enumerate(ids)}
        verts = np.array(coords)

        rows = list(_tokens(ele_path))
        nt = int(rows[0][0])
        tris = []
        for r in rows[1:1 + nt]:
            try:
                tris.append([id_map[int(x)] for x in r[1:4]])
            except KeyError as exc:
                raise MeshTopologyError(
                    f"{ele_path}: vertex id {exc.args[0]} not in {node_path}") from None
        if len(tris) != nt:
            raise MeshFormatError(f"{ele_path}: expected {nt} triangle lines")
    except (ValueError, IndexError) as exc:
        if isinstance(exc, (MeshFormatError, MeshTopologyError)):
            raise
        raise MeshFormatError(f"{node_path}/{ele_path}: {exc}") from exc
    return Mesh(verts, np.array(tris, dtype=np.int64))


def save_mesh(mesh: Mesh, path) -> None:
    """Write the single-file plain-text format."""
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")


# -- refinement ------------------------------------------------------------------

# children of (v0, v1, v2) as columns of [v0, v1, v2, m0, m1, m2], where
# m_j is the midpoint of the edge opposite v_j
_CHILDREN = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2], [3, 4, 5]])


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children by edge midpoints.

    Child angles equal parent angles, so admissibility and all quality
    ratios survive refinement; h halves exactly.
    """
    corners = np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_edges])
    tris = corners[:, _CHILDREN].reshape(-1, 3)
    verts = np.vstack([mesh.vertices, mesh.edge_midpoint])
    return Mesh(verts, tris)


# -- built-in meshes ---------------------------------------------------------------

def equilateral_pair() -> Mesh:
    """Two unit equilateral triangles sharing an edge (a rhombus).

    The smallest admissible mesh with an interior edge: circumcenters are
    distinct, so every transmissibility is finite.
    """
    s = np.sqrt(3) / 2
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, s], [0.5, -s]])
    tris = np.array([[0, 1, 2], [1, 0, 3]])
    return Mesh(verts, tris)


# A strictly acute triangulation of the unit square (26 triangles, max
# angle 73.12 deg, min 40.64 deg), found offline by minimizing the largest
# angle over the free coordinates of a symmetric point layout.  Uniform
# refinement reproduces the same angle set at every level.
_ACUTE_S = 0.379698   # side-point offset from each corner
_ACUTE_A = 0.324656   # (0.5, a): interior point near bottom/top
_ACUTE_B = 0.736471   # (b, 0.5): interior point near right/left
_ACUTE_CX = 0.236719  # (cx, cy): interior points near corners
_ACUTE_CY = 0.275765

_ACUTE_TRIS = np.array([
    (4, 5, 12), (4, 16, 0), (5, 17, 12), (6, 13, 17), (6, 17, 1),
    (8, 19, 15), (9, 8, 15), (9, 18, 2), (10, 14, 11), (11, 19, 3),
    (13, 6, 7), (13, 15, 12), (13, 18, 15), (14, 16, 12), (14, 19, 11),
    (15, 14, 12), (16, 4, 12), (16, 10, 0), (16, 14, 10), (17, 5, 1),
    (17, 13, 12), (18, 7, 2), (18, 9, 15), (18, 13, 7), (19, 8, 3),
    (19, 14, 15),
], dtype=np.int64)


def _acute_base() -> Mesh:
    s, a, b = _ACUTE_S, _ACUTE_A, _ACUTE_B
    cx, cy = _ACUTE_CX, _ACUTE_CY
    verts = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [s, 0.0], [1 - s, 0.0],
        [1.0, s], [1.0, 1 - s],
        [s, 1.0], [1 - s, 1.0],
        [0.0, s], [0.0, 1 - s],
        [0.5, a], [b, 0.5], [1 - b, 0.5], [0.5, 1 - a],
        [cx, cy], [1 - cx, cy], [1 - cx, 1 - cy], [cx, 1 - cy],
    ])
    return Mesh(verts, _ACUTE_TRIS)


def unit_square_acute(level: int = 0) -> Mesh:
    """Admissible mesh family on the unit square.

    Level 0 has 26 strictly acute triangles; each level quarters them, so
    level L has 26 * 4**L triangles with the same angle spectrum.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    mesh = _acute_base()
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def resolve_mesh(spec: str, fmt: str = "single-file") -> Mesh:
    """Turn a mesh specifier into a Mesh.

    ``acute:L`` selects the admissible family at level L; anything else is
    a file path.
    """
    if spec.startswith("acute:"):
        return unit_square_acute(int(spec.split(":", 1)[1]))
    return load_mesh(spec, fmt=fmt)
