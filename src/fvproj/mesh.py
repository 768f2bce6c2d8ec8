"""Triangular meshes with circumcenter-based edge geometry.

A mesh is admissible when it is one piece of strictly acute triangles,
which puts each circumcenter strictly inside its triangle and makes the
circumcenter-to-circumcenter segment of neighbouring triangles orthogonal
to their shared edge.  All edge weights (transmissibilities) of the
two-point-flux operators are derived from that geometry.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
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
    pieces: int     # a second one leaves a pressure constant to rounding
    admissible: bool

    def __str__(self):
        deg = 180.0 / np.pi
        return (
            f"angles [{self.min_angle * deg:.3f}, {self.max_angle * deg:.3f}] deg, "
            f"min tau {self.min_tau:.4g}, min d/|e| {self.min_d_over_edge:.4g}, "
            f"min |e|/h {self.min_edge_over_h:.4g}, pieces {self.pieces}, "
            f"admissible={self.admissible}"
        )


class Mesh:
    """Immutable triangulation with cell, edge, and connectivity data.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int32 array, counterclockwise
    tri_area : (nt,) areas
    tri_center : (nt, 2) circumcenters, derived on access
    tri_edges : (nt, 3) int32 edge id opposite each local vertex
    edges : (ne, 2) int32 vertex pairs, sorted lexicographically
    edge_length : per-edge length
    edge_midpoint : (ne, 2) edge midpoints, derived on access
    edge_owner, edge_neighbor : adjacent triangle ids (-1 when boundary)
    edge_normal : (ne, 2) unit normal pointing out of the owner
    edge_tau : edge_length / d (inf when d == 0), d the circumcenter
        distance (owner-to-neighbor, or owner-to-midpoint on the boundary)
    interior_edges, boundary_edges : index arrays
    h : largest circumcircle diameter

    Geometry that is not finite (areas, circumcenters, h and 1 / h, edge
    lengths and their reciprocals, d / edge_length) raises MeshFormatError.

    The connectivity only set-up reads (``triangles``, ``edges``,
    ``tri_edges``) is 32-bit; the index arrays of every time step stay
    intp, which numpy's fancy indexing takes without a conversion.
    """

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3 or len(triangles) == 0:
            raise MeshFormatError("triangles must be an (nt, 3) array with nt >= 1")
        if not np.all(np.isfinite(vertices)):
            raise MeshFormatError("vertex coordinates must be finite")
        if triangles.dtype.kind not in "iu":
            triangles = triangles.astype(float)
            if not np.all(triangles == np.floor(triangles)):  # NaN fails too
                raise MeshFormatError("triangle vertex indices must be integers")
        nv = len(vertices)
        # on the caller's numbers, before the 32-bit cast could wrap one
        if triangles.min() < 0 or triangles.max() >= nv:
            raise MeshTopologyError("triangle vertex index out of range")
        if max(nv, 3 * len(triangles)) > _INDEX_LIMIT:
            raise MeshTopologyError("mesh too large for 32-bit connectivity")
        triangles = triangles.astype(np.int32)
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
        with np.errstate(all="ignore"):  # what overflows is refused below
            area = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                          - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
            _require_finite("signed area", area)
            if np.any(area <= 0):
                bad = int(np.argmax(area <= 0))
                raise MeshOrientationError(
                    f"triangle {bad} has non-positive signed area {area[bad]:.3e}")
            center = _circumcenters(a, b, c, 2.0 * area)  # as ``tri_center``
            _require_finite("circumcenter", center)
            h = 2.0 * _lengths(a - center).max()
            _require_finite("h or 1 / h", [h, 1.0 / h])
            self.h = float(h)
            self.tri_area = area
            self.tri_area.setflags(write=False)
            self._build_edges(center)
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_edges(self, center):
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
        self.edge_neighbor = np.full(ne, -1, dtype=np.intp)
        pair = counts == 2
        self.edge_neighbor[pair] = order[starts[pair] + 1] // 3
        tri_edges = np.empty(3 * nt, dtype=np.int32)
        tri_edges[order] = np.cumsum(first) - 1
        self.tri_edges = tri_edges.reshape(nt, 3)

        va = self.vertices[self.edges[:, 0]]
        vb = self.vertices[self.edges[:, 1]]
        midpoint = 0.5 * (va + vb)
        self.edge_length = _lengths(vb - va)
        _require_finite("edge length or 1 / length",
                        [self.edge_length, 1.0 / self.edge_length])
        tang = (vb - va) / self.edge_length[:, None]
        normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        # orient out of the owner: away from the opposite vertex
        opp = self.vertices[tri.ravel()[owner_half]]
        flip = np.einsum("ed,ed->e", normal, midpoint - opp) < 0
        normal[flip] *= -1.0
        self.edge_normal = normal

        interior = self.edge_neighbor >= 0
        d = np.empty(ne)
        d[interior] = _lengths(center[self.edge_neighbor[interior]]
                               - center[self.edge_owner[interior]])
        d[~interior] = _lengths(midpoint[~interior] - center[self.edge_owner[~interior]])
        self.edge_tau = np.where(d > 0, self.edge_length / np.where(d > 0, d, 1.0), np.inf)
        _require_finite("d / edge length", 1.0 / self.edge_tau)  # validate_mesh's
        self.interior_edges = np.nonzero(interior)[0]
        self.boundary_edges = np.nonzero(~interior)[0]
        for arr in (self.edges, self.edge_owner, self.edge_neighbor, self.tri_edges,
                    self.edge_length, self.edge_normal,
                    self.edge_tau, self.interior_edges, self.boundary_edges):
            arr.setflags(write=False)

    # -- basic queries ---------------------------------------------------------

    @property
    def tri_center(self):
        a, b, c = (self.vertices[self.triangles[:, j]] for j in range(3))
        return _circumcenters(a, b, c, 2.0 * self.tri_area)

    @property
    def edge_midpoint(self):
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

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


def per_mesh(build):
    """Cache ``build(mesh)`` on the mesh: built on first use and kept for
    the life of the mesh, keyed by the builder's name.  The one per-mesh
    cache; a build that raises stores nothing."""
    key = build.__name__

    @wraps(build)
    def cached(mesh: Mesh):
        if key not in mesh._cache:
            mesh._cache[key] = build(mesh)
        return mesh._cache[key]
    return cached


# largest vertex count, and three times the triangle count (which bounds
# the edge count), that 32-bit connectivity holds
_INDEX_LIMIT = np.iinfo(np.int32).max


def _require_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise MeshFormatError(f"mesh geometry is not finite: {name}")


def _lengths(diff):
    """Row lengths of an (n, 2) array scaled exactly, by the power of two of
    its largest entry, so no square overflows (``np.hypot`` rounds apart)."""
    e = int(np.frexp(np.abs(diff).max(initial=0.0))[1])
    return np.ldexp(np.linalg.norm(np.ldexp(diff, -e), axis=1), e)


def _circumcenters(a, b, c, cross):
    """Circumcenters of the triangles (a, b, c), cross = 2 |K| each, taken
    relative to a: the squared lengths of b - a and c - a are divided by
    2 cross before any product with a coordinate, so the center keeps its
    digits however small or far from the origin the triangle is."""
    ab, ac, d = b - a, c - a, 2.0 * cross
    pb, pc = (ab * ab).sum(1) / d, (ac * ac).sum(1) / d
    return a + np.stack([pb * ac[:, 1] - pc * ab[:, 1],
                         pc * ab[:, 0] - pb * ac[:, 0]], axis=1)


# -- validation ----------------------------------------------------------------

def validate_mesh(mesh: Mesh) -> MeshQualityReport:
    """Quality report; never raises.

    Admissibility requires one piece (cells joined by interior edges),
    strictly acute angles and positive circumcenter distances on every edge.
    """
    K, L = mesh.edge_owner[mesh.interior_edges], mesh.edge_neighbor[mesh.interior_edges]
    root = np.arange(mesh.num_triangles)  # hooked to the least label, then jumped
    while not np.array_equal(root[K], root[L]):
        np.minimum.at(root, root[K], root[L])
        np.minimum.at(root, root[L], root[K])
        while not np.array_equal(root, root[root]):
            root = root[root]
    pieces = int(np.count_nonzero(root == np.arange(mesh.num_triangles)))
    ang = mesh.angles()
    tau = mesh.edge_tau
    min_d = float((1.0 / tau).min())
    admissible = bool(pieces == 1 and ang.max() < 0.5 * np.pi and min_d > 0.0)
    return MeshQualityReport(
        min_angle=float(ang.min()),
        max_angle=float(ang.max()),
        min_tau=float(tau.min()),
        min_d_over_edge=min_d,
        min_edge_over_h=float(mesh.edge_length.min() / mesh.h),
        pieces=pieces,
        admissible=admissible,
    )


def require_admissible(mesh: Mesh) -> MeshQualityReport:
    """Raise MeshTopologyError on an inadmissible mesh."""
    report = validate_mesh(mesh)
    if not report.admissible:
        raise MeshTopologyError(f"mesh is not admissible: {report}")
    return report


# -- file I/O -------------------------------------------------------------------

def load_mesh(path) -> Mesh:
    """Read a mesh from disk; the file suffix names the format, in which
    ``#`` starts a comment.  A file that cannot be opened raises OSError;
    an error for a file's content names the file.

    ``.node`` or ``.ele``: the two-file format of Shewchuk's Triangle, read
    from both files of the stem.  The leading id column of each line is
    honoured (1-based in the wild; each vertex id once); the header past
    its count, attribute/marker columns and uncounted lines are ignored.

    Any other suffix: the single-file format.  Line 1 is ``NV NT``, then
    exactly NV ``x y`` lines and NT ``i j k`` lines with 0-based vertex ids.
    """
    path = Path(path)
    try:  # ``source`` names the file read when an error is raised
        if path.suffix not in (".node", ".ele"):
            rows = _tokens(source := path)
            nv, nt = (c.item() for c in _table(rows[:1], "NV NT", 1))
            return Mesh(np.column_stack(_table(rows[1:1 + nv], "x y", nv)),
                        np.column_stack(_table(rows[1 + nv:], "i j k", nt)))
        node, ele = path.with_suffix(".node"), path.with_suffix(".ele")
        rows = _tokens(source := node)
        nv = _table(rows, "NV ...", 1)[0].item()
        ids, x, y = _table(rows[1:], "id x y ...", nv)
        index = {}
        for row, i in enumerate(ids.tolist()):
            if index.setdefault(i, row) != row:
                raise MeshFormatError(f"vertex id {i} given twice")
        rows = _tokens(source := ele)
        nt = _table(rows, "NT ...", 1)[0].item()
        _, *corners = _table(rows[1:], "id i j k ...", nt)
        try:
            triangles = np.array([[index[i] for i in c.tolist()] for c in corners]).T
        except KeyError as exc:
            raise MeshTopologyError(f"vertex id {exc.args[0]} not in {node}") from None
        source = f"{node}, {ele}"
        return Mesh(np.column_stack([x, y]), triangles)
    except (MeshFormatError, MeshTopologyError, MeshOrientationError) as exc:
        raise type(exc)(f"{exc} (in {source})") from None


def _tokens(path):
    """(line number, tokens) of each line that holds any once its ``#``
    comment is cut off.  A byte that does not decode becomes U+FFFD, which
    no number parses."""
    rows = ((n, line.split("#", 1)[0].split())
            for n, line in enumerate(path.read_text(errors="replace").splitlines(), 1))
    return [(n, tokens) for n, tokens in rows if tokens]


def _table(rows, form, count):
    """The first ``count`` rows read as ``form``, one array per name: float
    for ``x`` and ``y``, int64 for any other.  A form ending in ``...``
    ignores further lines, and further tokens on a line; any other takes
    exactly ``count`` lines of exactly its names.  Rows short of that, or a
    token that does not parse, raise MeshFormatError."""
    exact = not form.endswith("...")
    parse = [np.float64 if name in ("x", "y") else np.int64
             for name in form.removesuffix("...").split()]
    if not 0 <= count <= len(rows) or exact and len(rows) > count:
        raise MeshFormatError(f"expected {count} '{form}' lines, found {len(rows)}")
    columns = [[] for _ in parse]
    for n, tokens in rows[:count]:
        if len(tokens) < len(parse) or exact and len(tokens) > len(parse):
            raise MeshFormatError(f"line {n}: expected '{form}', found {' '.join(tokens)!r}")
        try:
            for column, read, token in zip(columns, parse, tokens):
                column.append(read(token))
        except (ValueError, OverflowError) as exc:
            raise MeshFormatError(f"line {n}: {exc}") from None
    return [np.array(column, dtype=read) for column, read in zip(columns, parse)]


# -- refinement ------------------------------------------------------------------

# children of (v0, v1, v2) as columns of [v0, v1, v2, m0, m1, m2], where
# m_j is the midpoint of the edge opposite v_j
_CHILDREN = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2], [3, 4, 5]])


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children by edge midpoints.

    Child angles equal parent angles, so admissibility and all quality
    ratios survive refinement; h halves exactly.
    """
    corners = np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_edges.astype(np.intp)])
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


def acute_level(spec: str) -> int | None:
    """The level L of an ``acute:L`` mesh selector, or None for anything
    else (a file path); ValueError, naming the selector, when L is not an
    integer >= 0."""
    if not spec.startswith("acute:"):
        return None
    level = spec.removeprefix("acute:")
    if not level.isdecimal():
        raise ValueError(f"want acute:L with L an integer >= 0, got {spec!r}")
    return int(level)


def resolve_mesh(spec: str) -> Mesh:
    """Turn a mesh specifier into a Mesh: ``acute:L`` selects the
    admissible family at level L; anything else is a file path."""
    level = acute_level(spec)
    return load_mesh(spec) if level is None else unit_square_acute(level)
