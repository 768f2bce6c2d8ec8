"""Legacy VTK 3.0 BINARY writers: triangle grids with cell data, and point
clouds for edge-midpoint data.

Each data block follows its keyword line directly: the array's big-endian
bytes (``>f8`` for coordinates and values, with z = 0; ``>i4`` for
connectivity and cell types), then one newline.  Each file is written by a
single ``write``; an array whose shape does not match its header's count,
or an index that does not fit ``>i4``, raises ``ValueError`` before the
file is opened.
"""
from __future__ import annotations

import numpy as np


def _block(keyword: str, arr: np.ndarray) -> bytes:
    return f"{keyword}\n".encode() + arr.tobytes() + b"\n"


def _xyz(name: str, vals, n: int) -> np.ndarray:
    """(n, 2) ``vals`` as big-endian (n, 3) rows with z = 0."""
    vals = np.asarray(vals)
    if vals.shape != (n, 2):
        raise ValueError(f"{name}: shape {vals.shape}, expected ({n}, 2)")
    out = np.zeros((n, 3), ">f8")
    out[:, :2] = vals
    return out


def _connectivity(keyword: str, lead: int, idx) -> bytes:
    """Each row of ``idx`` after the count ``lead``, as big-endian int32."""
    rows = np.column_stack([np.full(len(idx), lead), idx])
    out = rows.astype(">i4")
    if not np.array_equal(out, rows):
        raise ValueError(f"{keyword}: an index does not fit a 32-bit VTK integer")
    return _block(f"{keyword} {len(rows)} {rows.size}", out)


def _data(kind: str, n: int, scalars, vectors) -> list:
    """The ``kind`` (CELL_DATA or POINT_DATA) section, arrays sorted by name."""
    blocks = [f"{kind} {n}\n".encode()] if scalars or vectors else []
    for name in sorted(scalars):
        vals = np.asarray(scalars[name])
        if vals.shape != (n,):
            raise ValueError(f"scalar {name!r}: shape {vals.shape}, expected ({n},)")
        blocks.append(_block(f"SCALARS {name} double 1\nLOOKUP_TABLE default",
                             vals.astype(">f8")))
    for name in sorted(vectors):
        blocks.append(_block(f"VECTORS {name} double",
                             _xyz(f"vector {name!r}", vectors[name], n)))
    return blocks


def _write(path, title: str, dataset: str, blocks: list) -> None:
    head = f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET {dataset}\n"
    with open(path, "wb") as f:
        f.write(b"".join([head.encode(), *blocks]))


def write_unstructured(path, mesh, cell_scalars=None, cell_vectors=None) -> None:
    """Triangle mesh with per-cell data as an unstructured grid."""
    nv, nt = len(mesh.vertices), mesh.num_triangles
    _write(path, "fvproj snapshot", "UNSTRUCTURED_GRID", [
        _block(f"POINTS {nv} double", _xyz("POINTS", mesh.vertices, nv)),
        _connectivity("CELLS", 3, mesh.triangles),
        _block(f"CELL_TYPES {nt}", np.full(nt, 5, ">i4")),
        *_data("CELL_DATA", nt, cell_scalars or {}, cell_vectors or {})])


def write_point_cloud(path, points, scalars=None) -> None:
    """Point cloud (polydata vertices) with per-point scalar data."""
    n = len(points)
    _write(path, "fvproj point samples", "POLYDATA", [
        _block(f"POINTS {n} double", _xyz("POINTS", np.asarray(points)[:, :2], n)),
        _connectivity("VERTICES", 1, np.arange(n)),
        *_data("POINT_DATA", n, scalars or {}, {})])
