"""Legacy ASCII VTK writers: triangle grids with cell data, and point
clouds for edge-midpoint data.

Each block is formatted by one %-operation over the flattened array, and
the geometry text (points and cells) once per mesh or point set.
"""
from __future__ import annotations

import functools

import numpy as np


def _rows(fmt, arr) -> str:
    """``fmt`` (one row's format) applied to each row of ``arr``."""
    arr = np.asarray(arr)
    return (fmt * len(arr)) % tuple(arr.ravel().tolist())


def _points(pts) -> str:
    return f"POINTS {len(pts)} double\n" + _rows("%.16e %.16e 0\n", pts[:, :2])


def _scalars(name, vals) -> str:
    vals = np.asarray(vals).ravel()
    return f"SCALARS {name} double 1\nLOOKUP_TABLE default\n" + _rows("%.16e\n", vals)


def _vectors(name, vals) -> str:
    return f"VECTORS {name} double\n" + _rows("%.16e %.16e 0\n", np.asarray(vals)[:, :2])


def _grid_geometry(mesh) -> str:
    """POINTS, CELLS and CELL_TYPES of the mesh; built once per mesh."""
    text = mesh._cache.get("vtk_geometry")
    if text is None:
        nt = mesh.num_triangles
        text = (_points(mesh.vertices) + f"CELLS {nt} {4 * nt}\n"
                + _rows("3 %d %d %d\n", mesh.triangles)
                + f"CELL_TYPES {nt}\n" + "5\n" * nt)
        mesh._cache["vtk_geometry"] = text
    return text


@functools.lru_cache(maxsize=2)
def _cloud_geometry(xy: bytes) -> str:
    """POINTS and VERTICES of a point set, keyed by its float64 (n, 2)
    coordinates, so that a fixed set is formatted once."""
    pts = np.frombuffer(xy).reshape(-1, 2)
    n = len(pts)
    return _points(pts) + f"VERTICES {n} {2 * n}\n" + _rows("1 %d\n", np.arange(n))


def write_unstructured(path, mesh, cell_scalars=None, cell_vectors=None) -> None:
    """Triangle mesh with per-cell data as an unstructured grid."""
    cell_scalars = cell_scalars or {}
    cell_vectors = cell_vectors or {}
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nfvproj snapshot\nASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(_grid_geometry(mesh))
        if cell_scalars or cell_vectors:
            f.write(f"CELL_DATA {mesh.num_triangles}\n")
            for name in sorted(cell_scalars):
                f.write(_scalars(name, cell_scalars[name]))
            for name in sorted(cell_vectors):
                f.write(_vectors(name, cell_vectors[name]))


def write_point_cloud(path, points, scalars=None) -> None:
    """Point cloud (polydata vertices) with per-point scalar data."""
    scalars = scalars or {}
    xy = np.ascontiguousarray(np.asarray(points)[:, :2], dtype=float)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nfvproj point samples\nASCII\n")
        f.write("DATASET POLYDATA\n")
        f.write(_cloud_geometry(xy.tobytes()))
        if scalars:
            f.write(f"POINT_DATA {len(xy)}\n")
            for name in sorted(scalars):
                f.write(_scalars(name, scalars[name]))
