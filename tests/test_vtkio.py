"""The VTK writers against a per-line formatter: the files must agree byte
for byte, including signed zeros, subnormal-range values and NaN."""
import numpy as np
import pytest

from fvproj import vtkio
from fvproj.mesh import unit_square_acute


def _lines(f, fmt, rows):
    for row in rows:
        f.write(fmt(row))


def _grid_by_lines(path, mesh, cell_scalars, cell_vectors):
    nt = mesh.num_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nfvproj snapshot\nASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_vertices} double\n")
        _lines(f, lambda p: f"{p[0]:.16e} {p[1]:.16e} 0\n", mesh.vertices)
        f.write(f"CELLS {nt} {4 * nt}\n")
        _lines(f, lambda t: f"3 {t[0]} {t[1]} {t[2]}\n", mesh.triangles)
        f.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        f.write(f"CELL_DATA {nt}\n")
        for name in sorted(cell_scalars):
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _lines(f, lambda v: f"{v:.16e}\n", cell_scalars[name])
        for name in sorted(cell_vectors):
            f.write(f"VECTORS {name} double\n")
            _lines(f, lambda v: f"{v[0]:.16e} {v[1]:.16e} 0\n", cell_vectors[name])


def _cloud_by_lines(path, points, scalars):
    n = len(points)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nfvproj point samples\nASCII\n")
        f.write("DATASET POLYDATA\n")
        f.write(f"POINTS {n} double\n")
        _lines(f, lambda p: f"{p[0]:.16e} {p[1]:.16e} 0\n", points)
        f.write(f"VERTICES {n} {2 * n}\n")
        _lines(f, lambda i: f"1 {i}\n", range(n))
        if scalars:
            f.write(f"POINT_DATA {n}\n")
        for name in sorted(scalars):
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _lines(f, lambda v: f"{v:.16e}\n", scalars[name])


def _awkward(values):
    values = values.copy()
    flat = values.reshape(-1)
    flat[:5] = [-0.0, 1e-300, -1e-300, np.nan, 0.0]
    return values


@pytest.mark.parametrize("level", [0, 3])
def test_byte_identical_to_per_line_formatting(tmp_path, level):
    mesh = unit_square_acute(level)
    rng = np.random.default_rng(level)
    velocity = _awkward(rng.standard_normal((mesh.num_triangles, 2)))
    scalars = {"speed": np.linalg.norm(velocity, axis=1)}
    vectors = {"velocity": velocity}
    cloud = {"pressure": _awkward(rng.standard_normal(mesh.num_edges)),
             "div_velocity": rng.standard_normal(mesh.num_edges) * 1e-17}
    # twice: the second write reuses the geometry text of the first
    for _ in range(2):
        vtkio.write_unstructured(tmp_path / "grid.vtk", mesh,
                                 cell_scalars=scalars, cell_vectors=vectors)
        vtkio.write_point_cloud(tmp_path / "cloud.vtk", mesh.edge_midpoint,
                                scalars=cloud)
        _grid_by_lines(tmp_path / "grid_ref.vtk", mesh, scalars, vectors)
        _cloud_by_lines(tmp_path / "cloud_ref.vtk", mesh.edge_midpoint, cloud)
        assert ((tmp_path / "grid.vtk").read_bytes()
                == (tmp_path / "grid_ref.vtk").read_bytes())
        assert ((tmp_path / "cloud.vtk").read_bytes()
                == (tmp_path / "cloud_ref.vtk").read_bytes())


def test_cloud_geometry_follows_the_points(tmp_path):
    # the cached geometry text is keyed by the coordinates, not the array
    points = np.array([[0.0, 0.0], [1.0, 0.5]])
    vtkio.write_point_cloud(tmp_path / "a.vtk", points)
    points[1, 1] = 0.25
    vtkio.write_point_cloud(tmp_path / "b.vtk", points)
    _cloud_by_lines(tmp_path / "ref.vtk", points, {})
    assert (tmp_path / "b.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()
