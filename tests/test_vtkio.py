"""The VTK writers against a decoder of the legacy BINARY layout: every array
read back must equal its input bit for bit, including signed zeros,
subnormal-range values and NaN, and the file must hold nothing else."""
import types

import numpy as np
import pytest

from fvproj import vtkio
from fvproj.mesh import unit_square_acute

_BLOCKS = {"POINTS": ">f8", "CELLS": ">i4", "CELL_TYPES": ">i4",
           "VERTICES": ">i4", "SCALARS": ">f8", "VECTORS": ">f8"}


def _decode(data: bytes):
    """(header lines, keyword lines, {keyword or 'SCALARS name' ...: array})
    of a legacy VTK BINARY file; each block is checked to end in one
    newline and the file to end after the last block."""
    pos, keywords, arrays, n_data = 0, [], {}, None

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    header = [line() for _ in range(4)]
    while pos < len(data):
        keywords.append(line())
        word, *rest = keywords[-1].split()
        if word in ("CELL_DATA", "POINT_DATA"):
            n_data = int(rest[0])
            continue
        if word == "SCALARS":
            keywords.append(line())
            assert keywords[-1] == "LOOKUP_TABLE default"
            count, key = n_data, f"SCALARS {rest[0]}"
        elif word == "VECTORS":
            count, key = 3 * n_data, f"VECTORS {rest[0]}"
        elif word == "POINTS":
            count, key = 3 * int(rest[0]), word
        elif word == "CELL_TYPES":
            count, key = int(rest[0]), word
        else:  # CELLS and VERTICES: rows, then the total entry count
            count, key = int(rest[1]), word
        dtype = np.dtype(_BLOCKS[word])
        arrays[key] = np.frombuffer(data, dtype, count, pos)
        pos += count * dtype.itemsize
        assert data[pos:pos + 1] == b"\n", keywords[-1]
        pos += 1
    return header, keywords, arrays


def _bits(values):
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64)


def _xyz_bits(values):
    xyz = np.zeros((len(values), 3))
    xyz[:, :2] = values
    return _bits(xyz)


def _block_size(keyword, count, itemsize):
    return len(keyword) + 1 + count * itemsize + 1


def _awkward(values):
    values = values.copy()
    flat = values.reshape(-1)
    flat[:5] = [-0.0, 1e-300, -1e-300, np.nan, 0.0]
    return values


@pytest.mark.parametrize("level", [0, 3])
def test_arrays_bit_identical_to_the_input(tmp_path, level):
    mesh = unit_square_acute(level)
    nv, nt, ne = mesh.num_vertices, mesh.num_triangles, mesh.num_edges
    rng = np.random.default_rng(level)
    velocity = _awkward(rng.standard_normal((nt, 2)))
    scalars = {"speed": np.linalg.norm(velocity, axis=1)}
    vectors = {"velocity": velocity}
    cloud = {"pressure": _awkward(rng.standard_normal(ne)),
             "div_velocity": rng.standard_normal(ne) * 1e-17}
    vtkio.write_unstructured(tmp_path / "grid.vtk", mesh,
                             cell_scalars=scalars, cell_vectors=vectors)
    vtkio.write_point_cloud(tmp_path / "cloud.vtk", mesh.edge_midpoint, scalars=cloud)

    data = (tmp_path / "grid.vtk").read_bytes()
    header, keywords, arrays = _decode(data)
    assert header == ["# vtk DataFile Version 3.0", "fvproj snapshot", "BINARY",
                      "DATASET UNSTRUCTURED_GRID"]
    assert keywords == [f"POINTS {nv} double", f"CELLS {nt} {4 * nt}",
                        f"CELL_TYPES {nt}", f"CELL_DATA {nt}",
                        "SCALARS speed double 1", "LOOKUP_TABLE default",
                        "VECTORS velocity double"]
    assert np.array_equal(_bits(arrays["POINTS"]), _xyz_bits(mesh.vertices))
    cells = arrays["CELLS"].reshape(nt, 4)
    assert np.all(cells[:, 0] == 3)
    assert np.array_equal(cells[:, 1:], mesh.triangles)
    assert np.all(arrays["CELL_TYPES"] == 5)
    assert np.array_equal(_bits(arrays["SCALARS speed"]), _bits(scalars["speed"]))
    assert np.array_equal(_bits(arrays["VECTORS velocity"]), _xyz_bits(velocity))
    head = sum(len(h) + 1 for h in header)
    assert len(data) == (head + _block_size(keywords[0], 3 * nv, 8)
                         + _block_size(keywords[1], 4 * nt, 4)
                         + _block_size(keywords[2], nt, 4) + len(keywords[3]) + 1
                         + _block_size("\n".join(keywords[4:6]), nt, 8)
                         + _block_size(keywords[6], 3 * nt, 8))

    data = (tmp_path / "cloud.vtk").read_bytes()
    header, keywords, arrays = _decode(data)
    assert header == ["# vtk DataFile Version 3.0", "fvproj point samples",
                      "BINARY", "DATASET POLYDATA"]
    assert keywords == [f"POINTS {ne} double", f"VERTICES {ne} {2 * ne}",
                        f"POINT_DATA {ne}",
                        "SCALARS div_velocity double 1", "LOOKUP_TABLE default",
                        "SCALARS pressure double 1", "LOOKUP_TABLE default"]
    assert np.array_equal(_bits(arrays["POINTS"]), _xyz_bits(mesh.edge_midpoint))
    verts = arrays["VERTICES"].reshape(ne, 2)
    assert np.all(verts[:, 0] == 1)
    assert np.array_equal(verts[:, 1], np.arange(ne))
    for name in cloud:
        assert np.array_equal(_bits(arrays[f"SCALARS {name}"]), _bits(cloud[name]))
    head = sum(len(h) + 1 for h in header)
    assert len(data) == (head + _block_size(keywords[0], 3 * ne, 8)
                         + _block_size(keywords[1], 2 * ne, 4) + len(keywords[2]) + 1
                         + _block_size("\n".join(keywords[3:5]), ne, 8)
                         + _block_size("\n".join(keywords[5:7]), ne, 8))


def test_no_data_section_without_arrays(tmp_path):
    mesh = unit_square_acute(0)
    vtkio.write_unstructured(tmp_path / "grid.vtk", mesh)
    vtkio.write_point_cloud(tmp_path / "cloud.vtk", mesh.edge_midpoint)
    for name in ("grid.vtk", "cloud.vtk"):
        _, keywords, arrays = _decode((tmp_path / name).read_bytes())
        assert not any(k.startswith(("CELL_DATA", "POINT_DATA")) for k in keywords)
        assert not any(k.startswith("SCALARS") for k in arrays)


def test_cloud_geometry_follows_the_points(tmp_path):
    # a rewrite after the points change shows the new points
    points = np.array([[0.0, 0.0], [1.0, 0.5]])
    vtkio.write_point_cloud(tmp_path / "a.vtk", points)
    points[1, 1] = 0.25
    vtkio.write_point_cloud(tmp_path / "b.vtk", points)
    _, _, arrays = _decode((tmp_path / "b.vtk").read_bytes())
    assert np.array_equal(_bits(arrays["POINTS"]), _xyz_bits(points))


@pytest.mark.parametrize("shape", [(25,), (27,), (26, 1)])
def test_cell_scalar_of_wrong_shape_raises(tmp_path, shape):
    mesh = unit_square_acute(0)
    assert mesh.num_triangles == 26
    with pytest.raises(ValueError, match="'speed'"):
        vtkio.write_unstructured(tmp_path / "grid.vtk", mesh,
                                 cell_scalars={"speed": np.ones(shape)})
    assert not (tmp_path / "grid.vtk").exists()


@pytest.mark.parametrize("shape", [(29, 2), (26, 3), (52,)])
def test_cell_vector_of_wrong_shape_raises(tmp_path, shape):
    mesh = unit_square_acute(0)
    with pytest.raises(ValueError, match="'velocity'"):
        vtkio.write_unstructured(tmp_path / "grid.vtk", mesh,
                                 cell_vectors={"velocity": np.ones(shape)})
    assert not (tmp_path / "grid.vtk").exists()


def test_point_scalar_of_wrong_length_raises(tmp_path):
    mesh = unit_square_acute(0)
    assert mesh.num_edges == 45
    with pytest.raises(ValueError, match="'pressure'"):
        vtkio.write_point_cloud(tmp_path / "cloud.vtk", mesh.edge_midpoint,
                                scalars={"pressure": np.ones(3)})
    assert not (tmp_path / "cloud.vtk").exists()


@pytest.mark.parametrize("index", [2**31, -2**31 - 1])
def test_index_beyond_int32_raises(tmp_path, index):
    # three vertices, one triangle whose last index wraps in 32 bits
    mesh = types.SimpleNamespace(vertices=np.zeros((3, 2)), num_triangles=1,
                                 triangles=np.array([[0, 1, index]]))
    with pytest.raises(ValueError, match="CELLS"):
        vtkio.write_unstructured(tmp_path / "grid.vtk", mesh)
    assert not (tmp_path / "grid.vtk").exists()
