import re

import numpy as np
import pytest

from fvproj import mesh as meshmod
from fvproj.mesh import (Mesh, MeshFormatError, MeshOrientationError,
                         MeshTopologyError, load_mesh, refine_uniform,
                         require_admissible, unit_square_acute, validate_mesh)
from fixture_meshes import (save_mesh, single_triangle, square_two_triangles,
                            unit_square_crisscross)
from loop_oracles import (boundary_polygon_area, edge_topology_loop,
                          refine_uniform_loop)


class TestGeometry:
    def test_equilateral_closed_forms(self, equilateral):
        # circumcircle of a unit equilateral triangle: center at the
        # centroid, radius 1/sqrt(3)
        assert abs(equilateral.tri_area[0] - np.sqrt(3) / 4) < 1e-14
        assert np.allclose(equilateral.tri_center[0], [0.5, np.sqrt(3) / 6],
                           atol=1e-14)
        assert abs(equilateral.h - 2 / np.sqrt(3)) < 1e-14

    def test_right_triangle_circumcenter_on_hypotenuse(self, right_triangle):
        assert abs(right_triangle.tri_area[0] - 0.5) < 1e-14
        assert np.allclose(right_triangle.tri_center[0], [0.5, 0.5], atol=1e-14)

    def test_edges_sorted_lexicographically(self, family):
        for mesh in family:
            order = np.lexsort((mesh.edges[:, 1], mesh.edges[:, 0]))
            assert np.array_equal(order, np.arange(mesh.num_edges))

    def test_interior_edge_counts(self, pair):
        assert len(pair.interior_edges) == 1
        assert len(pair.boundary_edges) == 4

    def test_normal_points_owner_to_neighbor(self, family):
        for mesh in family:
            ii = mesh.interior_edges
            toward = (mesh.tri_center[mesh.edge_neighbor[ii]]
                      - mesh.tri_center[mesh.edge_owner[ii]])
            dots = np.einsum("ed,ed->e", mesh.edge_normal[ii], toward)
            assert np.all(dots > 0)

    def test_neighbor_side_normal_is_negated(self, family):
        mesh = family[1]
        for e in mesh.interior_edges[:20]:
            L = mesh.edge_neighbor[e]
            va, vb = mesh.vertices[mesh.edges[e]]
            t = vb - va
            n = np.array([t[1], -t[0]])
            n /= np.linalg.norm(n)
            opp = [v for v in mesh.triangles[L] if v not in mesh.edges[e]][0]
            if n @ (0.5 * (va + vb) - mesh.vertices[opp]) < 0:
                n = -n
            assert np.allclose(n, -mesh.edge_normal[e], atol=1e-14)

    def test_divergence_theorem_closure(self, family):
        # sum of length-weighted outward normals vanishes per triangle
        for mesh in family:
            acc = np.zeros((mesh.num_triangles, 2))
            sign = np.where(mesh.edge_owner[mesh.tri_edges]
                            == np.arange(mesh.num_triangles)[:, None], 1.0, -1.0)
            for j in range(3):
                e = mesh.tri_edges[:, j]
                acc += (sign[:, j] * mesh.edge_length[e])[:, None] * mesh.edge_normal[e]
            assert np.abs(acc).max() < 1e-13

    def test_area_matches_boundary_polygon(self, family):
        for mesh in family:
            assert abs(mesh.tri_area.sum() - boundary_polygon_area(mesh)) < 1e-12

    def test_transmissibility_positive_on_admissible(self, family):
        for mesh in family:
            assert np.all(np.isfinite(mesh.edge_tau))
            assert np.all(mesh.edge_tau > 0)

    def test_diameter_and_distance_are_derived_not_stored(self, family):
        # h is the largest circumcircle diameter, and |e| / tau the
        # circumcenter distance owner-to-neighbour (owner-to-midpoint on
        # the boundary); the mesh keeps neither per cell or edge
        for mesh in family:
            a = mesh.vertices[mesh.triangles[:, 0]]
            assert mesh.h == (2.0 * np.linalg.norm(a - mesh.tri_center, axis=1)).max()
            K, L = mesh.edge_owner, mesh.edge_neighbor
            far = np.where((L >= 0)[:, None], mesh.tri_center[L], mesh.edge_midpoint)
            d = np.linalg.norm(far - mesh.tri_center[K], axis=1)
            assert np.allclose(mesh.edge_length / mesh.edge_tau, d, rtol=1e-14, atol=0)

    def test_centers_and_midpoints_are_derived_not_stored(self, family):
        # neither is kept on the mesh, and both still equal the formulas
        # the constructor once stored, bit for bit
        for mesh in family:
            assert not {"tri_center", "edge_midpoint"} & set(vars(mesh))
            p = mesh.vertices[mesh.triangles]
            a, b, c = p[:, 0], p[:, 1], p[:, 2]
            cross = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                     - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
            assert np.array_equal(mesh.tri_center, meshmod._circumcenters(a, b, c, cross))
            va, vb = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
            assert np.array_equal(mesh.edge_midpoint, 0.5 * (va + vb))

    def test_index_widths(self, family):
        # the connectivity only set-up reads is 32-bit; the index arrays a
        # time step gathers and scatters with stay intp, because numpy
        # converts 32-bit fancy indices on every call: at acute:5, int32
        # owner/neighbour indices took edge_normal_fluxes from 461 to
        # 712 us, h_norm from 368 to 640 us and convection_matrix from
        # 1.5 to 2.2-3.0 ms (the same holds for h_diagonal and
        # _convection_positions, whose positions the last one scatters to)
        from fvproj.operators import _convection_positions, h_diagonal
        for mesh in family:
            for name in ("triangles", "edges", "tri_edges"):
                assert getattr(mesh, name).dtype == np.int32, name
            for name in ("edge_owner", "edge_neighbor", "interior_edges",
                         "boundary_edges"):
                assert getattr(mesh, name).dtype == np.intp, name
            assert h_diagonal(mesh).dtype == np.intp
            assert _convection_positions(mesh).dtype == np.intp

    def test_vertex_index_checked_before_the_32_bit_cast(self, pair):
        # 2**32 would wrap to vertex 0, and 2**32 + 3 to a valid triangle
        with pytest.raises(MeshTopologyError, match="index out of range"):
            Mesh(pair.vertices, [[0, 1, 2**32]])
        with pytest.raises(MeshTopologyError, match="index out of range"):
            Mesh(pair.vertices, [[0, 1, 2], [1, 0, 2**32 + 3]])


class TestValidation:
    def test_equilateral_admissible(self, equilateral):
        report = validate_mesh(equilateral)
        assert abs(report.min_angle - np.pi / 3) < 1e-12
        assert report.admissible

    def test_square_diagonal_rejected(self):
        report = validate_mesh(square_two_triangles())
        assert abs(report.max_angle - np.pi / 2) < 1e-12
        assert abs(report.min_angle - np.pi / 4) < 1e-12
        assert not report.admissible

    def test_pieces_joined_by_interior_edges(self):
        # apart, or sharing only a vertex (a bow-tie): two pieces, however
        # acute; the built-in family and one triangle are one piece
        tri = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]
        apart = Mesh(np.array(tri + [[3.0, 0.0], [4.0, 0.0], [3.5, 0.9]]),
                     np.array([[0, 1, 2], [3, 4, 5]]))
        bowtie = Mesh(np.array(tri + [[2.0, 0.0], [1.5, 0.9]]),
                      np.array([[0, 1, 2], [1, 3, 4]]))
        for mesh in (apart, bowtie):
            report = validate_mesh(mesh)
            assert report.pieces == 2 and report.max_angle < np.pi / 2
            assert not report.admissible
            with pytest.raises(MeshTopologyError, match="pieces 2"):
                require_admissible(mesh)
        assert validate_mesh(single_triangle()).pieces == 1
        assert validate_mesh(unit_square_acute(2)).pieces == 1

    def test_pieces_against_csgraph(self):
        # three apart copies of acute:2, cells shuffled so that labels do
        # not follow the pieces; scipy's component count is the reference
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        base = unit_square_acute(2)
        nv = base.num_vertices
        order = np.random.default_rng(5).permutation(3 * base.num_triangles)
        mesh = Mesh(np.concatenate([base.vertices + [2.0 * i, 0.0] for i in range(3)]),
                    np.concatenate([base.triangles + i * nv for i in range(3)])[order])
        ii = mesh.interior_edges
        K, L = mesh.edge_owner[ii], mesh.edge_neighbor[ii]
        n = mesh.num_triangles
        joined = coo_matrix((np.ones(len(ii)), (K, L)), shape=(n, n))
        assert connected_components(joined, directed=False)[0] == 3
        assert validate_mesh(mesh).pieces == 3

    def test_crisscross_rejected(self):
        mesh = unit_square_crisscross(2)
        report = validate_mesh(mesh)
        angles = mesh.angles().ravel()
        assert np.all((np.abs(angles - np.pi / 4) < 1e-12)
                      | (np.abs(angles - np.pi / 2) < 1e-12))
        assert not report.admissible

    def test_family_admissible_at_all_levels(self):
        for level in range(5):
            report = validate_mesh(unit_square_acute(level))
            assert report.admissible, f"level {level}: {report}"
            assert report.max_angle < np.pi / 2 - 0.25  # frozen base margin

    def test_family_quality_ratios_level_independent(self):
        reports = [validate_mesh(unit_square_acute(level)) for level in range(4)]
        taus = [r.min_tau for r in reports]
        # congruent refinement: tau spectrum varies only through the new
        # interior edges, never degenerates
        assert max(taus) / min(taus) < 2.0
        ratios = [r.min_edge_over_h for r in reports]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_require_admissible(self):
        meshmod.require_admissible(unit_square_acute(0))
        with pytest.raises(MeshTopologyError):
            meshmod.require_admissible(square_two_triangles())


class TestIO:
    def test_single_file_roundtrip(self, tmp_path):
        mesh = unit_square_acute(0)
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_single_file_parse_error(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("2 1\n0 0\n1 0\n")  # missing triangle line + vertex
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_vertex_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 7\n")
        with pytest.raises(MeshTopologyError):
            load_mesh(path)

    def test_duplicate_triangle_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1]]
        with pytest.raises(MeshTopologyError):
            Mesh(verts, [[0, 1, 2], [1, 2, 0]])

    def test_nonmanifold_edge_rejected(self):
        # edge (0, 1) shared by three CCW triangles
        verts = [[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]]
        with pytest.raises(MeshTopologyError):
            Mesh(verts, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])

    def test_negative_orientation_rejected(self):
        with pytest.raises(MeshOrientationError):
            Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])

    @pytest.mark.parametrize("x, triangles, match", [
        # an integer cast would truncate this to triangle (0, 1, 2)
        (0.0, [[0.0, 1.0, 2.9], [1, 0, 3]], "integers"),
        (np.nan, [[0, 1, 2], [1, 0, 3]], "finite"),
        # would warn of an invalid value in the signed area
        (np.inf, [[0, 1, 2], [1, 0, 3]], "finite"),
        # no mesh at all: validate_mesh has nothing to report on
        (0.0, np.zeros((0, 3), dtype=int), "nt >= 1"),
    ])
    def test_refused_arrays(self, pair, x, triangles, match):
        vertices = pair.vertices.copy()
        vertices[0, 0] = x
        with pytest.raises(MeshFormatError, match=match):
            Mesh(vertices, triangles)

    @pytest.mark.parametrize("vertices, match", [
        ([[0, 0], [1e200, 0], [0, 1e200]], "signed area"),
        # positive area 5e-321: the circumcenter overflows
        ([[0, 0], [1, 0], [2, 1e-320]], "circumcenter"),
        # a needle whose circumcenter lies 1.2e308 from its apex, a finite
        # point, so that h, twice that distance, overflows
        ([[5e9, 1.04e-289], [0, 0], [1e10, 0]], "h or 1 / h"),
    ])
    def test_geometry_that_is_not_finite_refused(self, vertices, match):
        # refused by name, without a RuntimeWarning on the way
        with pytest.raises(MeshFormatError, match=f"geometry is not finite: {match}"):
            Mesh(vertices, [[0, 1, 2]])

    def test_needle_with_a_far_center_builds(self):
        # |a - center| = 1.25e160 is finite: from its squared components it
        # read inf, and the needle was refused as "h or 1 / h"
        mesh = Mesh([[0, 0], [1, 0], [0.5, 1e-161]], [[0, 1, 2]])
        assert mesh.h == pytest.approx(2.5e160, rel=1e-15)
        assert np.array_equal(mesh.edge_length, [1.0, 0.5, 0.5])
        assert mesh.edge_tau == pytest.approx([8e-161, 4e-161, 4e-161], rel=1e-15)
        assert not validate_mesh(mesh).admissible

    def test_tiny_triangle_builds(self):
        # squared absolute coordinates once put this circumcenter on vertex
        # 0 (h = 0, refused); h is twice the circumradius |ab| |bc| |ca| / 4|K|
        vertices = np.array([[0, 0], [-2.149e-121, 1.474e-121],
                             [-9.362e-142, -4.479e-141]])
        mesh = Mesh(vertices, [[0, 1, 2]])
        p = vertices * 1e121
        sides = np.linalg.norm(p - np.roll(p, 1, axis=0), axis=1)
        (bx, by), (cx, cy) = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(bx * cy - by * cx)
        assert mesh.h * 1e121 == pytest.approx(np.prod(sides) / (2 * area), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-140, 1e150, 1e153])
    def test_scaled_pair_builds_admissible(self, pair, scale):
        # centers relative to a vertex: from squared absolute coordinates
        # the pair built at 1e-140 with h / s = 2 and tau = inf, and was
        # refused at 1e150 ("circumcenter not finite")
        mesh = Mesh(pair.vertices * scale, pair.triangles)
        assert validate_mesh(mesh).admissible
        assert mesh.h / mesh.edge_length.min() == pytest.approx(2 / np.sqrt(3), rel=1e-14)
        assert mesh.edge_tau[mesh.interior_edges] == pytest.approx([np.sqrt(3)],
                                                                   rel=1e-14)

    def test_integral_float_indices_accepted(self, pair):
        mesh = Mesh(pair.vertices, pair.triangles.astype(float))
        assert mesh.triangles.dtype == np.int32
        assert np.array_equal(mesh.triangles, pair.triangles)

    def test_node_ele(self, tmp_path):
        (tmp_path / "m.node").write_text(
            "4 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 0.5 0.9 1\n4 0.5 -0.9 1\n")
        (tmp_path / "m.ele").write_text("2 3 0\n1 1 2 3\n2 2 1 4\n")
        mesh = load_mesh(tmp_path / "m.node")
        assert mesh.num_triangles == 2
        assert mesh.num_vertices == 4
        assert len(mesh.interior_edges) == 1

    def test_node_ele_zero_based_ids(self, tmp_path):
        # the leading id column is honored, whatever its base
        (tmp_path / "m.node").write_text("3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.5 0.9\n")
        (tmp_path / "m.ele").write_text("1 3 0\n0 0 1 2\n")
        mesh = load_mesh(tmp_path / "m.node")
        assert mesh.num_triangles == 1

    def test_node_ele_unknown_vertex_id(self, tmp_path):
        (tmp_path / "m.node").write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
        (tmp_path / "m.ele").write_text("1 3 0\n1 1 2 9\n")
        with pytest.raises(MeshTopologyError):
            load_mesh(tmp_path / "m.ele")


class TestRefinement:
    def test_single_triangle_split(self, equilateral):
        fine = refine_uniform(equilateral)
        assert fine.num_triangles == 4
        assert abs(fine.h - equilateral.h / 2) < 1e-14
        assert abs(fine.tri_area.sum() - equilateral.tri_area.sum()) < 1e-14

    def test_area_conserved(self):
        mesh = unit_square_acute(1)
        fine = refine_uniform(mesh)
        assert fine.num_triangles == 4 * mesh.num_triangles
        assert abs(fine.tri_area.sum() - mesh.tri_area.sum()) < 1e-12

    def test_angles_preserved(self):
        mesh = unit_square_acute(0)
        fine = refine_uniform(mesh)
        a0 = np.sort(np.unique(np.round(mesh.angles(), 9)))
        a1 = np.sort(np.unique(np.round(fine.angles(), 9)))
        assert np.allclose(a0, a1)

    def test_admissibility_preserved(self):
        mesh = unit_square_acute(0)
        for _ in range(3):
            mesh = refine_uniform(mesh)
            assert validate_mesh(mesh).admissible

    def test_double_refinement_consistent(self, equilateral):
        a = refine_uniform(refine_uniform(equilateral))
        b = refine_uniform(refine_uniform(equilateral))
        key_a = np.sort(np.round(a.vertices[a.triangles].reshape(-1, 6), 12), axis=0)
        key_b = np.sort(np.round(b.vertices[b.triangles].reshape(-1, 6), 12), axis=0)
        assert np.array_equal(key_a, key_b)
        assert abs(a.h - equilateral.h / 4) < 1e-14


def test_resolve_mesh_selector(tmp_path):
    mesh = meshmod.resolve_mesh("acute:1")
    assert mesh.num_triangles == 104
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path)
    assert meshmod.resolve_mesh(str(path)).num_triangles == 104


@pytest.mark.parametrize("spec", ["acute:x", "acute:-1", "acute:"])
def test_resolve_mesh_rejects_bad_selector(spec):
    with pytest.raises(ValueError, match=re.escape(
            f"want acute:L with L an integer >= 0, got {spec!r}")):
        meshmod.resolve_mesh(spec)


def test_equilateral_pair_taus(pair):
    # interior edge: circumcenters sit 1/(2 sqrt(3)) on each side
    e = pair.interior_edges[0]
    assert abs(pair.edge_length[e] / pair.edge_tau[e] - 1 / np.sqrt(3)) < 1e-14
    assert abs(pair.edge_tau[e] - np.sqrt(3)) < 1e-14
    for e in pair.boundary_edges:
        assert abs(pair.edge_tau[e] - 2 * np.sqrt(3)) < 1e-13


class TestLoopOracle:
    """The array-built connectivity against the dictionary-loop build: the
    same values exactly, with the mesh's set-up connectivity 32-bit and its
    per-step index arrays intp where the loop build has int64."""

    WIDTH = {"edges": np.int32, "tri_edges": np.int32,
             "edge_owner": np.intp, "edge_neighbor": np.intp}

    @classmethod
    def assert_matches_loop(cls, mesh):
        ref = edge_topology_loop(mesh.vertices, mesh.triangles)
        for name, expected in ref.items():
            got = getattr(mesh, name)
            assert got.dtype == cls.WIDTH.get(name, expected.dtype), name
            assert got.shape == expected.shape, name
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("level", range(4))
    def test_family_matches_loop_build(self, level):
        mesh = unit_square_acute(level)
        self.assert_matches_loop(mesh)
        verts, tris = refine_uniform_loop(mesh.vertices, mesh.triangles)
        fine = refine_uniform(mesh)
        assert fine.vertices.dtype == verts.dtype and np.array_equal(fine.vertices, verts)
        assert fine.triangles.dtype == np.int32 and np.array_equal(fine.triangles, tris)

    def test_loaded_mesh_matches_loop_build(self, tmp_path):
        # shuffled triangle order and rotated local vertex order
        base = unit_square_acute(1)
        rng = np.random.default_rng(5)
        tris = base.triangles[rng.permutation(base.num_triangles)]
        shifts = rng.integers(0, 3, len(tris))
        tris = np.array([np.roll(t, r) for t, r in zip(tris, shifts)])
        save_mesh(Mesh(base.vertices, tris), tmp_path / "shuffled.mesh")
        self.assert_matches_loop(load_mesh(tmp_path / "shuffled.mesh"))
