import numpy as np
import pytest
import scipy.sparse as sp

from fvproj.fields import (ScalarP1NC, SolenoidalP0, SpaceMismatchError,
                           VectorP0, VectorRT0, collocate_p0, h_gram, h_norm,
                           l2_inner, l2_norm, mean_zero, p1nc_mass,
                           project_p0, project_rt0)
from fvproj.mesh import refine_uniform, unit_square_acute
from fvproj.operators import dual_norm, gradient, laplacian_p0, norm_1h
from field_helpers import (p1nc_cell_values, project_p1nc,
                           rt0_cell_reconstruction)
from loop_oracles import brute_force_dual_norm, h_norm_direct, p1nc_mass_direct


def stream_velocity(x, y):
    """curl of (x(1-x)y(1-y))^2: divergence free, zero trace."""
    ax = x * x * (1 - x) ** 2
    day = 2 * y - 6 * y**2 + 4 * y**3
    dax = 2 * x - 6 * x**2 + 4 * x**3
    ay = y * y * (1 - y) ** 2
    return np.stack([ax * day, -dax * ay], axis=-1)


class TestCellProjection:
    def test_constant(self, family):
        f = project_p0(lambda x, y: np.stack([np.full_like(x, 3.25),
                                              np.full_like(x, -1.5)], axis=-1),
                       family[0])
        assert np.allclose(f.values, [3.25, -1.5], atol=1e-14)

    def test_linear_on_right_triangle(self, right_triangle):
        # cell average of x over that triangle: (integral x = 1/6) / (1/2)
        f = project_p0(lambda x, y: np.stack([x, y], axis=-1), right_triangle)
        assert np.abs(f.values[0] - 1.0 / 3.0).max() < 1e-15

    def test_projection_preserves_p0_pairings(self, family):
        # (Pi w, v) = (w, v) for cellwise v and polynomial w within the
        # quadrature degree
        mesh = family[1]
        rng = np.random.default_rng(3)
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))

        def w(x, y):
            return np.stack([x**2 * y, x - y**3], axis=-1)

        pw = project_p0(w, mesh)
        lhs = l2_inner(pw, v)
        # (w, v) by cellwise exact quadrature of w against constants
        from fvproj import quadrature
        bary, wq = quadrature.triangle_rule(4)
        pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
        wvals = np.einsum("tqd,q->td", w(pts[..., 0], pts[..., 1]), wq)
        rhs = float(np.sum(mesh.tri_area * np.einsum("td,td->t", wvals, v.values)))
        assert abs(lhs - rhs) < 1e-13 * max(abs(lhs), 1.0)

    def test_vector_output_shape(self, family):
        f = project_p0(stream_velocity, family[0])
        assert isinstance(f, VectorP0)


class TestCollocation:
    def test_constant(self, family):
        f = collocate_p0(lambda x, y: np.full(np.shape(x) + (2,), -2.0), family[0])
        assert np.allclose(f.values, -2.0)

    def test_identity_at_equilateral_circumcenter(self, equilateral):
        f = collocate_p0(lambda x, y: np.stack([x, y], axis=-1), equilateral)
        assert np.allclose(f.values[0], [0.5, np.sqrt(3) / 6], atol=1e-14)

    def test_affine_matches_average_on_equilateral(self, equilateral):
        # circumcenter of an equilateral triangle is its centroid, so the
        # point value equals the cell average for affine functions
        f = lambda x, y: np.stack([2 * x - y, x + 3 * y], axis=-1)
        a = collocate_p0(f, equilateral)
        b = project_p0(f, equilateral)
        assert np.allclose(a.values, b.values, atol=1e-14)

    def test_affine_differs_on_nonsymmetric_cell(self, family):
        mesh = family[0]
        f = lambda x, y: np.stack([x, y], axis=-1)
        a = collocate_p0(f, mesh)
        b = project_p0(f, mesh)
        assert np.abs(a.values - b.values).max() > 1e-4


class TestEdgeProjection:
    def test_constant(self, family):
        q = project_p1nc(lambda x, y: np.full_like(x, 7.0), family[0])
        assert np.allclose(q.values, 7.0, atol=1e-14)

    def test_affine_exact_at_midpoints(self, family):
        mesh = family[1]
        q = project_p1nc(lambda x, y: 2 * x - 3 * y + 1, mesh)
        mid = mesh.edge_midpoint
        assert np.allclose(q.values, 2 * mid[:, 0] - 3 * mid[:, 1] + 1, atol=1e-13)

    def test_interpolation_error_first_order(self):
        # |q - Pi q| = O(h) for smooth q under uniform refinement
        from fvproj import quadrature

        def q(x, y):
            return np.sin(np.pi * x) * np.cos(2 * np.pi * y)

        errs, hs = [], []
        mesh = unit_square_acute(0)
        for _ in range(4):
            qi = project_p1nc(q, mesh)
            bary, w = quadrature.triangle_rule(4)
            pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
            diff = q(pts[..., 0], pts[..., 1]) - p1nc_cell_values(qi, bary)
            err = np.sqrt(np.sum(mesh.tri_area * np.einsum("tq,tq,q->t",
                                                           diff, diff, w)))
            errs.append(err)
            hs.append(mesh.h)
            mesh = refine_uniform(mesh)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope > 0.9


class TestFluxProjection:
    def test_constant_interior_fluxes(self, family):
        mesh = family[0]
        u = project_rt0(lambda x, y: np.stack([np.ones_like(x),
                                               np.zeros_like(y)], axis=-1), mesh)
        ii = mesh.interior_edges
        assert np.allclose(u.values[ii], mesh.edge_normal[ii, 0], atol=1e-14)

    def test_boundary_fluxes_forced_zero(self, family):
        mesh = family[1]
        u = project_rt0(lambda x, y: np.stack([x + 1, y - 2], axis=-1), mesh)
        assert np.all(u.values[mesh.boundary_edges] == 0.0)

    def test_divergence_free_flux_balance(self, family):
        # per-cell edge-flux sum vanishes for a solenoidal field; the
        # edge rule is exact for the degree-7 edge traces of this velocity
        mesh = family[1]
        u = project_rt0(stream_velocity, mesh)
        sign = np.where(mesh.edge_owner[mesh.tri_edges]
                        == np.arange(mesh.num_triangles)[:, None], 1.0, -1.0)
        balance = np.einsum("tj,tj->t", sign * mesh.edge_length[mesh.tri_edges],
                            u.values[mesh.tri_edges])
        assert np.abs(balance).max() < 1e-13

    def test_stream_function_boundary_fluxes_zero_before_forcing(self, family):
        mesh = family[1]
        from fvproj import quadrature
        t, w = quadrature.segment_rule(3)
        bb = mesh.boundary_edges
        pts = quadrature.segment_points(mesh.vertices[mesh.edges[bb, 0]],
                                        mesh.vertices[mesh.edges[bb, 1]], t)
        vals = stream_velocity(pts[..., 0], pts[..., 1])
        raw = np.einsum("eqd,q,ed->e", vals, w, mesh.edge_normal[bb])
        assert np.abs(raw).max() < 1e-14

    def test_reconstruction_reproduces_fluxes(self, pair):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(pair.num_edges)
        vals[pair.boundary_edges] = 0.0
        u = VectorRT0(pair, vals)
        mid_bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        rec = rt0_cell_reconstruction(u, mid_bary)
        # normal trace at each edge midpoint, taken with the cell's own
        # outward normal, must equal the flux relative to that normal
        for k in range(pair.num_triangles):
            for j in range(3):
                e = pair.tri_edges[k, j]
                # edge opposite vertex j joins vertices j+1, j+2: its midpoint
                # in barycentric coords has a zero at position j
                q = [m for m in range(3) if mid_bary[m][j] == 0.0][0]
                sign = 1.0 if pair.edge_owner[e] == k else -1.0
                outward = sign * pair.edge_normal[e]
                assert abs(rec[k, q] @ outward - sign * vals[e]) < 1e-13


class TestInnerProductsAndNorms:
    def test_unit_area(self, family):
        one = VectorP0(family[0], np.tile([0.6, 0.8], (family[0].num_triangles, 1)))
        assert abs(l2_norm(one) - 1.0) < 1e-13

    def test_midpoint_rule_quadratic_exactness(self, right_triangle):
        # integral of x^2 over the unit right triangle is 1/12; the
        # edge-midpoint rule reproduces it exactly
        mids = right_triangle.edge_midpoint
        q = ScalarP1NC(right_triangle, mids[:, 0])
        assert abs(l2_inner(q, q) - 1.0 / 12.0) < 1e-15

    def test_p1nc_mass_is_exactly_diagonal(self, pair):
        dense = p1nc_mass_direct(pair)
        diag = p1nc_mass(pair)
        off = dense - np.diag(np.diag(dense))
        assert np.abs(off).max() < 1e-13
        assert np.allclose(np.diag(dense), diag, atol=1e-13)

    def test_h_gram_owns_compact_arrays(self, family):
        # its data and indices, which every momentum matrix shares, are not
        # views of the longer arrays that summed its duplicate entries
        for mesh in family:
            H = h_gram(mesh)
            for arr in (H.data, H.indices):
                while arr.base is not None:
                    arr = arr.base
                assert arr.size == H.nnz

    def test_p1nc_mass_cached_read_only(self):
        mesh = unit_square_acute(1)
        m = p1nc_mass(mesh)
        assert p1nc_mass(mesh) is m
        assert p1nc_mass(unit_square_acute(1)) is not m
        with pytest.raises(ValueError):
            m[0] = 1.0
        assert np.allclose(m, np.diag(p1nc_mass_direct(mesh)), atol=1e-15)

    def test_p1nc_mass_entries(self, pair):
        m = p1nc_mass(pair)
        area = np.sqrt(3) / 4
        e = pair.interior_edges[0]
        assert abs(m[e] - 2 * area / 3) < 1e-14
        for e in pair.boundary_edges:
            assert abs(m[e] - area / 3) < 1e-14

    def test_cauchy_schwarz(self, family, rng):
        mesh = family[1]
        for _ in range(8):
            a = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            b = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            assert abs(l2_inner(a, b)) <= l2_norm(a) * l2_norm(b) * (1 + 1e-12)

    def test_mesh_mismatch_rejected(self, family):
        a = VectorP0(family[0], np.zeros((family[0].num_triangles, 2)))
        b = VectorP0(family[1], np.zeros((family[1].num_triangles, 2)))
        with pytest.raises(SpaceMismatchError):
            l2_inner(a, b)

    def test_h_norm_zero_only_for_zero(self, pair, rng):
        z = VectorP0(pair, np.zeros((2, 2)))
        assert h_norm(z) == 0.0
        v = VectorP0(pair, rng.standard_normal((2, 2)))
        assert h_norm(v) > 0

    def test_h_norm_two_cell_example(self, pair):
        # v = (1,0) on the owner cell, zero on the neighbor
        e = pair.interior_edges[0]
        K = pair.edge_owner[e]
        vals = np.zeros((2, 2))
        vals[K] = (1.0, 0.0)
        expected = pair.edge_tau[e]
        for b in pair.boundary_edges:
            if pair.edge_owner[b] == K:
                expected += pair.edge_tau[b]
        assert abs(h_norm(VectorP0(pair, vals)) ** 2 - expected) < 1e-13

    def test_h_norm_equals_laplacian_energy(self, family, rng):
        mesh = family[1]
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert abs(-l2_inner(laplacian_p0(v), v) - h_norm(v) ** 2) \
            < 1e-12 * h_norm(v) ** 2

    def test_h_norm_direct_oracle(self, family, rng):
        mesh = family[0]
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert abs(h_norm(v) - h_norm_direct(mesh, v.values)) < 1e-12


class TestDualNorm:
    def test_zero(self, pair):
        assert dual_norm(VectorP0(pair, np.zeros((2, 2)))) == 0.0

    def test_pairing_bound(self, family, rng):
        mesh = family[0]
        for _ in range(6):
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            psi = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            assert l2_inner(v, psi) <= dual_norm(v) * h_norm(psi) * (1 + 1e-10)

    def test_brute_force_oracle_two_cells(self, pair, rng):
        v = VectorP0(pair, rng.standard_normal((2, 2)))
        exact = dual_norm(v)
        brute = brute_force_dual_norm(pair, v.values)
        assert abs(exact - brute) <= 1e-12 * exact

    def test_dense_oracle_level_one(self, rng):
        mesh = unit_square_acute(1)
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        exact = dual_norm(v)
        dense = brute_force_dual_norm(mesh, v.values)
        assert abs(exact - dense) <= 1e-12 * exact

    def test_bounded_by_l2_norm(self, family, rng):
        # Poincare implies the dual norm is controlled by the plain norm
        mesh = family[1]
        for _ in range(5):
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            assert dual_norm(v) <= 1.0 * l2_norm(v)


class TestPressureHelpers:
    def test_mean_zero_constant(self, family):
        mesh = family[0]
        c = ScalarP1NC(mesh, np.full(mesh.num_edges, 4.5))
        z = mean_zero(c)
        assert np.abs(z.values).max() < 1e-13
        assert abs(norm_1h(c) - 4.5 * np.sqrt(mesh.tri_area.sum())) < 1e-12

    def test_mean_zero_idempotent(self, family, rng):
        mesh = family[1]
        q = ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))
        z1 = mean_zero(q)
        z2 = mean_zero(z1)
        m = p1nc_mass(mesh)
        assert abs(m @ z1.values) < 1e-13 * np.abs(z1.values).max()
        assert np.allclose(z1.values, z2.values, atol=1e-14)

    def test_pressure_poincare_reported(self, family, rng):
        # |q| <= C |grad q| for mean-zero q; just confirm finiteness of the
        # ratio on random fields (the constant is studied in the analysis
        # suite)
        mesh = family[1]
        q = mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges)))
        g = gradient(q)
        assert l2_norm(q) / l2_norm(g) < 10.0


class TestSerialization:
    def test_vtk_cell_and_point_variants(self, pair, tmp_path, rng):
        # cellwise fields as CELL_DATA, edge-indexed fields as a point cloud
        from fvproj import vtkio
        grid = tmp_path / "cells.vtk"
        vtkio.write_unstructured(
            grid, pair, cell_vectors={"value": rng.standard_normal((2, 2))})
        data = grid.read_bytes()
        assert b"DATASET UNSTRUCTURED_GRID" in data
        assert b"CELL_DATA 2" in data
        cloud = tmp_path / "edges.vtk"
        vtkio.write_point_cloud(cloud, pair.edge_midpoint,
                                scalars={"value": rng.standard_normal(5)})
        data = cloud.read_bytes()
        assert b"DATASET POLYDATA" in data
        assert b"POINT_DATA 5" in data


def test_field_arithmetic(pair, rng):
    a = VectorP0(pair, rng.standard_normal((2, 2)))
    b = VectorP0(pair, rng.standard_normal((2, 2)))
    c = 2.0 * a - b
    assert np.allclose(c.values, 2 * a.values - b.values)


# -- the einsum formulas the field kernels replaced, kept as oracles ----------

def _fluxes_einsum(mesh, vals):
    flux = np.einsum("ed,ed->e", vals[mesh.edge_owner], mesh.edge_normal)
    ii = mesh.interior_edges
    nb = np.einsum("ed,ed->e", vals[mesh.edge_neighbor[ii]], mesh.edge_normal[ii])
    flux[ii] = 0.5 * (flux[ii] + nb)
    flux[mesh.boundary_edges] = 0.0
    return flux


def _h_norm_einsum(mesh, vals):
    ii, bb = mesh.interior_edges, mesh.boundary_edges
    diff = vals[mesh.edge_neighbor[ii]] - vals[mesh.edge_owner[ii]]
    bnd = vals[mesh.edge_owner[bb]]
    return np.sqrt(np.sum(mesh.edge_tau[ii] * np.einsum("ed,ed->e", diff, diff))
                   + np.sum(mesh.edge_tau[bb] * np.einsum("ed,ed->e", bnd, bnd)))


def _l2_inner_einsum(mesh, a, b):
    return np.sum(mesh.tri_area * np.einsum("td,td->t", a, b))


class TestFieldKernels:
    """The flux, H1-norm and L2 kernels against the einsum formulas they
    replaced, on seeded random fields."""

    @pytest.fixture(scope="class", params=[0, 1, 2, 3])
    def fields(self, request):
        mesh = unit_square_acute(request.param)
        rng = np.random.default_rng(request.param)
        a, b = rng.standard_normal((2, mesh.num_triangles, 2))
        return mesh, a, b

    def test_edge_normal_fluxes(self, fields):
        mesh, a, _ = fields
        flux = SolenoidalP0(VectorP0(mesh, a)).edge_normal_fluxes()
        old = _fluxes_einsum(mesh, a)
        assert np.abs(flux - old).max() <= 1e-13 * np.abs(old).max()
        assert np.all(flux[mesh.boundary_edges] == 0.0)
        assert not np.any(np.signbit(flux[mesh.boundary_edges]))

    def test_h_norm(self, fields):
        mesh, a, _ = fields
        old = _h_norm_einsum(mesh, a)
        assert abs(h_norm(VectorP0(mesh, a)) - old) <= 1e-13 * old

    def test_l2_inner(self, fields):
        mesh, a, b = fields
        va, vb = VectorP0(mesh, a), VectorP0(mesh, b)
        norm_a = np.sqrt(_l2_inner_einsum(mesh, a, a))
        norm_b = np.sqrt(_l2_inner_einsum(mesh, b, b))
        assert abs(l2_inner(va, va) - norm_a ** 2) <= 1e-13 * norm_a ** 2
        assert (abs(l2_inner(va, vb) - _l2_inner_einsum(mesh, a, b))
                <= 1e-13 * norm_a * norm_b)

    def test_coercivity_check_sees_a_perturbed_gram_matrix(self):
        # h_norm sums over edges and never reads h_gram, so a change of one
        # transmissibility in the matrix that laplacian_p0 reads must fail
        # the coercivity row, which compares the two
        from fvproj import analysis

        def coercivity(mesh):
            report = analysis.check_identities(mesh)
            row, = [r for r in report.results
                    if r.name == "velocity-laplacian-coercivity"]
            return row

        mesh = unit_square_acute(1)
        assert coercivity(mesh).passed
        e = mesh.interior_edges[len(mesh.interior_edges) // 2]
        K, L = mesh.edge_owner[e], mesh.edge_neighbor[e]
        jump = sp.csr_matrix(([1.0, -1.0], ([0, 0], [K, L])),
                             shape=(1, mesh.num_triangles))
        mesh._cache["h_gram"] = (h_gram(mesh)
                                 + 1e-3 * mesh.edge_tau[e] * (jump.T @ jump)).tocsr()
        row = coercivity(mesh)
        assert not row.passed and row.value > 1e3 * row.tolerance
