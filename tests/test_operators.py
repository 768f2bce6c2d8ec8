import numpy as np
import pytest

from fvproj import reference
from fvproj.fields import (ScalarP1NC, SolenoidalP0, VectorP0, VectorRT0,
                           h_norm, l2_inner, l2_norm, mean_zero, p1nc_mass)
from fvproj.linalg import Tolerance, solve
from fvproj.mesh import unit_square_acute
from fvproj.operators import (convection_matrix, divergence,
                              divergence_matrices, gradient,
                              gradient_matrices, laplacian_p0, leray_project,
                              pressure_stiffness, trilinear_form,
                              upwind_convection, velocity_stiffness)
from field_helpers import project_p1nc
from fixture_meshes import single_triangle


def random_solenoidal(mesh, rng):
    v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
    return SolenoidalP0.trusted(leray_project(v, Tolerance(rtol=1e-13))[0])


class TestGradient:
    def test_affine_reproduction(self, family):
        mesh = family[1]
        q = project_p1nc(lambda x, y: 3 * x - 2 * y + 0.5, mesh)
        g = gradient(q)
        assert np.allclose(g.values, [3.0, -2.0], atol=1e-12)

    def test_constant_gives_zero(self, family):
        mesh = family[0]
        g = gradient(ScalarP1NC(mesh, np.ones(mesh.num_edges)))
        assert np.abs(g.values).max() < 1e-13

    def test_single_triangle_dense_oracle(self, rng):
        mesh = single_triangle()
        q = rng.standard_normal(mesh.num_edges)
        g = gradient(ScalarP1NC(mesh, q))
        g_ref = reference.gradient_direct(mesh, q)
        assert np.abs(g.values - g_ref).max() < 1e-13

    def test_family_dense_oracle(self, family, rng):
        mesh = family[0]
        q = rng.standard_normal(mesh.num_edges)
        g = gradient(ScalarP1NC(mesh, q))
        g_ref = reference.gradient_direct(mesh, q)
        assert np.abs(g.values - g_ref).max() < 1e-12


class TestDivergence:
    def test_equilateral_pair_value(self, pair):
        # cells of area sqrt(3)/4 on both sides of a unit edge, jump of
        # size 1 along the normal: 3 * 1 / (sqrt(3)/2) = 2 sqrt(3)
        e = pair.interior_edges[0]
        K, L = pair.edge_owner[e], pair.edge_neighbor[e]
        vals = np.zeros((2, 2))
        vals[L] = pair.edge_normal[e]
        d = divergence(VectorP0(pair, vals))
        assert abs(d.values[e] - 2 * np.sqrt(3)) < 1e-13
        assert abs(d.values[e] - 3.4641016151377544) < 1e-12

    def test_certified_field_zero_on_interior(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        d = divergence(u.field)
        assert np.abs(d.values).max() < 1e-12

    def test_dense_oracle(self, pair, rng):
        vals = rng.standard_normal((2, 2))
        d = divergence(VectorP0(pair, vals))
        d_ref = reference.divergence_direct(pair, vals)
        assert np.abs(d.values - d_ref).max() < 1e-13

    def test_adjointness_battery(self, family, rng):
        from fvproj.fields import norm_1h
        for mesh in family:
            for _ in range(8):
                v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
                q = ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))
                lhs = l2_inner(v, gradient(q))
                rhs = -l2_inner(q, divergence(v))
                assert abs(lhs - rhs) <= 1e-12 * l2_norm(v) * norm_1h(q)

    def test_matrix_adjointness_identity(self, family):
        # G' M_v = -M_p D in the max norm
        for mesh in family[:2]:
            Gx, Gy = gradient_matrices(mesh)
            Dx, Dy = divergence_matrices(mesh)
            Mv = mesh.tri_area
            Mp = p1nc_mass(mesh)
            for G, D in ((Gx, Dx), (Gy, Dy)):
                resid = (G.T.multiply(Mv)).toarray() + (D.multiply(Mp[:, None])).toarray()
                assert np.abs(resid).max() < 1e-12


class TestPressureLaplacian:
    def test_constant_in_kernel(self, family):
        mesh = family[0]
        c = ScalarP1NC(mesh, np.full(mesh.num_edges, 2.0))
        out = divergence(gradient(c))
        assert np.abs(out.values).max() < 1e-12

    def test_energy_identity(self, family, rng):
        # -(lap q, q) = |grad q|^2
        mesh = family[1]
        for _ in range(6):
            q = ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))
            g = gradient(q)
            lhs = -l2_inner(divergence(gradient(q)), q)
            rhs = l2_inner(g, g)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_weak_matrix_is_spd_with_constant_kernel(self, family):
        mesh = family[0]
        A = pressure_stiffness(mesh).toarray()
        assert np.abs(A - A.T).max() < 1e-13
        w = np.linalg.eigvalsh(A)
        assert w[0] > -1e-12
        assert abs(w[0]) < 1e-12  # constants
        assert w[1] > 1e-6        # rest strictly positive
        assert np.abs(A @ np.ones(mesh.num_edges)).max() < 1e-12

    def test_leray_project_splits_off_a_gradient(self, family, rng):
        mesh = family[1]
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        u, phi = leray_project(v, Tolerance(rtol=1e-13))
        assert l2_norm(divergence(u)) <= 1e-11 * l2_norm(v)
        gap = (v - u).values - gradient(phi).values
        assert np.abs(gap).max() <= 1e-14 * np.abs(v.values).max()
        assert abs(p1nc_mass(mesh) @ phi.values) <= 1e-13 * np.abs(phi.values).max()

    def test_mean_zero_solve_converges(self, family, rng):
        mesh = family[1]
        mass = p1nc_mass(mesh)
        rhs_field = mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges)))
        b = mass * rhs_field.values
        x, info = solve(pressure_stiffness(mesh), b,
                        Tolerance(rtol=1e-12),
                        zero_mean_weights=mass)
        assert info.converged
        assert abs(mass @ x) < 1e-13 * max(np.abs(x).max(), 1.0)


class TestVelocityLaplacian:
    def test_zero(self, family):
        mesh = family[0]
        out = laplacian_p0(VectorP0(mesh, np.zeros((mesh.num_triangles, 2))))
        assert np.abs(out.values).max() == 0.0

    def test_coercivity_identity(self, family, rng):
        for mesh in family:
            for _ in range(8):
                v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
                lhs = -l2_inner(laplacian_p0(v), v)
                rhs = h_norm(v) ** 2
                assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_continuity_bound(self, family, rng):
        mesh = family[1]
        for _ in range(8):
            u = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            assert -l2_inner(laplacian_p0(u), v) <= \
                h_norm(u) * h_norm(v) * (1 + 1e-12)

    def test_matrix_is_symmetric_m_matrix(self, family):
        mesh = family[0]
        H = velocity_stiffness(mesh).toarray()
        assert np.abs(H - H.T).max() < 1e-13
        off = H - np.diag(np.diag(H))
        assert off.max() <= 1e-14           # off-diagonal nonpositive
        assert np.all(np.diag(H) > 0)
        row_sums = H.sum(axis=1)
        assert np.all(row_sums > -1e-12)    # diagonally dominant
        assert row_sums.max() > 1e-8        # strict on boundary rows
        assert np.all(np.linalg.eigvalsh(H) > 0)


class TestUpwindConvection:
    def test_constant_transported_field_vanishes(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        v = VectorP0(mesh, np.tile([2.0, -1.0], (mesh.num_triangles, 1)))
        out = upwind_convection(u, v)
        assert np.abs(out.values).max() < 1e-11

    def test_single_edge_sign_split(self, pair):
        # flux +0.5 through the shared edge: the owner donates its value
        e = pair.interior_edges[0]
        K, L = pair.edge_owner[e], pair.edge_neighbor[e]
        fluxes = np.zeros(pair.num_edges)
        fluxes[e] = 0.5
        u = VectorRT0(pair, fluxes)
        v = VectorP0(pair, np.array([[1.0, 2.0], [3.0, 4.0]])
                     if K == 0 else np.array([[3.0, 4.0], [1.0, 2.0]]))
        vK = v.values[K]
        vL = v.values[L]
        out = upwind_convection(u, v)
        scale = pair.edge_length[e] / pair.tri_area[K]
        assert np.allclose(out.values[K], scale * 0.5 * vK, atol=1e-14)
        # neighbor sees flux -0.5, upwinding from the owner side
        scale_l = pair.edge_length[e] / pair.tri_area[L]
        assert np.allclose(out.values[L], scale_l * (-0.5) * vK, atol=1e-14)

    def test_against_dense_oracle(self, family, rng):
        mesh = family[0]
        u = random_solenoidal(mesh, rng)
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        out = upwind_convection(u, v)
        ref = reference.upwind_direct(mesh, u.edge_normal_fluxes(), v.values)
        assert np.abs(out.values - ref).max() < 1e-12

    def test_uncertified_field_rejected(self, family, rng):
        mesh = family[0]
        raw = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        with pytest.raises(TypeError):
            upwind_convection(raw, raw)

    def test_matrix_positive_semidefinite_for_solenoidal(self, family, rng):
        mesh = family[0]
        u = random_solenoidal(mesh, rng)
        W = convection_matrix(u, weighted=True).toarray()
        sym = 0.5 * (W + W.T)
        assert np.linalg.eigvalsh(sym)[0] > -1e-11 * np.abs(W).max()

    def test_row_sums_are_flux_balances(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        W = convection_matrix(u, weighted=True).matrix
        flux = u.edge_normal_fluxes()
        sign = np.where(mesh.edge_owner[mesh.tri_edges]
                        == np.arange(mesh.num_triangles)[:, None], 1.0, -1.0)
        balance = np.einsum("tj,tj->t", sign * mesh.edge_length[mesh.tri_edges],
                            flux[mesh.tri_edges])
        rows = np.asarray(W.sum(axis=1)).ravel()
        assert np.abs(rows - balance).max() < 1e-11


class TestTrilinearForm:
    def test_positivity(self, family, rng):
        mesh = family[1]
        for _ in range(8):
            u = random_solenoidal(mesh, rng)
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            scale = l2_norm(u.field) * h_norm(v) ** 2
            assert trilinear_form(u, v, v) >= -1e-11 * scale

    def test_zero_advecting_field(self, family, rng):
        mesh = family[0]
        u = SolenoidalP0.certify(VectorP0(mesh, np.zeros((mesh.num_triangles, 2))))
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert trilinear_form(u, v, v) == 0.0

    def test_constant_pair_vanishes(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        c = VectorP0(mesh, np.tile([1.0, 1.0], (mesh.num_triangles, 1)))
        assert abs(trilinear_form(u, c, c)) < 1e-11 * l2_norm(u.field)

    def test_matches_mass_pairing(self, family, rng):
        mesh = family[0]
        u = random_solenoidal(mesh, rng)
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        w = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert abs(trilinear_form(u, v, w)
                   - l2_inner(upwind_convection(u, v), w)) < 1e-12


def test_operator_tags():
    mesh = unit_square_acute(0)
    A = pressure_stiffness(mesh)
    assert A.domain == "p1nc" and A.codomain == "p1nc"
    assert "SparseOperator" in repr(A)
