import numpy as np
import pytest
import scipy.sparse as sp

from fvproj import analysis, reference, scheme
from fvproj.fields import (ScalarP1NC, SolenoidalP0, VectorP0, VectorRT0,
                           h_gram, h_norm, l2_inner, l2_norm, mean_zero, p1nc_mass)
from fvproj.linalg import SolverError, solve
from fvproj.mesh import Mesh, unit_square_acute
from fvproj.operators import (convection_matrix, divergence, gradient,
                              gradient_matrices, laplacian_p0, leray_project,
                              pressure_stiffness, trilinear_form,
                              upwind_convection)
from field_helpers import project_p1nc
from fixture_meshes import single_triangle, square_two_triangles
from loop_oracles import upwind_direct


def random_solenoidal(mesh, rng):
    v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
    return leray_project(v)[0]


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

    def test_components_share_one_pattern(self, family):
        # Gy keeps Gx's index arrays: rows of three edges in increasing
        # order, the canonical CSR form
        for mesh in family:
            Gx, Gy = gradient_matrices(mesh)
            assert np.shares_memory(Gx.indices, Gy.indices)
            assert np.shares_memory(Gx.indptr, Gy.indptr)
            assert Gx.has_canonical_format and Gx.nnz == 3 * mesh.num_triangles


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

    def test_edge_formula_against_direct_assembly(self, family, rng):
        # the production formula (per-mesh weights, a zero cell behind the
        # boundary) against the loop that recomputes areas and normals
        for mesh in family:
            vals = rng.standard_normal((mesh.num_triangles, 2))
            d = divergence(VectorP0(mesh, vals)).values
            d_ref = reference.divergence_direct(mesh, vals)
            assert np.abs(d - d_ref).max() <= 1e-13 * np.abs(d_ref).max()

    def test_one_boundary_cell(self, family):
        # a field that is nonzero in one boundary cell only, numbered last:
        # its three edges see it, and no other boundary edge (neighbour -1)
        # reads the last cell
        base = family[0]
        cell = base.edge_owner[base.boundary_edges[0]]
        order = np.append(np.delete(np.arange(base.num_triangles), cell), cell)
        mesh = Mesh(base.vertices, base.triangles[order])
        K = mesh.num_triangles - 1
        vals = np.zeros((mesh.num_triangles, 2))
        vals[K] = [0.3, -1.7]
        d = divergence(VectorP0(mesh, vals)).values
        assert set(np.flatnonzero(d)) == set(mesh.tri_edges[K])
        on_boundary = [e for e in mesh.tri_edges[K] if mesh.edge_neighbor[e] < 0]
        assert on_boundary
        for e in on_boundary:
            assert d[e] == pytest.approx(-3.0 * mesh.edge_length[e] / mesh.tri_area[K]
                                         * (vals[K] @ mesh.edge_normal[e]), rel=1e-14)
        assert np.abs(d - reference.divergence_direct(mesh, vals)).max() < 1e-13

    def test_cache_holds_no_divergence_matrix(self):
        # the divergence keeps its (ne, 2) edge weights per mesh, and no
        # matrix beside the gradient's
        mesh = unit_square_acute(1)
        divergence(VectorP0(mesh, np.ones((mesh.num_triangles, 2))))
        assert list(mesh._cache) == ["divergence_weights"]
        held = [x for v in mesh._cache.values()
                for x in (v if isinstance(v, tuple) else (v,))]
        assert not any(sp.issparse(x) for x in held)
        assert held[0].shape == (mesh.num_edges, 2)

    def test_adjointness_battery(self, family, rng):
        from fvproj.operators import norm_1h
        for mesh in family:
            for _ in range(8):
                v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
                q = ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges))
                lhs = l2_inner(v, gradient(q))
                rhs = -l2_inner(q, divergence(v))
                assert abs(lhs - rhs) <= 1e-12 * l2_norm(v) * norm_1h(q)

    def test_matrix_adjointness_identity(self, family):
        # G' M_v = -M_p D in the max norm, column K of D the divergence of
        # the unit field of cell K in one component
        for mesh in family[:2]:
            Mv = mesh.tri_area
            Mp = p1nc_mass(mesh)
            for c, G in enumerate(gradient_matrices(mesh)):
                D = np.empty((mesh.num_edges, mesh.num_triangles))
                unit = np.zeros((mesh.num_triangles, 2))
                for K in range(mesh.num_triangles):
                    unit[K, c] = 1.0
                    D[:, K] = divergence(VectorP0(mesh, unit)).values
                    unit[K, c] = 0.0
                resid = G.T.multiply(Mv).toarray() + Mp[:, None] * D
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
        u, phi, info, div_l2 = leray_project(v)
        assert isinstance(u, SolenoidalP0)
        assert div_l2 == l2_norm(divergence(u.field)) <= 1e-11 * l2_norm(v)
        assert 0.0 < info.backward_error <= 1e-13
        gap = (v - u.field).values - gradient(phi).values
        assert np.abs(gap).max() <= 1e-14 * np.abs(v.values).max()
        assert abs(p1nc_mass(mesh) @ phi.values) <= 1e-13 * np.abs(phi.values).max()

    def test_only_projections_solve_with_the_pressure_factor(self):
        # every projection goes through leray_project; the one other solve
        # with the pressure factor is an eigen operator of the Poincare
        # constant, not a projection
        import ast
        from pathlib import Path
        import fvproj

        def is_factor(node, names):
            return ((isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "pressure_solver")
                    or (isinstance(node, ast.Name) and node.id in names))

        sites = set()
        for path in Path(fvproj.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                nodes = list(ast.walk(fn))
                names = {t.id for n in nodes if isinstance(n, ast.Assign)
                         and is_factor(n.value, ()) for t in n.targets
                         if isinstance(t, ast.Name)}
                if any(isinstance(n, ast.Attribute) and n.attr == "solve"
                       and is_factor(n.value, names) for n in nodes):
                    sites.add(f"{path.stem}.{fn.name}")
        assert sites == {"operators.leray_project",
                         "analysis.poincare_inverse_constants"}

    def test_mean_zero_solve_converges(self, family, rng):
        mesh = family[1]
        mass = p1nc_mass(mesh)
        rhs_field = mean_zero(ScalarP1NC(mesh, rng.standard_normal(mesh.num_edges)))
        b = mass * rhs_field.values
        x, info = solve(pressure_stiffness(mesh), b, None, zero_mean_weights=mass)
        assert info.converged
        assert abs(mass @ x) < 1e-13 * max(np.abs(x).max(), 1.0)


# Every caller of leray_project is refused a field that misses the
# divergence certificate.  A gradient scaled by 1 + 1e-11 leaves |div u|
# at 1e-11 |div v|, ten times the bound when |div v| sets the scale (the
# run's initial projection: 1.384e-11 against 1e-12 * 1.384; the convection
# check: 3.371e-10 against 1e-12 * 33.71); 1 + 1e-13 stays inside it.
_CERTIFIED_CALLERS = {
    "run": ("initial projection",
            lambda: scheme.run(scheme.RunConfig(mesh_spec="acute:1", n_steps=3))),
    "check_convection": ("convection-positivity level 0",
                         lambda: analysis.check_convection(unit_square_acute(1))),
    "random_solenoidal": ("random solenoidal field", lambda: analysis.random_solenoidal(
        unit_square_acute(1), np.random.default_rng(0))),
}


def _scale_gradient(monkeypatch, factor):
    from fvproj import operators
    exact = operators.gradient
    monkeypatch.setattr(operators, "gradient", lambda q: exact(q) * factor)


class TestCertificate:
    @pytest.mark.parametrize("caller", list(_CERTIFIED_CALLERS))
    def test_fails_when_the_projection_is_off(self, monkeypatch, caller):
        where, call = _CERTIFIED_CALLERS[caller]
        _scale_gradient(monkeypatch, 1 + 1e-11)
        with pytest.raises(SolverError, match=rf"^{where}: divergence-free "
                           r"certificate failed .* backward error \d"):
            call()

    @pytest.mark.parametrize("caller", list(_CERTIFIED_CALLERS))
    def test_passes_within_its_bound(self, monkeypatch, caller):
        _scale_gradient(monkeypatch, 1 + 1e-13)
        _CERTIFIED_CALLERS[caller][1]()

    def test_rounding_failure_is_projected_twice(self, monkeypatch):
        # a certificate that only the rounding of phi fails (ratio 3.4e-16
        # against a CERT_TOL of 1e-16 here): the divergence meets the
        # pressure gate as a residual, so the field is projected once more,
        # and the SolveInfo says so
        from fvproj import operators
        mesh = unit_square_acute(1)
        v = VectorP0(mesh, np.random.default_rng(0).standard_normal(
            (mesh.num_triangles, 2)))
        _, _, once, div_once = leray_project(v)
        assert once.fallbacks == []
        monkeypatch.setattr(operators, "CERT_TOL", 1e-16)
        u, phi, info, div_l2 = leray_project(v)
        assert info.fallbacks == ["second projection"]
        assert info.backward_error >= once.backward_error
        assert div_l2 <= 1e-16 * max(l2_norm(u.field), l2_norm(divergence(v))) < div_once
        # phi is the sum of both potentials
        assert np.abs((v - gradient(phi)).values - u.values).max() <= 1e-13


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
        H = h_gram(mesh).toarray()
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
        ref = upwind_direct(mesh, u.edge_normal_fluxes(), v.values)
        assert np.abs(out.values - ref).max() < 1e-12

    def test_uncertified_field_rejected(self, family, rng):
        mesh = family[0]
        raw = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        with pytest.raises(TypeError):
            upwind_convection(raw, raw)

    def test_matrix_positive_semidefinite_for_solenoidal(self, family, rng):
        mesh = family[0]
        u = random_solenoidal(mesh, rng)
        W = convection_matrix(u).toarray()
        sym = 0.5 * (W + W.T)
        assert np.linalg.eigvalsh(sym)[0] > -1e-11 * np.abs(W).max()

    def test_row_sums_are_flux_balances(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        W = convection_matrix(u)
        flux = u.edge_normal_fluxes()
        sign = np.where(mesh.edge_owner[mesh.tri_edges]
                        == np.arange(mesh.num_triangles)[:, None], 1.0, -1.0)
        balance = np.einsum("tj,tj->t", sign * mesh.edge_length[mesh.tri_edges],
                            flux[mesh.tri_edges])
        rows = np.asarray(W.sum(axis=1)).ravel()
        assert np.abs(rows - balance).max() < 1e-11


def _convection_coo(u, weighted):
    """The upwind matrix assembled from COO triplets, with duplicates
    summed: the oracle of the fill into H's pattern."""
    mesh = u.mesh
    flux = u.edge_normal_fluxes()
    ii = mesh.interior_edges
    K, L = mesh.edge_owner[ii], mesh.edge_neighbor[ii]
    s, f = mesh.edge_length[ii], flux[ii]
    rows = np.concatenate([K, K, L, L])
    cols = np.concatenate([K, L, L, K])
    vals = np.concatenate([s * np.maximum(f, 0.0), s * np.minimum(f, 0.0),
                           s * np.maximum(-f, 0.0), s * np.minimum(-f, 0.0)])
    if not weighted:
        vals = vals / mesh.tri_area[rows]
    nt = mesh.num_triangles
    C = sp.csr_matrix((vals, (rows, cols)), shape=(nt, nt))
    C.sum_duplicates()
    return C


class TestConvectionPattern:
    """C(u*) is filled straight into the CSR pattern of H."""

    @pytest.mark.parametrize("build", [lambda level=level: unit_square_acute(level)
                                       for level in range(4)]
                             + [square_two_triangles],
                             ids=[f"acute:{level}" for level in range(4)] + ["square"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_coo_assembly(self, build, weighted, rng):
        # weighted: the matrix W itself; unweighted: the operator, which
        # upwind_convection applies as (W v)/|K|
        mesh = build()
        u = VectorRT0(mesh, rng.standard_normal(mesh.num_edges))
        C = convection_matrix(u)
        ref = _convection_coo(u, weighted)
        H = h_gram(mesh)
        assert C.nnz == ref.nnz == H.nnz
        assert np.shares_memory(C.indices, H.indices)
        assert np.shares_memory(C.indptr, H.indptr)
        if weighted:
            diff = np.abs((C - ref).toarray()).max()
            assert diff <= 1e-15 * np.abs(ref.toarray()).max()
        else:
            v = rng.standard_normal((mesh.num_triangles, 2))
            out = upwind_convection(u, VectorP0(mesh, v)).values
            assert np.all(np.abs(out - ref @ v) <= 1e-14 * (abs(ref) @ np.abs(v)))


class TestTrilinearForm:
    def test_positivity(self, family, rng):
        mesh = family[1]
        for _ in range(8):
            u = random_solenoidal(mesh, rng)
            v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
            scale = l2_norm(u.field) * h_norm(v) ** 2
            assert trilinear_form(convection_matrix(u), v, v) >= -1e-11 * scale

    def test_zero_advecting_field(self, family, rng):
        mesh = family[0]
        u = SolenoidalP0(VectorP0(mesh, np.zeros((mesh.num_triangles, 2))))
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert trilinear_form(convection_matrix(u), v, v) == 0.0

    def test_constant_pair_vanishes(self, family, rng):
        mesh = family[1]
        u = random_solenoidal(mesh, rng)
        c = VectorP0(mesh, np.tile([1.0, 1.0], (mesh.num_triangles, 1)))
        assert abs(trilinear_form(convection_matrix(u), c, c)) < 1e-11 * l2_norm(u.field)

    def test_matches_mass_pairing(self, family, rng):
        mesh = family[0]
        u = random_solenoidal(mesh, rng)
        v = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        w = VectorP0(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        assert abs(trilinear_form(convection_matrix(u), v, w)
                   - l2_inner(upwind_convection(u, v), w)) < 1e-12
