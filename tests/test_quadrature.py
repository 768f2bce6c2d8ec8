import numpy as np
import pytest

from fvproj import quadrature
from fixture_meshes import single_triangle


def bary_monomial_integral(a, b, c, area):
    """Exact integral of lambda1^a lambda2^b lambda3^c over a triangle:
    2|K| a! b! c! / (a+b+c+2)!."""
    from math import factorial

    return 2.0 * area * factorial(a) * factorial(b) * factorial(c) \
        / factorial(a + b + c + 2)


@pytest.mark.parametrize("order", [1, 2, 4, 5])
def test_triangle_rules_exact_for_barycentric_monomials(order):
    bary, w = quadrature.triangle_rule(order)
    assert abs(w.sum() - 1.0) < 1e-14
    for a in range(order + 1):
        for b in range(order + 1 - a):
            c = order - a - b
            approx = np.sum(w * bary[:, 0] ** a * bary[:, 1] ** b * bary[:, 2] ** c)
            exact = bary_monomial_integral(a, b, c, 1.0)  # area-normalized
            assert abs(approx - exact) < 1e-14


def test_triangle_rule_rejects_high_order():
    with pytest.raises(ValueError):
        quadrature.triangle_rule(6)


def test_triangle_points_mapping():
    mesh = single_triangle(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
    bary = np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    pts = quadrature.triangle_points(mesh.vertices[mesh.triangles], bary)
    assert np.allclose(pts[0, 0], [0.0, 0.0])
    assert np.allclose(pts[0, 1], [2 / 3, 2 / 3])


@pytest.mark.parametrize("n,deg", [(1, 1), (2, 3), (3, 5)])
def test_segment_rule_exactness(n, deg):
    t, w = quadrature.segment_rule(n)
    for p in range(deg + 1):
        assert abs(np.sum(w * t ** p) - 1.0 / (p + 1)) < 1e-14


def test_segment_points():
    a = np.array([[0.0, 0.0]])
    b = np.array([[2.0, 4.0]])
    t = np.array([0.0, 0.5, 1.0])
    pts = quadrature.segment_points(a, b, t)
    assert np.allclose(pts[0], [[0, 0], [1, 2], [2, 4]])
