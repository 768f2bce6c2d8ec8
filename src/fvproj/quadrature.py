"""Numerical quadrature on triangles and segments.

Triangle rules are symmetric Gauss rules given in barycentric coordinates
with weights summing to one (so they integrate f against the measure
dx/|K|).  Segment rules are Gauss-Legendre, mapped from [-1, 1].
"""
from __future__ import annotations

import numpy as np

# Symmetric triangle rules, (barycentric points, weights).  Weights sum to 1.
_CENTROID = (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0]))

# Edge-midpoint rule: exact for quadratics, and the rule that makes the
# nonconforming P1 mass matrix diagonal.
_MIDPOINT = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
)


def _sym6(a, wa, b, wb):
    pts = []
    for c in (a, b):
        pts += [[1 - 2 * c, c, c], [c, 1 - 2 * c, c], [c, c, 1 - 2 * c]]
    w = np.array([wa] * 3 + [wb] * 3)
    return np.array(pts), w


# Degree-4 rule, 6 points.
_DEG4 = _sym6(0.445948490915965, 0.223381589678011,
              0.091576213509771, 0.109951743655322)

# Degree-5 rule, 7 points.
_p1, _w1 = 0.470142064105115, 0.132394152788506
_p2, _w2 = 0.101286507323456, 0.125939180544827
_DEG5 = (
    np.vstack([_CENTROID[0],
               [[1 - 2 * _p1, _p1, _p1], [_p1, 1 - 2 * _p1, _p1], [_p1, _p1, 1 - 2 * _p1],
                [1 - 2 * _p2, _p2, _p2], [_p2, 1 - 2 * _p2, _p2], [_p2, _p2, 1 - 2 * _p2]]]),
    np.array([0.225] + [_w1] * 3 + [_w2] * 3),
)

_TRIANGLE_RULES = {1: _CENTROID, 2: _MIDPOINT, 4: _DEG4, 5: _DEG5}


def triangle_rule(order: int):
    """Barycentric points and weights exact for polynomials of degree `order`.

    Returns the cheapest available rule of at least the requested degree.
    """
    if order < 1:
        order = 1
    for deg in sorted(_TRIANGLE_RULES):
        if deg >= order:
            return _TRIANGLE_RULES[deg]
    raise ValueError(f"no triangle rule of degree >= {order} (max 5)")


def triangle_points(vertices: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Map barycentric points into physical triangles.

    vertices: (nt, 3, 2) triangle corner coordinates.
    bary: (nq, 3) barycentric points.
    Returns (nt, nq, 2).
    """
    return bary @ vertices


def segment_rule(npoints: int = 3):
    """Gauss-Legendre nodes/weights on [0, 1], weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


def segment_points(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points a + t*(b-a) for endpoint arrays a, b of shape (ne, 2)."""
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
