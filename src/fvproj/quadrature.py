"""Numerical quadrature on triangles and segments.

The triangle rule is a symmetric Gauss rule given in barycentric
coordinates with weights summing to one (so it integrates f against the
measure dx/|K|).  Segment rules are Gauss-Legendre, mapped from [-1, 1].
"""
from __future__ import annotations

import numpy as np

# Symmetric degree-4 triangle rule, 6 points: (barycentric points, weights),
# weights summing to 1; each point c gives the orbit of (1 - 2c, c, c).
_DEG4 = (
    np.array([p for c in (0.445948490915965, 0.091576213509771)
              for p in ([1 - 2 * c, c, c], [c, 1 - 2 * c, c], [c, c, 1 - 2 * c])]),
    np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
)


def triangle_rule(order: int):
    """Barycentric points and weights exact for polynomials of degree
    `order`: the degree-4 rule, for any order up to 4."""
    if order > 4:
        raise ValueError(f"no triangle rule of degree {order} (max 4)")
    return _DEG4


def triangle_points(vertices: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Map barycentric points into physical triangles.

    vertices: (nt, 3, 2) triangle corner coordinates.
    bary: (nq, 3) barycentric points.
    Returns (nt, nq, 2).
    """
    return bary @ vertices


def segment_rule(npoints: int):
    """Gauss-Legendre nodes/weights on [0, 1], weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


def segment_points(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points a + t*(b-a) for endpoint arrays a, b of shape (ne, 2)."""
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
