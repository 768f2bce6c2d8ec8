# before numpy, so the suite runs on the one BLAS thread the CLI ships with
import fvproj  # noqa: F401
import numpy as np
import pytest

from fvproj import mesh as meshmod
from fixture_meshes import single_triangle


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def equilateral():
    return single_triangle()


@pytest.fixture(scope="session")
def right_triangle():
    return single_triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


@pytest.fixture(scope="session")
def pair():
    """Two unit equilateral triangles sharing an edge."""
    return meshmod.equilateral_pair()


@pytest.fixture(scope="session")
def family():
    """Admissible family levels 0..2 (26, 104, 416 triangles)."""
    return [meshmod.unit_square_acute(level) for level in range(3)]
