"""Finite-volume projection solver for the 2D incompressible Navier-Stokes
equations on admissible (strictly acute) triangular meshes, plus a
verification suite that checks every structural property of the discrete
operators numerically."""

import os as _os

# One BLAS thread unless set before launch, so output bytes do not follow the
# core count (a threaded dot sums in another order); too late once numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .mesh import (Mesh, MeshQualityReport, load_mesh, refine_uniform,
                   resolve_mesh, unit_square_acute, validate_mesh)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshQualityReport", "load_mesh", "validate_mesh",
    "refine_uniform", "unit_square_acute", "resolve_mesh", "__version__",
]
