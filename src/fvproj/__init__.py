"""Finite-volume projection solver for the 2D incompressible Navier-Stokes
equations on admissible (strictly acute) triangular meshes, plus a
verification suite that checks every structural property of the discrete
operators numerically."""

import os as _os

# Cap BLAS worker pools before numpy loads; harmless if numpy is already up.
if "FVPROJ_THREADS" in _os.environ:
    _n = _os.environ["FVPROJ_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _n)

from .mesh import (Mesh, MeshQualityReport, load_mesh, refine_uniform,
                   resolve_mesh, unit_square_acute, validate_mesh)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshQualityReport", "load_mesh", "validate_mesh",
    "refine_uniform", "unit_square_acute", "resolve_mesh", "__version__",
]
