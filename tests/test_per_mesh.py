"""The one per-mesh cache, ``mesh.per_mesh``: what it keeps, for how long,
and that no other module keeps per-mesh data of its own."""
import ast
from functools import wraps
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import fvproj
from fvproj import fields, operators
from fvproj.mesh import per_mesh, unit_square_acute
from fvproj.scheme import RunConfig, run

PACKAGE = Path(fvproj.__file__).resolve().parent

# every builder the package decorates with ``per_mesh``
BUILDERS = (fields.p1nc_mass, fields.h_gram, operators.gradient_matrices,
            operators.divergence_weights, operators.pressure_stiffness,
            operators.pressure_solver, operators.h_solver, operators.h_diagonal,
            operators._convection_positions)


def _name(builder):
    return builder.__name__


def test_builders_are_every_decorated_function():
    # listed, not collected in a set: two builders of one name would share
    # a cache key
    decorated = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "per_mesh"
                    for d in node.decorator_list):
                decorated.append(node.name)
    assert sorted(decorated) == sorted(_name(b) for b in BUILDERS)


@pytest.mark.parametrize("builder", BUILDERS, ids=_name)
def test_builds_once_per_mesh(builder):
    raw, calls = builder.__wrapped__, []

    @wraps(raw)
    def counted(mesh):
        calls.append(mesh)
        return raw(mesh)

    cached = per_mesh(counted)
    mesh = unit_square_acute(1)
    first = cached(mesh)
    assert cached(mesh) is first and cached(mesh) is first
    assert calls == [mesh]
    # kept under the builder's name, where the decorated builder finds it
    assert mesh._cache[_name(builder)] is first
    assert builder(mesh) is first


@pytest.mark.parametrize("builder", BUILDERS, ids=_name)
def test_meshes_get_distinct_objects(builder):
    a, b = unit_square_acute(1), unit_square_acute(1)
    assert builder(a) is builder(a)
    assert builder(a) is not builder(b)


def test_failed_build_stores_nothing():
    attempts = []

    @per_mesh
    def flaky(mesh):
        attempts.append(mesh)
        if len(attempts) == 1:
            raise RuntimeError("first build fails")
        return len(attempts)

    mesh = unit_square_acute(0)
    with pytest.raises(RuntimeError, match="first build fails"):
        flaky(mesh)
    assert "flaky" not in mesh._cache
    assert flaky(mesh) == 2 and flaky(mesh) == 2
    assert len(attempts) == 2


def test_cache_keys_after_a_run_are_builder_names():
    mesh = unit_square_acute(1)
    run(RunConfig(mesh_spec="acute:1", n_steps=3), mesh)
    # a run uses every builder but the factored H of the dual norm
    used = [b for b in BUILDERS if b is not operators.h_solver]
    assert set(mesh._cache) == {_name(b) for b in used}
    for builder in used:
        assert mesh._cache[_name(builder)] is builder(mesh)


def test_one_cache_and_no_import_cycle():
    # per-mesh data is kept only through ``mesh.per_mesh``, and ``fields``
    # sits below ``operators`` and ``linalg``: it imports neither, and
    # imports nothing inside a function
    holders = [p.name for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "mesh.py" and "_cache" in p.read_text()]
    assert holders == []
    tree = ast.parse((PACKAGE / "fields.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports)
    modules = set()
    for node in imports:
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif node.level == 0:
            modules.add(node.module)
        elif node.module:
            modules.add(f"fvproj.{node.module}")
        else:
            modules |= {f"fvproj.{a.name}" for a in node.names}
    assert not modules & {"fvproj.operators", "fvproj.linalg"}
    assert "fvproj.mesh" in modules  # the relative imports were read


def stored_bytes(mesh) -> int:
    """Bytes owned by the arrays the mesh keeps, in its attributes and in
    its per-mesh cache: a sparse matrix counts its data, index and pointer
    arrays, an object its attributes, and a buffer counts once however many
    arrays view it.  SuperLU's own storage is not an array and not counted
    (``nnz`` reports it)."""
    seen, total = set(), 0

    def visit(x):
        nonlocal total
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
        elif sp.issparse(x):
            for part in (x.data, x.indices, x.indptr):
                visit(part)
        elif isinstance(x, (tuple, list)):
            for item in x:
                visit(item)
        elif isinstance(x, dict):
            for item in x.values():
                visit(item)
        elif hasattr(x, "__dict__"):
            visit(vars(x))

    visit(vars(mesh))
    return total


# stored_bytes of acute:3 with every builder's result cached.  An array
# stored again (a copy, a wider dtype, a cached value that could be
# derived) raises it; a change that stores less lowers the pin.
STORED_BYTES_ACUTE_3 = 706_264


def test_stored_bytes_budget():
    mesh = unit_square_acute(3)
    for builder in BUILDERS:
        builder(mesh)
    assert stored_bytes(mesh) == STORED_BYTES_ACUTE_3
