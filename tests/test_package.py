"""The package's public names, loaded on first use, and the modules that the
command line loads: `import convexloc.cli` and a `locate` import only what
they run."""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import convexloc
from convexloc import GenSpec2, GenSpec3, gen_convex_polygon, gen_convex_polyhedron

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = {
    "core": ["Aabb", "CapExceeded", "Containment", "ConvexPolygon", "ConvexPolyhedron",
             "DegenerateEdge", "DegenerateFace", "EulerViolation", "EvalCounter",
             "InteriorOnPlane", "NonPlanarFace", "NotConvex", "ReferenceNotInterior",
             "SLAB_CAP", "SingularAffine", "Tolerances", "TooFewVertices",
             "ValidationError", "ZeroDirection", "centroid", "classify_min",
             "min_signed_distance", "plane_eval", "validate_polygon",
             "validate_polyhedron"],
    "baselines": ["SortedSlabIndex2", "UniformSlabIndex2", "WedgeIndex2",
                  "build_sorted_slabs", "build_uniform_slabs", "build_wedge_index",
                  "locate_linear_2d", "locate_linear_2d_batch", "locate_linear_3d",
                  "locate_linear_3d_batch", "locate_sorted_slabs",
                  "locate_sorted_slabs_batch", "locate_uniform_slabs",
                  "locate_uniform_slabs_batch", "locate_wedge", "locate_wedge_batch"],
    "polar": ["PolarIndex2", "boundary_param", "boundary_param_batch",
              "build_polar_index", "locate_polar", "locate_polar_batch"],
    "cubemap": ["CubeMapIndex3", "FACE_NAMES", "build_cubemap_index", "cubemap_cell",
                "locate_cubemap", "locate_cubemap_batch", "project_face_conservative"],
    "generators": ["GenSpec2", "GenSpec3", "MismatchReport", "QuerySpec",
                   "compare_methods", "gen_convex_polygon", "gen_convex_polyhedron",
                   "gen_query_points", "icosphere", "random_affine"],
    "io": ["ParseError", "load_shape", "parse_obj_file", "parse_points_file",
           "parse_polygon_file", "write_obj_file", "write_points_file",
           "write_polygon_file"],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)

# what a polygon `locate` may load; a polyhedron swaps polar for cubemap
LOCATE_2D = {"convexloc", "convexloc.cli", "convexloc.core", "convexloc.io",
             "convexloc.bench", "convexloc.buckets", "convexloc.polar"}


def test_the_exported_names_are_pinned():
    assert len(ALL_NAMES) == 72
    assert sorted(convexloc.__all__) == ALL_NAMES


def test_every_builder_takes_only_the_shape():
    """The shape sizes each index; only the polar builder also takes a slab
    count, and no other size argument comes back unnoticed."""
    empty = inspect.Parameter.empty
    params = {name: [(p.name, p.default)
                     for p in inspect.signature(getattr(convexloc, name)).parameters.values()]
              for name in ALL_NAMES if name.startswith("build_")}
    assert params == {"build_cubemap_index": [("poly", empty)],
                      "build_polar_index": [("poly", empty), ("n_slabs", None)],
                      "build_sorted_slabs": [("poly", empty)],
                      "build_uniform_slabs": [("poly", empty)],
                      "build_wedge_index": [("poly", empty)]}


def test_the_tolerance_model_has_one_band():
    """A shape has one length epsilon and one band, eps_q, which both the
    validators' slack and the queries' OnBoundary band read; a second band
    does not come back unnoticed."""
    assert [f.name for f in dataclasses.fields(convexloc.Tolerances)] == ["eps_len", "eps_q"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                          for n in names])
def test_each_name_is_its_module_attribute(module, name):
    assert getattr(convexloc, name) is getattr(importlib.import_module(f"convexloc.{module}"),
                                               name)


def test_star_import_binds_exactly_the_exported_names():
    """No submodule name: the package's io does not shadow the standard io."""
    namespace = {}
    exec("from convexloc import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ALL_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        convexloc.no_such_name
    assert not hasattr(convexloc, "no_such_name")


def test_dir_lists_every_name():
    assert set(ALL_NAMES) <= set(dir(convexloc))
    assert "__version__" in dir(convexloc)


def test_from_import_of_a_submodule_returns_the_module():
    from convexloc import buckets, io
    assert isinstance(buckets, types.ModuleType) and buckets.__name__ == "convexloc.buckets"
    assert io.__name__ == "convexloc.io"


def _loaded_after(code):
    """The convexloc modules in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'convexloc')))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_generator_or_unused_index():
    loaded = _loaded_after("import convexloc.cli")
    assert not loaded & {"convexloc.baselines", "convexloc.cubemap", "convexloc.generators"}


@pytest.mark.parametrize("dim", [2, 3])
def test_locate_loads_only_the_modules_it_runs(dim, tmp_path):
    if dim == 2:
        shape = tmp_path / "shape.txt"
        convexloc.write_polygon_file(shape, gen_convex_polygon(GenSpec2(n=64, seed=1)))
        points = "0 0\n3 3\n"
    else:
        shape = tmp_path / "shape.obj"
        convexloc.write_obj_file(shape, gen_convex_polyhedron(GenSpec3(level=1, seed=1)))
        points = "0 0 0\n3 3 3\n"
    pts = tmp_path / "pts.txt"
    pts.write_text(points)
    out = tmp_path / "out.txt"
    loaded = _loaded_after(
        "from convexloc import cli\n"
        f"assert cli.main(['locate', '--shape', {str(shape)!r}, '--points', {str(pts)!r}, "
        f"'--out', {str(out)!r}]) == 0")
    assert out.read_text() == "0 Inside\n1 Outside\n"
    if dim == 2:
        assert loaded <= LOCATE_2D, loaded - LOCATE_2D
    else:
        assert "convexloc.cubemap" in loaded and "convexloc.polar" not in loaded
        assert loaded <= LOCATE_2D - {"convexloc.polar"} | {"convexloc.cubemap"}
