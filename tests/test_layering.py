"""Module layering: no module imports a private name from another, the
constant-time locators do not depend on the baseline methods and share one
implementation, only buckets.py knows the bucket-table layout and the frame
of the radial indexes, and only core.py knows which field holds a shape's
planes and the factors of the tolerance rule and a shape's dimension, and
only core.py (query_points) and io.py shape point arrays, and only core.py
(query_point) decides what is one point."""

import ast
from pathlib import Path

from convexloc import baselines, buckets, cubemap, polar

SRC = Path(__file__).resolve().parent.parent / "src" / "convexloc"


def _relative_imports(path):
    """(module, names) of every `from .module import names` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module or "", [a.name for a in node.names]


def test_no_private_names_imported_across_modules():
    bad = [f"{path.name}: from .{mod} import {name}"
           for path in sorted(SRC.glob("*.py"))
           for mod, names in _relative_imports(path)
           for name in names if name.startswith("_")]
    assert not bad, bad


def test_radial_locators_do_not_import_baselines():
    bad = [f"{name}: from .{mod} import {', '.join(names)}"
           for name in ("polar.py", "cubemap.py")
           for mod, names in _relative_imports(SRC / name)
           if mod == "baselines" or (mod == "" and "baselines" in names)]
    assert not bad, bad


def test_one_radial_and_one_y_slab_query_implementation():
    """The polar and cube-map locators are buckets.locate_radial(_batch),
    which ask the index for buckets; the y-slab locators are one pair."""
    assert polar.locate_polar is cubemap.locate_cubemap is buckets.locate_radial
    assert polar.locate_polar_batch is cubemap.locate_cubemap_batch is buckets.locate_radial_batch
    assert baselines.locate_sorted_slabs is baselines.locate_uniform_slabs
    assert baselines.locate_sorted_slabs_batch is baselines.locate_uniform_slabs_batch


def test_only_buckets_reads_the_bucket_table_format():
    """The layout of a bucket table is packed and read in buckets.py alone:
    no other module reads .padded_edges, the derived .offsets and .edges or
    the leaf offsets .leaf_base of a LeafMap, except the cube map's
    padded_faces and faces_flat aliases."""
    aliases = {"padded_faces", "faces_flat"}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "buckets.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for alias in ast.walk(tree)
                   if (isinstance(alias, ast.FunctionDef) and alias.name in aliases)
                   or (isinstance(alias, ast.Assign)
                       and {getattr(t, "id", None) for t in alias.targets} & aliases)
                   for node in ast.walk(alias)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("padded_edges", "offsets", "edges", "leaf_base")
                    and id(node) not in allowed):
                bad.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not bad, bad


def test_only_buckets_reads_the_frame():
    """The frame that decides deep and far points of a radial index, its
    matrix L_floats and its bounds inner2 and outer2, is made and read in
    buckets.py alone, and no other module computes its r^2 (radius2)."""
    fields = {"L_floats", "inner2", "outer2", "radius2"}
    bad = [f"{path.name}:{node.lineno} reads .{node.attr}"
           for path in sorted(SRC.glob("*.py")) if path.name != "buckets.py"
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           if isinstance(node, ast.Attribute) and node.attr in fields]
    assert not bad, bad


def test_only_core_reads_the_plane_fields():
    """Every other module reads a shape's planes through .planes, never the
    .halfplanes or .halfspaces fields behind it."""
    bad = [f"{path.name}:{node.lineno} reads .{node.attr}"
           for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           if isinstance(node, ast.Attribute) and node.attr in ("halfplanes", "halfspaces")]
    assert not bad, bad


def test_only_core_names_the_epsilon_factors():
    """Every epsilon comes from core.Tolerances.from_diag: no other module
    names the factors it multiplies the diagonal by."""
    factors = {"LEN_EPS_FACTOR", "PLANE_EPS_FACTOR", "QUERY_EPS_FACTOR"}
    bad = [f"{path.name}:{node.lineno} names {name}"
           for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           for name in (getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None))
           if name in factors]
    assert not bad, bad


def test_only_core_and_io_call_atleast_2d():
    """Every locator, bucket map and the method comparison take their points
    through core.query_points; no other module makes a second intake with
    np.atleast_2d."""
    bad = [f"{path.name}:{node.lineno} calls np.atleast_2d"
           for path in sorted(SRC.glob("*.py")) if path.name not in ("core.py", "io.py")
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           if isinstance(node, ast.Attribute) and node.attr == "atleast_2d"]
    assert not bad, bad


def test_only_core_catches_type_error():
    """Whether a value is one query point is decided in core.query_point: no
    other module catches a TypeError, by name, as Exception or bare, to
    rebuild an error after a failed conversion."""
    catches = {"TypeError", "Exception", "BaseException"}
    bad = [f"{path.name}:{node.lineno} catches TypeError"
           for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           if isinstance(node, ast.ExceptHandler)
           and (node.type is None or catches & {getattr(n, "id", None)
                                                for n in ast.walk(node.type)})]
    assert not bad, bad


def test_only_core_derives_the_dimension():
    """A shape's dimension is its dim, set in core.py: no other module works
    it out from the shape of its .vertices or .planes array, or maps the
    shape classes to dimensions."""
    classes = {"ConvexPolygon", "ConvexPolyhedron"}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "shape"
                    and getattr(node.value, "attr", None) in ("vertices", "planes")):
                bad.append(f"{path.name}:{node.lineno} reads .{node.value.attr}.shape")
            elif isinstance(node, ast.Dict) and classes & {getattr(k, "id", None)
                                                           for k in node.keys}:
                bad.append(f"{path.name}:{node.lineno} maps shape classes to values")
    assert not bad, bad


def _module_level_imports(path):
    """Every module that the file's top-level import statements name, as
    '.x' for `from .x import` and `from . import x`, else the absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            if node.module:
                yield prefix + node.module
            else:
                yield from (prefix + a.name for a in node.names)


def test_cli_and_bench_import_no_unused_module_at_load():
    """A `convexloc locate` runs one index module and no generator, so cli.py
    and bench.py name the baselines, the cube map and the generators only
    inside the functions that use them."""
    lazy = {"baselines", "cubemap", "generators"}
    bad = [f"{name} imports {mod} at module level"
           for name in ("cli.py", "bench.py")
           for mod in _module_level_imports(SRC / name)
           if mod.lstrip(".").removeprefix("convexloc.") in lazy]
    assert not bad, bad


def test_package_imports_no_submodule_at_load():
    """__init__.py names its exports in one table and imports none of them."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bad = [f"__init__.py:{node.lineno} from .{node.module or ''} import"
           for node in tree.body
           if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module == "convexloc")]
    assert not bad, bad
