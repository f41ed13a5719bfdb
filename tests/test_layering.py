"""Module layering: no module imports a private name from another, the
constant-time locators do not depend on the baseline methods and share one
implementation, only buckets.py knows the bucket-table layout, and only
core.py knows which field holds a shape's planes and the factors of the
tolerance rule, and only core.py (query_points) and io.py shape point
arrays, and only core.py (query_point) decides what is one point."""

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
    no other module reads .padded_edges or the derived .offsets and .edges,
    except the cube map's padded_faces and faces_flat aliases."""
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
                    and node.attr in ("padded_edges", "offsets", "edges")
                    and id(node) not in allowed):
                bad.append(f"{path.name}:{node.lineno} reads .{node.attr}")
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
