"""Shape and point file formats.

Polygon / point files are plain text: one row of whitespace-separated
coordinates per line, '#' starts a comment, blank lines are skipped.  All
rows must have the same width (2 or 3 columns for points, exactly 2 for
polygons).

Polyhedra use a strict OBJ subset: 'v x y z' lines and 'f i j k ...' lines
with 1-based vertex indices ('i/t/n' references are accepted, only the
vertex part is used).  Other directives (vn, vt, o, g, s, usemtl, mtllib,
comments) are ignored.  Negative, zero or out-of-range indices fail.

Writers emit '%.17g' so every double round-trips exactly.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .core import ConvexPolygon, ConvexPolyhedron, validate_polygon, validate_polyhedron


class ParseError(ValueError):
    """Malformed input file; message carries file name and 1-based line."""


def _float_row(parts, path, lineno):
    try:
        row = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: not a number: {' '.join(parts)}") from None
    if not all(map(math.isfinite, row)):
        raise ParseError(f"{path}:{lineno}: non-finite coordinate")
    return row


def _read_rows(path, width=None):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if width is None:
                width = len(parts)
                if width not in (2, 3):
                    raise ParseError(f"{path}:{lineno}: expected 2 or 3 columns, "
                                     f"got {len(parts)}")
            if len(parts) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns, "
                                 f"got {len(parts)}")
            rows.append(_float_row(parts, path, lineno))
    if not rows:
        raise ParseError(f"{path}: no coordinate rows found")
    return np.asarray(rows, dtype=float)


def parse_points_file(path) -> np.ndarray:
    """(M, 2) or (M, 3) float array from a text file of coordinate rows."""
    return _read_rows(path)


def parse_polygon_file(path) -> ConvexPolygon:
    """Read 'x y' rows in boundary order and validate them as a polygon."""
    return validate_polygon(_read_rows(path, width=2))


def write_polygon_file(path, poly: ConvexPolygon) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# convex polygon, {poly.n} vertices, one 'x y' row per line\n")
        for x, y in poly.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")


def write_points_file(path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in pts:
            fh.write(" ".join(f"{c:.17g}" for c in row) + "\n")


_OBJ_IGNORED = {"vn", "vt", "vp", "o", "g", "s", "usemtl", "mtllib", "l", "p"}


def parse_obj_file(path) -> ConvexPolyhedron:
    """Read the OBJ subset described in the module docstring and validate."""
    verts = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) != 4:
                    raise ParseError(f"{path}:{lineno}: 'v' needs exactly 3 "
                                     f"coordinates, got {len(parts) - 1}")
                verts.append(_float_row(parts[1:], path, lineno))
            elif tag == "f":
                if len(parts) < 4:
                    raise ParseError(f"{path}:{lineno}: 'f' needs at least 3 indices")
                ring = []
                for p in parts[1:]:
                    head = p.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: bad vertex index "
                                         f"{p!r}") from None
                    if i <= 0:
                        raise ParseError(f"{path}:{lineno}: vertex indices are "
                                         f"1-based and positive, got {i}")
                    ring.append(i - 1)
                faces.append(tuple(ring))
            elif tag in _OBJ_IGNORED:
                continue
            else:
                raise ParseError(f"{path}:{lineno}: unsupported directive {tag!r}")
    if not verts:
        raise ParseError(f"{path}: no vertices found")
    n = len(verts)
    for ring in faces:
        for i in ring:
            if i >= n:
                raise ParseError(f"{path}: face references vertex {i + 1}, "
                                 f"file has {n}")
    return validate_polyhedron(np.asarray(verts, dtype=float), faces)


def write_obj_file(path, poly: ConvexPolyhedron) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# convex polyhedron, {len(poly.vertices)} vertices, "
                 f"{poly.n_faces} faces\n")
        for x, y, z in poly.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for ring in poly.faces:
            fh.write("f " + " ".join(str(i + 1) for i in ring) + "\n")


def load_shape(path):
    """Polygon or polyhedron by file extension: .obj is 3D, anything else 2D."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".obj":
        return parse_obj_file(path)
    return parse_polygon_file(path)
