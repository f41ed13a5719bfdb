"""convexloc: constant-time point-in-convex-polygon/polyhedron queries.

Validated convex shapes are preprocessed into angular subdivision indexes
(2D boundary slabs around an interior reference point, 3D cube-map cells)
that answer containment queries with O(1) half-plane evaluations.  Classic
linear, wedge-bisection and y-slab methods are included as references, plus
deterministic instance generators and a benchmark CLI.

The public names are loaded on first use (PEP 562).  _EXPORTS is the one
table of them: each submodule with the names it exports.  `__all__` is
derived from it, and the module `__getattr__` imports a name's submodule
when the name is first read and keeps the value in the package's globals.
So `import convexloc` imports no submodule, and a program that reads only
`build_polar_index` loads `core`, `buckets` and `polar`, never the
baselines, the cube map or the generators.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Aabb", "CapExceeded", "Containment", "ConvexPolygon", "ConvexPolyhedron",
             "DegenerateEdge", "DegenerateFace", "EulerViolation", "EvalCounter",
             "InteriorOnPlane", "NonPlanarFace", "NotConvex", "ReferenceNotInterior",
             "SingularAffine", "SLAB_CAP", "Tolerances", "TooFewVertices",
             "ValidationError", "ZeroDirection", "centroid", "classify_min",
             "min_signed_distance", "plane_eval", "validate_polygon",
             "validate_polyhedron"),
    "baselines": ("SortedSlabIndex2", "UniformSlabIndex2", "WedgeIndex2",
                  "build_sorted_slabs", "build_uniform_slabs", "build_wedge_index",
                  "locate_linear_2d", "locate_linear_2d_batch", "locate_linear_3d",
                  "locate_linear_3d_batch", "locate_sorted_slabs",
                  "locate_sorted_slabs_batch", "locate_uniform_slabs",
                  "locate_uniform_slabs_batch", "locate_wedge", "locate_wedge_batch"),
    "polar": ("PolarIndex2", "boundary_param", "boundary_param_batch",
              "build_polar_index", "locate_polar", "locate_polar_batch"),
    "cubemap": ("CubeMapIndex3", "FACE_NAMES", "build_cubemap_index", "cubemap_cell",
                "locate_cubemap", "locate_cubemap_batch", "project_face_conservative"),
    "generators": ("GenSpec2", "GenSpec3", "MismatchReport", "QuerySpec",
                   "compare_methods", "gen_convex_polygon", "gen_convex_polyhedron",
                   "gen_query_points", "icosphere", "random_affine"),
    "io": ("ParseError", "load_shape", "parse_obj_file", "parse_points_file",
           "parse_polygon_file", "write_obj_file", "write_points_file",
           "write_polygon_file"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
