"""convexloc: constant-time point-in-convex-polygon/polyhedron queries.

Validated convex shapes are preprocessed into angular subdivision indexes
(2D boundary slabs around an interior reference point, 3D cube-map cells)
that answer containment queries with O(1) half-plane evaluations.  Classic
linear, wedge-bisection and y-slab methods are included as references, plus
deterministic instance generators and a benchmark CLI.
"""

from .core import (Aabb, CapExceeded, Containment, ConvexPolygon,
                   ConvexPolyhedron, DegenerateEdge, DegenerateFace,
                   EulerViolation, EvalCounter, InteriorOnPlane, NonPlanarFace,
                   NotConvex, ReferenceNotInterior, SingularAffine, SLAB_CAP,
                   Tolerances, TooFewVertices, ValidationError, ZeroDirection,
                   centroid, classify_min, min_signed_distance, plane_eval,
                   validate_polygon, validate_polyhedron)
from .baselines import (SortedSlabIndex2, UniformSlabIndex2, WedgeIndex2,
                        build_sorted_slabs, build_uniform_slabs,
                        build_wedge_index, locate_linear_2d,
                        locate_linear_2d_batch, locate_linear_3d,
                        locate_linear_3d_batch, locate_sorted_slabs,
                        locate_sorted_slabs_batch, locate_uniform_slabs,
                        locate_uniform_slabs_batch, locate_wedge,
                        locate_wedge_batch)
from .polar import (PolarIndex2, boundary_param, boundary_param_batch,
                    build_polar_index, locate_polar, locate_polar_batch)
from .cubemap import (CubeMapIndex3, FACE_NAMES, build_cubemap_index,
                      cubemap_cell, locate_cubemap, locate_cubemap_batch,
                      project_face_conservative)
from .generators import (GenSpec2, GenSpec3, MismatchReport, QuerySpec,
                         compare_methods, gen_convex_polygon,
                         gen_convex_polyhedron, gen_query_points, icosphere,
                         random_affine)
from .io import (ParseError, load_shape, parse_obj_file, parse_points_file,
                 parse_polygon_file, write_obj_file, write_points_file,
                 write_polygon_file)

__version__ = "0.1.0"
