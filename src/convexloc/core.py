"""Shared geometry layer: validated convex shapes, half-plane/half-space
construction, signed-distance evaluation and the tolerance model.

Conventions used throughout the library:

- Validated polygons are counter-clockwise; validated polyhedron faces are
  outward counter-clockwise (seen from outside).  Clockwise input is repaired
  by reversal, anything else fails validation.
- Every bounding half-plane (a, b, c) / half-space (a, b, c, d) is stored with
  a unit normal, so evaluating it at a point returns the metric signed
  distance to the boundary line/plane, positive on the interior side.
- Epsilons are scale-invariant: they are fixed factors of the shape's
  axis-aligned bounding-box diagonal, so shapes in metres and millimetres
  behave identically.
- Classification is three-valued.  A query is Inside when the minimal signed
  distance over the deciding half-planes exceeds +eps_q, OnBoundary within
  [-eps_q, +eps_q], Outside below.
- A query with a non-finite coordinate (NaN, +inf or -inf) is Outside in
  every method, scalar and batch; no locator raises for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

LEN_EPS_FACTOR = 1e-12     # degenerate-length threshold, x diagonal
PLANE_EPS_FACTOR = 1e-9    # planarity / convexity slack, x diagonal
QUERY_EPS_FACTOR = 1e-9    # boundary classification band, x diagonal
SLAB_CAP = 1 << 20         # hard upper bound for any subdivision resolution
_CHUNK_CELLS = 1 << 23     # scratch matrix cells of a chunked scan (~64 MB)


class Containment(enum.IntEnum):
    """Three-valued query result; also used as int8 codes in batch output."""

    OUTSIDE = -1
    ON_BOUNDARY = 0
    INSIDE = 1


class ValidationError(ValueError):
    """A shape violated an invariant; the message names the first violation."""


class TooFewVertices(ValidationError):
    pass


class NotConvex(ValidationError):
    pass


class WrongWinding(ValidationError):
    """Orientation errors are repaired by reversal during validation, so this
    is only raised when a caller explicitly disables repair (not exposed at
    the moment, the class exists so callers can catch the full taxonomy)."""


class DegenerateEdge(ValidationError):
    pass


class DegenerateFace(ValidationError):
    pass


class NonPlanarFace(ValidationError):
    pass


class InteriorOnPlane(ValidationError):
    pass


class EulerViolation(ValidationError):
    pass


class ReferenceNotInterior(ValueError):
    """Chosen reference point is not strictly inside the shape."""


class ZeroDirection(ValueError):
    """Query point coincides with the reference point; no direction exists."""


class SingularAffine(ValueError):
    """Affine map must have a strictly positive determinant."""


class CapExceeded(UserWarning):
    """A subdivision resolution, derived or requested, hit its cap and was
    clamped."""


@dataclass
class EvalCounter:
    """Mutable per-query instrumentation of the scalar locators.

    evals       -- boundary half-plane/half-space evaluations (decisions)
    fan_evals   -- wedge method only: the two fan-entry line evaluations
    wedge_evals -- wedge method only: bisection line evaluations
    """

    evals: int = 0
    fan_evals: int = 0
    wedge_evals: int = 0

    def total(self) -> int:
        return self.evals + self.fan_evals + self.wedge_evals


@dataclass(frozen=True)
class Tolerances:
    """Scale-derived epsilons of one shape (see module docstring)."""

    eps_len: float
    eps_plane: float
    eps_q: float

    @classmethod
    def from_diag(cls, diag: float) -> "Tolerances":
        return cls(LEN_EPS_FACTOR * diag, PLANE_EPS_FACTOR * diag,
                   QUERY_EPS_FACTOR * diag)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box in 2 or 3 dimensions (lo/hi corners)."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of_points(cls, points: np.ndarray) -> "Aabb":
        points = np.asarray(points, dtype=float)
        lo = points.min(axis=0).copy()
        hi = points.max(axis=0).copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        return cls(lo, hi)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def inflated(self, factor: float) -> "Aabb":
        """Scale about the center; factor 1.01 grows each extent by 1%."""
        c = self.center
        half = 0.5 * factor * (self.hi - self.lo)
        lo = c - half
        hi = c + half
        lo.setflags(write=False)
        hi.setflags(write=False)
        return Aabb(lo, hi)

    def contains(self, points: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """Boolean mask: inside the box grown by pad on every side."""
        points = np.asarray(points, dtype=float)
        return ((points >= self.lo - pad) & (points <= self.hi + pad)).all(axis=-1)


def plane_eval(planes, points):
    """Signed distance of point(s) from half-plane(s)/half-space(s).

    planes holds unit-normal coefficient rows, (a, b, c) in 2D or
    (a, b, c, d) in 3D; points holds coordinates of matching dimension.
    Returns a float for one plane and one point, a 1-D array when exactly
    one side is batched, and an (n_points, n_planes) array for batch x batch.
    Positive values lie on the interior side.
    """
    planes = np.asarray(planes, dtype=float)
    points = np.asarray(points, dtype=float)
    d = points.shape[-1]
    h2 = np.atleast_2d(planes)
    p2 = np.atleast_2d(points)
    vals = p2 @ h2[:, :d].T + h2[:, d]
    if points.ndim == 1 and planes.ndim == 1:
        return float(vals[0, 0])
    if planes.ndim == 1:
        return vals[:, 0]
    if points.ndim == 1:
        return vals[0]
    return vals


def classify_min(min_vals, eps_q: float):
    """Map minimal signed distances to Containment codes: one Containment
    for a 0-d input, an int8 array otherwise."""
    m = np.asarray(min_vals)
    if m.ndim == 0:
        m = float(m)
        return (Containment.INSIDE if m > eps_q else
                Containment.ON_BOUNDARY if m >= -eps_q else Containment.OUTSIDE)
    return np.where(m > eps_q, np.int8(Containment.INSIDE),
                    np.where(m >= -eps_q, np.int8(Containment.ON_BOUNDARY),
                             np.int8(Containment.OUTSIDE))).astype(np.int8, copy=False)


def default_scale(*point_sets) -> float:
    """Coordinate scale of point sets (at least 1), for default epsilons."""
    return max(1.0, *(float(np.max(np.abs(p))) for p in point_sets if np.size(p)))


def halfplane_from_edge(p, q, eps_len: float | None = None) -> np.ndarray:
    """Inward unit-normal half-plane (a, b, c) of the directed edge p -> q.

    The positive side is the left of the direction of travel, which is the
    interior for a counter-clockwise polygon.  Raises DegenerateEdge when the
    endpoints are closer than eps_len (default: 1e-12 x coordinate scale).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if eps_len is None:
        eps_len = LEN_EPS_FACTOR * default_scale(p, q)
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    length = float(np.hypot(dx, dy))
    if length < eps_len or length == 0.0:
        raise DegenerateEdge(f"edge endpoints coincide: {p} ~ {q}")
    a = -dy / length
    b = dx / length
    c = -(a * p[0] + b * p[1])
    return np.array([a, b, c])


def _edge_halfplanes(vertices: np.ndarray, eps_len: float) -> np.ndarray:
    """Vectorized halfplane_from_edge over all polygon edges (CCW input)."""
    d = np.roll(vertices, -1, axis=0) - vertices
    length = np.hypot(d[:, 0], d[:, 1])
    if (length < eps_len).any() or (length == 0.0).any():
        bad = int(np.argmin(length))
        raise DegenerateEdge(f"edge {bad} has near-zero length {length[bad]:g}")
    a = -d[:, 1] / length
    b = d[:, 0] / length
    c = -(a * vertices[:, 0] + b * vertices[:, 1])
    return np.column_stack([a, b, c])


def _newell_normal(ring: np.ndarray) -> np.ndarray:
    """Area-weighted normal of a closed 3D ring (sum of successive crosses)."""
    nxt = np.roll(ring, -1, axis=0)
    return np.cross(ring, nxt).sum(axis=0)


def _face_plane(ring: np.ndarray, interior, eps_len: float, eps_plane: float,
                eps_q: float) -> tuple[np.ndarray, bool]:
    """Unit-normal face plane oriented toward interior; returns (coeffs, flipped)."""
    ring = np.asarray(ring, dtype=float)
    if ring.ndim != 2 or ring.shape[1] != 3:
        raise DegenerateFace("face ring must be an (k, 3) array")
    if len(ring) < 3:
        raise DegenerateFace(f"face has {len(ring)} vertices, need at least 3")
    n = _newell_normal(ring)
    norm = float(np.linalg.norm(n))
    perimeter = float(np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum())
    if norm <= 2.0 * eps_len * max(perimeter, 1e-300):
        raise DegenerateFace("face vertices are collinear")
    n = n / norm
    d = -float(n @ ring.mean(axis=0))
    dev = np.abs(ring @ n + d)
    if float(dev.max()) > eps_plane:
        raise NonPlanarFace(f"face deviates from its plane by {dev.max():g}")
    side = float(np.asarray(interior, dtype=float) @ n + d)
    if abs(side) < eps_q:
        raise InteriorOnPlane("interior reference point lies on the face plane")
    if side < 0.0:
        return np.array([-n[0], -n[1], -n[2], -d]), True
    return np.array([n[0], n[1], n[2], d]), False


def halfspace_from_face(face_vertices, interior,
                        eps_len: float | None = None,
                        eps_plane: float | None = None,
                        eps_q: float | None = None) -> np.ndarray:
    """Unit-normal half-space (a, b, c, d) of a planar face ring.

    The normal is flipped if needed so the given interior point evaluates
    positive.  Raises DegenerateFace for collinear rings, NonPlanarFace when
    any ring vertex is farther than eps_plane from the fitted plane, and
    InteriorOnPlane when the interior point sits on the plane itself.
    """
    ring = np.asarray(face_vertices, dtype=float)
    scale = default_scale(ring, np.asarray(interior, dtype=float))
    if eps_len is None:
        eps_len = LEN_EPS_FACTOR * scale
    if eps_plane is None:
        eps_plane = PLANE_EPS_FACTOR * scale
    if eps_q is None:
        eps_q = QUERY_EPS_FACTOR * scale
    coeffs, _ = _face_plane(ring, interior, eps_len, eps_plane, eps_q)
    return coeffs


def centroid(shape_or_vertices) -> np.ndarray:
    """Vertex mean; strictly interior for any validated strictly convex shape."""
    v = getattr(shape_or_vertices, "vertices", shape_or_vertices)
    return np.asarray(v, dtype=float).mean(axis=0)


@dataclass(frozen=True)
class ConvexPolygon:
    """Validated strictly convex CCW polygon.

    vertices   -- (N, 2) float64, counter-clockwise, immutable
    halfplanes -- (N, 3) unit-normal inward half-planes, row i for edge
                  (vertices[i], vertices[i+1 mod N])
    """

    vertices: np.ndarray
    halfplanes: np.ndarray
    aabb: Aabb
    tol: Tolerances

    @property
    def n(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ConvexPolyhedron:
    """Validated convex polyhedron with outward-CCW planar faces.

    faces stores vertex-index rings; halfspaces holds one unit-normal inward
    half-space per face, same order.
    """

    vertices: np.ndarray
    faces: tuple
    halfspaces: np.ndarray
    aabb: Aabb
    tol: Tolerances

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def min_signed_distance(shape, points) -> np.ndarray:
    """Minimal signed boundary distance per point over all of a shape's
    half-planes/half-spaces; shape is a validated shape or a plane array.

    Points go through in chunks so the point x plane matrix stays ~64 MB.
    """
    planes = getattr(shape, "halfplanes", getattr(shape, "halfspaces", shape))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    out = np.empty(len(pts))
    step = max(1, _CHUNK_CELLS // max(1, len(planes)))
    normals_t = planes[:, :d].T
    offs = planes[:, d]
    for s in range(0, len(pts), step):
        e = min(s + step, len(pts))
        out[s:e] = (pts[s:e] @ normals_t + offs).min(axis=1)
    return out


def validate_polygon(vertices) -> ConvexPolygon:
    """Validate raw polygon vertices and return an immutable ConvexPolygon.

    Checks: >= 3 finite vertices, strictly convex turns everywhere, no
    degenerate edges.  Clockwise input is repaired by reversal.  Raises a
    ValidationError subclass naming the first violated invariant.
    """
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError("polygon vertices must form an (N, 2) array")
    if not np.isfinite(v).all():
        raise ValidationError("polygon coordinates must be finite")
    if len(v) < 3:
        raise TooFewVertices(f"polygon needs >= 3 vertices, got {len(v)}")
    aabb = Aabb.of_points(v)
    diag = aabb.diagonal
    if diag == 0.0:
        raise DegenerateEdge("all vertices coincide")
    tol = Tolerances.from_diag(diag)
    # Winding repair: negative shoelace area means clockwise input.
    x, y = v[:, 0], v[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area2 < 0.0:
        v = v[::-1].copy()
    # Degenerate edges are reported before convexity so that a repeated
    # vertex names the real problem, not the zero cross product it causes.
    halfplanes = _edge_halfplanes(v, tol.eps_len)
    d = np.roll(v, -1, axis=0) - v
    crosses = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    # The convexity floor scales with the incident edge lengths: the cross
    # product's rounding noise is ~eps_mach * coord_scale * edge_length, so
    # this clears it by orders of magnitude while still admitting the tiny
    # turn angles of finely tessellated shapes (large N).
    elen = np.linalg.norm(d, axis=1)
    area_floor = tol.eps_len * (elen + np.roll(elen, -1))
    if not (crosses > area_floor).all():
        bad = int(np.argmin(crosses))
        raise NotConvex(f"non-convex or collinear turn at vertex {(bad + 1) % len(v)}")
    # Numeric sanity: every vertex must satisfy every inward half-plane.
    # This also rejects locally-convex but multiply-wound vertex orders.
    if min_signed_distance(halfplanes, v).min() < -tol.eps_plane:
        raise NotConvex("vertex escapes an edge half-plane beyond tolerance")
    v.setflags(write=False)
    halfplanes.setflags(write=False)
    return ConvexPolygon(vertices=v, halfplanes=halfplanes, aabb=aabb, tol=tol)


def validate_polyhedron(vertices, faces) -> ConvexPolyhedron:
    """Validate a vertex/face mesh and return an immutable ConvexPolyhedron.

    Checks planarity of every face, convexity (every vertex on the interior
    side of every face plane within eps_plane), closedness via the Euler
    relation V - E + F = 2, and repairs per-face winding against the vertex
    centroid.
    """
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValidationError("polyhedron vertices must form a (V, 3) array")
    if not np.isfinite(v).all():
        raise ValidationError("polyhedron coordinates must be finite")
    if len(v) < 4:
        raise TooFewVertices(f"polyhedron needs >= 4 vertices, got {len(v)}")
    aabb = Aabb.of_points(v)
    diag = aabb.diagonal
    if diag == 0.0:
        raise DegenerateEdge("all vertices coincide")
    tol = Tolerances.from_diag(diag)
    interior = v.mean(axis=0)

    rings = []
    for k, face in enumerate(faces):
        ring = np.asarray(face, dtype=np.int64)
        if ring.ndim != 1 or len(ring) < 3:
            raise TooFewVertices(f"face {k} has fewer than 3 vertices")
        if (ring < 0).any() or (ring >= len(v)).any():
            raise ValidationError(f"face {k} references a vertex out of range")
        if len(np.unique(ring)) != len(ring):
            raise DegenerateFace(f"face {k} repeats a vertex")
        rings.append(ring)
    if len(rings) < 4:
        raise TooFewVertices(f"polyhedron needs >= 4 faces, got {len(rings)}")

    halfspaces = np.empty((len(rings), 4))
    oriented = []
    for k, ring in enumerate(rings):
        try:
            coeffs, flipped = _face_plane(v[ring], interior, tol.eps_len,
                                          tol.eps_plane, tol.eps_q)
        except ValidationError as exc:
            raise type(exc)(f"face {k}: {exc}") from None
        halfspaces[k] = coeffs
        oriented.append(tuple(int(i) for i in (ring[::-1] if flipped else ring)))

    if min_signed_distance(halfspaces, v).min() < -tol.eps_plane:
        raise NotConvex("a vertex lies outside a face plane beyond tolerance")

    edges = set()
    for ring in oriented:
        for i, j in zip(ring, ring[1:] + ring[:1]):
            edges.add((i, j) if i < j else (j, i))
    euler = len(v) - len(edges) + len(oriented)
    if euler != 2:
        raise EulerViolation(f"V - E + F = {euler}, expected 2")

    v.setflags(write=False)
    halfspaces.setflags(write=False)
    return ConvexPolyhedron(vertices=v, faces=tuple(oriented),
                            halfspaces=halfspaces, aabb=aabb, tol=tol)
