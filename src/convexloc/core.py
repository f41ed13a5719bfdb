"""Shared geometry layer: validated convex shapes, half-plane/half-space
construction, signed-distance evaluation and the tolerance model.

Conventions used throughout the library:

- Validated polygons are counter-clockwise; validated polyhedron faces are
  outward counter-clockwise (seen from outside).  Clockwise input is repaired
  by reversal, anything else fails validation.
- Every bounding half-plane (a, b, c) / half-space (a, b, c, d) is stored with
  a unit normal, so evaluating it at a point returns the metric signed
  distance to the boundary line/plane, positive on the interior side.
- Epsilons have one rule, Tolerances.from_diag: each is a fixed factor of
  an axis-aligned bounding-box diagonal, the shape's or, for a helper
  called without one, that of its own inputs.  Answers therefore do not
  change when a shape is moved, or rescaled from metres to millimetres.
  boundary_param and cubemap_cell, whose one epsilon is the zero-direction
  length, default it to 0.
- Query points have two intakes, each raising a ValueError that names the
  dimension d and the shape given: query_points for a batch (one point of
  d coordinates or an (M, d) array), query_point for exactly one point.
- Classification is three-valued.  A query is Inside when the minimal signed
  distance over the deciding half-planes exceeds +eps_q, OnBoundary within
  [-eps_q, +eps_q], Outside below.
- A query with a non-finite coordinate (NaN, +inf or -inf) is Outside in
  every method, scalar and batch; no locator raises or warns for it.
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
_COORD_MAX = 1e64          # validation squares Newell normals: coord**4 stays finite


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
    """Query point lies within eps_len of the reference point, or one of
    the two has a non-finite coordinate; no finite direction exists."""


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
        lo, hi = self.lo - pad, self.hi + pad
        # Column by column: numpy reduces many rows of 2 or 3 slowly.
        inside = (points[..., 0] >= lo[0]) & (points[..., 0] <= hi[0])
        for k in range(1, points.shape[-1]):
            inside &= (points[..., k] >= lo[k]) & (points[..., k] <= hi[k])
        return inside


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
    return points @ planes[..., :d].T + planes[..., d]


def query_points(points, dim: int) -> np.ndarray:
    """Query points as an (M, dim) float array, one point of dim coordinates
    as one row.  Raises ValueError naming dim and the shape for any other."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 2 or pts.shape[-1:] != (dim,):
        raise ValueError(f"query points must be {dim}D, got shape {pts.shape}")
    return pts.reshape(-1, dim)


def query_point(p, dim: int) -> list:
    """One query point as a list of dim Python floats.  Raises query_points'
    ValueError for a point of another dimension, and a ValueError naming dim
    and the shape given for rows, however many, of dim coordinates."""
    try:
        q = [float(c) for c in (p.tolist() if isinstance(p, np.ndarray) else p)]
    except TypeError:
        q = None
    if q is None or len(q) != dim:
        query_points(p, dim)        # raises for a point of another dimension
        raise ValueError(f"expected one {dim}D query point, got shape {np.shape(p)}")
    return q


def classify_min(min_vals, eps_q: float):
    """Map minimal signed distances to Containment codes: one Containment
    for a float or a 0-d input, an int8 array otherwise.  NaN is Outside."""
    if not isinstance(min_vals, float):
        m = np.asarray(min_vals)
        if m.ndim:
            # Outside -1, OnBoundary 0, Inside 1 are the two masks' sum
            # minus 1: no data-dependent branch per element, which a nested
            # np.where takes and mispredicts on unordered distances.
            codes = (m > eps_q).view(np.int8)
            codes += (m >= -eps_q).view(np.int8)
            codes -= 1
            return codes
        min_vals = float(m)
    return (Containment.INSIDE if min_vals > eps_q else
            Containment.ON_BOUNDARY if min_vals >= -eps_q else Containment.OUTSIDE)


def line_halfplanes(starts: np.ndarray, ends: np.ndarray, eps_len: float) -> np.ndarray:
    """Unit-normal half-planes (a, b, c) of the lines starts[i] -> ends[i],
    positive on the left; a one-row array broadcasts.  Raises DegenerateEdge
    when a line is shorter than eps_len or of zero length."""
    d = ends - starts
    length = np.hypot(d[:, 0], d[:, 1])
    if (length < eps_len).any() or (length == 0.0).any():
        bad = int(np.argmin(length))
        raise DegenerateEdge(f"edge {bad} has near-zero length {length[bad]:g}")
    a = -d[:, 1] / length
    b = d[:, 0] / length
    c = -(a * starts[:, 0] + b * starts[:, 1])
    return np.column_stack([a, b, c])


def _face_planes(rings: np.ndarray, interior: np.ndarray, eps_len: float,
                 eps_plane: float, eps_q: float):
    """Unit-normal planes of F face rings of k vertices each, an (F, k, 3)
    array, oriented toward interior: (planes, flipped, fault, dev).

    fault[f] is 0 for a good face, else the first check face f fails: 1
    collinear, 2 non-planar, 3 interior on the plane; dev[f] is its largest
    distance from its plane.  The Newell normal sums the cross products of
    the ring centred on its vertex mean left to right, and norm and offset
    are stacked dot products, so every row has the bits the same
    computation on one ring gives.
    """
    mean = rings.mean(axis=1)
    # Centred rings keep the cross products and deviations free of the
    # rounding that absolute coordinates far from the origin would add.
    ring = rings - mean[:, None, :]
    nxt = np.roll(ring, -1, axis=1)
    cross = np.cross(ring, nxt)
    n = cross[:, 0].copy()
    for j in range(1, ring.shape[1]):
        n += cross[:, j]
    norm = np.sqrt((n[:, None, :] @ n[:, :, None])[:, 0, 0])
    perimeter = np.linalg.norm(nxt - ring, axis=2).sum(axis=1)
    collinear = norm <= 2.0 * eps_len * np.maximum(perimeter, 1e-300)
    n /= np.where(collinear, 1.0, norm)[:, None]
    d = -(n[:, None, :] @ mean[:, :, None])[:, 0, 0]
    dev = np.abs((ring @ n[:, :, None])[:, :, 0]).max(axis=1)
    side = (n[:, None, :] @ interior[:, None])[:, 0, 0] + d
    fault = np.select([collinear, dev > eps_plane, np.abs(side) < eps_q],
                      [1, 2, 3], 0)
    flipped = side < 0.0
    planes = np.column_stack([n, d])
    planes[flipped] = -planes[flipped]
    return planes, flipped, fault, dev


def ring_groups(rings) -> list:
    """Face rings grouped by length, as (ids, idx) pairs in ascending length:
    idx is the (len(ids), k) table of vertex indices of the k-rings ids.

    Each table is exactly as wide as its rings, so the groups together hold
    one entry per ring vertex however much the ring lengths differ.
    """
    if not len(rings):
        return []
    lens = np.fromiter(map(len, rings), dtype=np.int64, count=len(rings))
    flat = np.concatenate(rings).astype(np.int64, copy=False)
    starts = np.cumsum(lens) - lens
    groups = []
    for k in np.unique(lens):
        ids = np.flatnonzero(lens == k)
        groups.append((ids, flat[starts[ids, None] + np.arange(k)]))
    return groups


def centroid(shape_or_vertices) -> np.ndarray:
    """Vertex mean; strictly interior for any validated strictly convex shape."""
    v = getattr(shape_or_vertices, "vertices", shape_or_vertices)
    return np.asarray(v, dtype=float).mean(axis=0)


@dataclass(frozen=True)
class ConvexPolygon:
    """Validated strictly convex CCW polygon.

    vertices   -- (N, 2) float64, counter-clockwise, immutable
    halfplanes -- (N, 3) unit-normal inward half-planes, row i for edge
                  (vertices[i], vertices[i+1 mod N]); stored column-major,
                  so each coefficient column is one contiguous array that
                  the bucket kernel gathers from
    """

    vertices: np.ndarray
    halfplanes: np.ndarray
    aabb: Aabb
    tol: Tolerances

    @property
    def n(self) -> int:
        return len(self.vertices)

    planes = property(lambda self: self.halfplanes,
                      doc="The half-planes, as every query reads them.")


@dataclass(frozen=True)
class ConvexPolyhedron:
    """Validated convex polyhedron with outward-CCW planar faces.

    faces stores vertex-index rings; halfspaces holds one unit-normal inward
    half-space (a, b, c, d) per face, same order, stored column-major like
    ConvexPolygon.halfplanes.
    """

    vertices: np.ndarray
    faces: tuple
    halfspaces: np.ndarray
    aabb: Aabb
    tol: Tolerances

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    planes = property(lambda self: self.halfspaces,
                      doc="The half-spaces, as every query reads them.")


def min_signed_distance(shape, points) -> np.ndarray:
    """Minimal signed boundary distance per point over all of a validated
    shape's planes.

    Each chunk of points, as homogeneous columns [x, y(, z), 1], meets all
    planes in one matrix product; chunks keep it near 64 MB.  The minimum
    runs along the product's longer axis, as numpy reduces many short rows
    slowly: with more points than planes (a 64-gon or a 20-face polyhedron
    under 1e5 points) the columnwise minimum of planes @ hom is 2-4x
    faster; with thousands of planes (the 65536-gon's 128-point chunks,
    the polar-batch probe's 16384-gon) the rowwise minimum of
    hom.T @ planes.T is up to 1.5x faster.  No benchmark workload times
    the first side; only the linear-3D gate of test_constant_query_time
    needs it: with the rowwise layout alone its ratio read x49-67 against
    a floor of 50, with both x126-205 (2-vCPU host).
    """
    planes = shape.planes
    d = shape.vertices.shape[1]
    pts = query_points(points, d)
    out = np.empty(len(pts))
    step = max(1, _CHUNK_CELLS // max(1, len(planes)))
    hom = np.ones((d + 1, min(step, len(pts))))
    for s in range(0, len(pts), step):
        e = min(s + step, len(pts))
        hom[:d, :e - s] = pts[s:e].T
        if e - s > len(planes):
            out[s:e] = (planes @ hom[:, :e - s]).min(axis=0)
        else:
            out[s:e] = (hom[:, :e - s].T @ planes.T).min(axis=1)
    return out


def _vertex_array(vertices, dim: int, name: str, form: str):
    """(float vertices, AABB, tolerances) after the checks both validators
    share, in order: form, finiteness, magnitude, dim + 1 vertices, nonzero
    diagonal."""
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValidationError(f"{name} vertices must form {form} array")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} coordinates must be finite")
    if np.abs(v).max(initial=0.0) > _COORD_MAX:
        raise ValidationError(f"{name} coordinates must be at most {_COORD_MAX:g} in magnitude")
    if len(v) <= dim:
        raise TooFewVertices(f"{name} needs >= {dim + 1} vertices, got {len(v)}")
    aabb = Aabb.of_points(v)
    diag = aabb.diagonal
    if diag == 0.0:
        raise DegenerateEdge("all vertices coincide")
    return v, aabb, Tolerances.from_diag(diag)


def validate_polygon(vertices) -> ConvexPolygon:
    """Validate raw polygon vertices and return an immutable ConvexPolygon.

    Checks: >= 3 finite vertices, strictly convex turns everywhere, a total
    turning of one full circle, no degenerate edges.  All checks are O(N).
    Clockwise input is repaired by reversal.  Raises a
    ValidationError subclass naming the first violated invariant.
    """
    v, aabb, tol = _vertex_array(vertices, 2, "polygon", "an (N, 2)")
    # Winding repair: negative shoelace area means clockwise input.
    x, y = v[:, 0], v[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area2 < 0.0:
        v = v[::-1].copy()
    # Degenerate edges are reported before convexity so that a repeated
    # vertex names the real problem, not the zero cross product it causes.
    nxt = np.roll(v, -1, axis=0)
    halfplanes = line_halfplanes(v, nxt, tol.eps_len)
    d = nxt - v
    dn = np.roll(d, -1, axis=0)
    crosses = d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0]
    # The convexity floor scales with the incident edge lengths: the cross
    # product's rounding noise is ~eps_mach * coord_scale * edge_length, so
    # this clears it by orders of magnitude while still admitting the tiny
    # turn angles of finely tessellated shapes (large N).
    elen = np.linalg.norm(d, axis=1)
    area_floor = tol.eps_len * (elen + np.roll(elen, -1))
    if not (crosses > area_floor).all():
        bad = int(np.argmin(crosses))
        raise NotConvex(f"non-convex or collinear turn at vertex {(bad + 1) % len(v)}")
    # Every turn is strictly left, so the exterior angles sum to 2*pi*k for a
    # vertex order that winds k times; only k == 1 is a convex polygon.
    turning = float(np.arctan2(crosses, d[:, 0] * dn[:, 0] + d[:, 1] * dn[:, 1]).sum())
    if turning > 3.0 * np.pi:
        raise NotConvex(f"vertex order winds {round(turning / (2.0 * np.pi))} "
                        "times around the interior")
    # Numeric sanity: on a convex polygon the distance to an edge line grows
    # away from the edge in both directions, so rounding can only push the
    # edge's own endpoints or the nearest vertex on either side out of its
    # half-plane.  Row i of ring[k:k + N] is vertex i - 1 + k, so edge i is
    # checked at vertices i-1, i, i+1 and i+2.
    ring = np.concatenate([v[-1:], v, v[:2]])
    a, b, c = halfplanes.T
    for k in range(4):
        w = ring[k:k + len(v)]
        if (a * w[:, 0] + b * w[:, 1] + c).min() < -tol.eps_plane:
            raise NotConvex("vertex escapes an edge half-plane beyond tolerance")
    v.setflags(write=False)
    halfplanes = np.asfortranarray(halfplanes)
    halfplanes.setflags(write=False)
    return ConvexPolygon(vertices=v, halfplanes=halfplanes, aabb=aabb, tol=tol)


def validate_polyhedron(vertices, faces) -> ConvexPolyhedron:
    """Validate a vertex/face mesh and return an immutable ConvexPolyhedron.

    Checks planarity of every face, convexity (every vertex on the interior
    side of every face plane within eps_plane), closedness via the Euler
    relation V - E + F = 2, and repairs per-face winding against the vertex
    centroid.
    """
    v, aabb, tol = _vertex_array(vertices, 3, "polyhedron", "a (V, 3)")
    interior = v.mean(axis=0)

    # Faces are checked in numpy passes, one per ring length; each check
    # reports the lowest face that fails it, as a face-by-face loop would.
    rings = [np.asarray(face) for face in faces]
    n_ok = next((k for k, ring in enumerate(rings) if ring.ndim != 1 or len(ring) < 3),
                len(rings))
    k = next((k for k, ring in enumerate(rings[:n_ok]) if ring.dtype.kind not in "iu"), None)
    if k is not None:
        raise ValidationError(f"face {k} has non-integer vertex indices")
    groups = ring_groups(rings[:n_ok])
    bad = np.zeros(n_ok, dtype=np.int64)     # 1: out of range, 2: repeats
    for ids, idx in groups:
        ordered = np.sort(idx, axis=1)
        bad[ids] = np.where(((idx < 0) | (idx >= len(v))).any(axis=1), 1,
                            (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) * 2)
    if bad.any():
        k = int(np.argmax(bad > 0))
        if bad[k] == 1:
            raise ValidationError(f"face {k} references a vertex out of range")
        raise DegenerateFace(f"face {k} repeats a vertex")
    if n_ok < len(rings):
        raise TooFewVertices(f"face {n_ok} has fewer than 3 vertices")
    if len(rings) < 4:
        raise TooFewVertices(f"polyhedron needs >= 4 faces, got {len(rings)}")

    halfspaces = np.empty((n_ok, 4), order="F")
    fault = np.empty(n_ok, dtype=np.int64)
    dev = np.empty(n_ok)
    oriented = [None] * n_ok
    for ids, idx in groups:
        halfspaces[ids], flipped, fault[ids], dev[ids] = _face_planes(
            v[idx], interior, tol.eps_len, tol.eps_plane, tol.eps_q)
        rows = np.where(flipped[:, None], idx[:, ::-1], idx).tolist()
        for k, ring in zip(ids.tolist(), rows):
            oriented[k] = tuple(ring)
    if fault.any():
        k = int(np.argmax(fault > 0))
        if fault[k] == 1:
            raise DegenerateFace(f"face {k}: face vertices are collinear")
        if fault[k] == 2:
            raise NonPlanarFace(f"face {k}: face deviates from its plane by {dev[k]:g}")
        raise InteriorOnPlane(f"face {k}: interior reference point lies on the face plane")

    poly = ConvexPolyhedron(vertices=v, faces=tuple(oriented), halfspaces=halfspaces,
                            aabb=aabb, tol=tol)
    if min_signed_distance(poly, v).min() < -tol.eps_plane:
        raise NotConvex("a vertex lies outside a face plane beyond tolerance")

    edges = []
    for _, idx in groups:
        nxt = np.roll(idx, -1, axis=1)
        edges.append(np.minimum(idx, nxt) * len(v) + np.maximum(idx, nxt))
    euler = len(v) - len(np.unique(np.concatenate(edges, axis=None))) + n_ok
    if euler != 2:
        raise EulerViolation(f"V - E + F = {euler}, expected 2")

    v.setflags(write=False)
    halfspaces.setflags(write=False)
    return poly
