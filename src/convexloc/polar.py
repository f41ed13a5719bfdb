"""Constant-time 2D point location via angular slabs.

The polygon boundary is radially monotone around any strictly interior
reference point x_T: every ray from x_T crosses exactly one edge.  Rays are
keyed by where they exit the polygon's bounding box, measured as arc length
u along the box perimeter.  Cutting [0, U) into slabs and listing, per slab,
every edge whose angular span touches it yields an index with O(1)
candidates per query: two multiply-and-floors find the slab, and only its
few listed edges are evaluated.

By default the slabs are sized by local need (buckets.LeafMap.split): one
coarse slab of width U/N per vertex, and a coarse slab that holds k >= 2
vertices cut into equal slabs narrower than the least gap between its own
vertices' boundary parameters, up to LEAVES_PER_POINT * k of them.  So
there are at most (LEAVES_PER_POINT + 1) * N slabs, and only a capped one
lists more than two candidate edges.  Build cost is O(N).  An explicit
n_slabs cuts [0, U) into that many equal slabs.

The batch map picks the box side of each ray by integer masking (_select),
not by nested np.where, which branches per point and mispredicts on random
sides, and it gives the bits of the masked np.where form.  The coarse slab
of u truncates u * (N / U), wrapping the one value that rounds up to N
without a %, which gives the bits of floor-and-modulo.

The index is a buckets.BucketTable, one bucket per slab, around the x_t of
buckets.reference_point.  It maps queries to their slabs (bucket_of, and
bucket_of_floats for one point in floats); locate_polar and
locate_polar_batch are buckets.locate_radial and locate_radial_batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .buckets import (LeafMap, RadialIndex, clamp_budget, locate_radial, locate_radial_batch,
                      reference_point)
from .core import Aabb, ConvexPolygon, SLAB_CAP, ZeroDirection, query_point, query_points


def boundary_param(box: Aabb, x_t, p, eps_len: float = 0.0) -> float:
    """Arc-length position u in [0, U) where ray x_t -> p exits the box.

    u runs counter-clockwise from the corner (x_max, y_min): up the right
    side, along the top, down the left side, along the bottom.  U equals the
    box perimeter 2*(W+H).  Strictly monotone in the ray angle, continuous
    across corners.  Raises ZeroDirection when p is no farther than eps_len
    from x_t or a coordinate of either is not finite.
    """
    return _exit_param((*box.lo.tolist(), *box.hi.tolist()), (float(x_t[0]), float(x_t[1])),
                       query_point(p, 2), eps_len)


def _exit_param(box: tuple, x_t: tuple, q: list, eps_len: float) -> float:
    """boundary_param with the box as the floats (x_min, y_min, x_max, y_max)
    and x_t and the point q as pairs of floats."""
    lox, loy, hix, hiy = box
    xt, yt = x_t
    dx, dy = q[0] - xt, q[1] - yt
    if not eps_len < math.hypot(dx, dy) < math.inf:
        raise ZeroDirection("no finite direction from the reference point to the query")
    w = hix - lox
    h = hiy - loy
    tx = math.inf if dx == 0.0 else ((hix if dx > 0.0 else lox) - xt) / dx
    ty = math.inf if dy == 0.0 else ((hiy if dy > 0.0 else loy) - yt) / dy
    if tx <= ty:
        ey = min(max(yt + tx * dy, loy), hiy)
        u = (ey - loy) if dx > 0.0 else h + w + (hiy - ey)
    else:
        ex = min(max(xt + ty * dx, lox), hix)
        u = h + (hix - ex) if dy > 0.0 else 2.0 * h + w + (ex - lox)
    total = 2.0 * (w + h)
    return u - total if u >= total else u


def boundary_param_batch(box: Aabb, x_t, points) -> np.ndarray:
    """Vectorized boundary_param for x_t strictly inside the box; callers
    must mask zero directions first."""
    pts = query_points(points, 2)
    xt, yt = float(x_t[0]), float(x_t[1])
    dx = pts[:, 0] - xt
    dy = pts[:, 1] - yt
    lox, loy, hix, hiy = (*box.lo.tolist(), *box.hi.tolist())
    w = hix - lox
    h = hiy - loy
    with np.errstate(divide="ignore", invalid="ignore"):
        # tx, ty: where the ray meets the box side it heads for in x and in
        # y.  The other side, behind x_t, gives a negative ray parameter; a
        # ray parallel to the axis (d = +0 or -0) gets +inf from one side.
        tx = np.maximum((hix - xt) / dx, (lox - xt) / dx)
        ty = np.maximum((hiy - yt) / dy, (loy - yt) / dy)
        # maximum then minimum: np.clip's bits.  On numpy 2.4 it beats
        # np.clip only below about 512 points (1.4 against 2.5 us at 256);
        # the two tie at 4096, and at 65536 it is about 8x slower.
        ey = np.minimum(np.maximum(yt + tx * dy, loy), hiy)
        ex = np.minimum(np.maximum(xt + ty * dx, lox), hix)
    u = _select(tx <= ty,
                _select(dx > 0.0, ey - loy, h + w + (hiy - ey)),
                _select(dy > 0.0, h + (hix - ex), 2.0 * h + w + (ex - lox)))
    total = 2.0 * (w + h)
    np.subtract(u, total, out=u, where=u >= total)
    return u


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(mask, a, b) for float64 arrays, bit for bit, as b ^ ((a ^ b)
    * mask) on their int64 views: no branch per element, which np.where
    takes and mispredicts on random sides, and one temporary array."""
    bi = b.view(np.int64)
    r = np.bitwise_xor(a.view(np.int64), bi)
    r *= mask
    r ^= bi
    return r.view(np.float64)


@dataclass(frozen=True)
class PolarIndex2(RadialIndex):
    """Angular slab index of the polygon poly around reference point x_t.

    The slabs divide the perimeter of box, the shape's bounding box, and
    leaves (a buckets.LeafMap) maps a boundary parameter u in
    [0, perimeter) to its slab, a leaf of the map and a bucket of the table,
    which lists the candidate edges.  All arrays are immutable.  box_floats
    is box as (x_min, y_min, x_max, y_max), made once for bucket_of_floats.
    """

    perimeter: float
    leaves: LeafMap
    box_floats: tuple = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "box_floats", (*self.box.lo.tolist(), *self.box.hi.tolist()))

    @property
    def box(self) -> Aabb:
        return self.poly.aabb

    @property
    def n_slabs(self) -> int:
        """The number of slabs, the rows of the table."""
        return self.leaves.n_leaves

    def slab_of(self, u) -> np.ndarray:
        """Slab of each boundary parameter u in [0, perimeter)."""
        return self.leaves.leaf_of(u)

    def bucket_of(self, points) -> np.ndarray:
        """Slabs of the directions x_t -> points[k] for an (n, 2) array;
        callers must mask zero directions."""
        return self.slab_of(boundary_param_batch(self.box, self.x_t, points))

    def bucket_of_floats(self, q: list) -> int:
        """Slab of the direction x_t -> q for q a pair of floats, found as
        bucket_of finds it; raises ZeroDirection as boundary_param does."""
        u = _exit_param(self.box_floats, self.x_t_floats, q, self.poly.tol.eps_len)
        return self.leaves.leaf_of_float(u)


def build_polar_index(poly: ConvexPolygon, n_slabs: int | None = None) -> PolarIndex2:
    """Build the angular slab index in O(N + n_slabs), n_slabs the number of
    slabs built.

    Vertices are mapped to boundary parameters with the same code path used
    by queries, so an edge's slab interval (closed, endpoints included) is
    guaranteed to cover every slab a query ray hitting that edge can map to.
    By default the perimeter is cut into one coarse slab per vertex, and a
    coarse slab holding k >= 2 vertices into min(ceil((U/N) / g) + 1,
    LEAVES_PER_POINT * k) equal slabs, g the least gap between its own
    vertices' parameters (LeafMap.split).  An explicit n_slabs cuts the
    perimeter into that many equal slabs.  Either count goes through
    clamp_budget; a clamped one gives SLAB_CAP equal slabs.  Raises
    ReferenceNotInterior when the vertex mean is not strictly inside.
    """
    x_t = reference_point(poly)
    box = poly.aabb
    w = float(box.hi[0] - box.lo[0])
    h = float(box.hi[1] - box.lo[1])
    perimeter = 2.0 * (w + h)

    u = boundary_param_batch(box, x_t, poly.vertices)
    leaves = (LeafMap.split(u, perimeter, "polar slab count") if n_slabs is None
              else LeafMap.uniform(clamp_budget("polar slab count", n_slabs, SLAB_CAP), perimeter))
    n_slabs = leaves.n_leaves

    # Edge e runs from the slab of vertex e to the slab of vertex e + 1:
    # np.roll(s, -1) - s, wrapped into [0, n_slabs) by a compare, in place,
    # which costs a small polygon less than np.roll does.
    s = leaves.leaf_of(u)
    runs = np.concatenate((s[1:], s[:1]))
    runs -= s
    np.add(runs, n_slabs, out=runs, where=runs < 0)
    runs += 1
    return PolarIndex2.from_runs(s, runs, n_slabs,
                                 poly=poly, x_t=x_t, perimeter=perimeter, leaves=leaves)


locate_polar = locate_radial
locate_polar_batch = locate_radial_batch
