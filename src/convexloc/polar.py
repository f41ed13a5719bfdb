"""Constant-time 2D point location via angular slabs.

The polygon boundary is radially monotone around any strictly interior
reference point x_T: every ray from x_T crosses exactly one edge.  Rays are
keyed by where they exit an inflated bounding box, measured as arc length u
along the box perimeter.  Dividing [0, U) into n_slabs equal intervals and
listing, per interval, every edge whose angular span touches it yields an
index with O(1) expected candidates per query: one multiply-and-floor finds
the slab, and only its few listed edges are evaluated.

Build cost is O(N + n_slabs).  The default slab count makes every slab
narrower than the smallest gap between the vertices' boundary parameters,
so no slab holds two vertices and none lists more than two candidate edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buckets import (clamp_budget, csr_sort, locate_radial_batch, padded_table,
                      run_expand)
from .core import (Aabb, Containment, ConvexPolygon, EvalCounter,
                   ReferenceNotInterior, SLAB_CAP, ZeroDirection,
                   centroid, classify_min, plane_eval)

BOX_INFLATION = 1.01       # keeps box corners off polygon vertices


def boundary_param(box: Aabb, x_t, p, eps_len: float | None = None) -> float:
    """Arc-length position u in [0, U) where ray x_t -> p exits the box.

    u runs counter-clockwise from the corner (x_max, y_min): up the right
    side, along the top, down the left side, along the bottom.  U equals the
    box perimeter 2*(W+H).  Strictly monotone in the ray angle, continuous
    across corners.  Raises ZeroDirection when p ~ x_t.
    """
    if eps_len is None:
        eps_len = 1e-12 * box.diagonal
    x_t = np.asarray(x_t, dtype=float)
    p = np.asarray(p, dtype=float)
    dx = float(p[0] - x_t[0])
    dy = float(p[1] - x_t[1])
    if math.hypot(dx, dy) < eps_len:
        raise ZeroDirection("query coincides with the reference point")
    lox, loy = float(box.lo[0]), float(box.lo[1])
    hix, hiy = float(box.hi[0]), float(box.hi[1])
    w = hix - lox
    h = hiy - loy
    tx = math.inf if dx == 0.0 else ((hix if dx > 0.0 else lox) - float(x_t[0])) / dx
    ty = math.inf if dy == 0.0 else ((hiy if dy > 0.0 else loy) - float(x_t[1])) / dy
    if tx <= ty:
        ey = min(max(float(x_t[1]) + tx * dy, loy), hiy)
        u = (ey - loy) if dx > 0.0 else h + w + (hiy - ey)
    else:
        ex = min(max(float(x_t[0]) + ty * dx, lox), hix)
        u = h + (hix - ex) if dy > 0.0 else 2.0 * h + w + (ex - lox)
    total = 2.0 * (w + h)
    return u - total if u >= total else u


def boundary_param_batch(box: Aabb, x_t, points) -> np.ndarray:
    """Vectorized boundary_param; callers must mask zero directions first."""
    x_t = np.asarray(x_t, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, 0] - x_t[0]
    dy = pts[:, 1] - x_t[1]
    lox, loy = float(box.lo[0]), float(box.lo[1])
    hix, hiy = float(box.hi[0]), float(box.hi[1])
    w = hix - lox
    h = hiy - loy
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(dx > 0.0, (hix - x_t[0]) / dx,
                      np.where(dx < 0.0, (lox - x_t[0]) / dx, np.inf))
        ty = np.where(dy > 0.0, (hiy - x_t[1]) / dy,
                      np.where(dy < 0.0, (loy - x_t[1]) / dy, np.inf))
        vertical = tx <= ty
        ey = np.clip(x_t[1] + tx * dy, loy, hiy)
        ex = np.clip(x_t[0] + ty * dx, lox, hix)
    u = np.where(vertical,
                 np.where(dx > 0.0, ey - loy, h + w + (hiy - ey)),
                 np.where(dy > 0.0, h + (hix - ex), 2.0 * h + w + (ex - lox)))
    total = 2.0 * (w + h)
    return np.where(u >= total, u - total, u)


@dataclass(frozen=True)
class PolarIndex2:
    """Angular slab index around reference point x_t.

    Slab i covers boundary-parameter interval [i*U/n, (i+1)*U/n); edges is a
    CSR list of candidate edge indices per slab.  All arrays are immutable.
    """

    poly: ConvexPolygon
    x_t: np.ndarray
    box: Aabb
    perimeter: float
    n_slabs: int
    offsets: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    max_occupancy: int
    mean_occupancy: float

    def slab_of(self, u) -> np.ndarray:
        return _slab_of(u, self.n_slabs, self.perimeter)

    def slab_edges(self, i: int) -> np.ndarray:
        return self.edges[self.offsets[i]:self.offsets[i + 1]]

    @cached_property
    def padded_edges(self) -> np.ndarray:
        return padded_table(self.offsets, self.edges, self.counts)


def _slab_of(u, n_slabs: int, perimeter: float) -> np.ndarray:
    i = np.floor(np.asarray(u, dtype=float) * (n_slabs / perimeter))
    return i.astype(np.int64) % n_slabs


def build_polar_index(poly: ConvexPolygon, n_slabs: int | None = None,
                      x_t=None) -> PolarIndex2:
    """Build the angular slab index in O(N + n_slabs).

    Vertices are mapped to boundary parameters with the same code path used
    by queries, so an edge's slab interval (closed, endpoints included) is
    guaranteed to cover every slab a query ray hitting that edge can map to.
    The default n_slabs is ceil(U / g) + 1 for the smallest cyclic gap g
    between vertex parameters; g == 0 asks for more than SLAB_CAP.
    Raises ReferenceNotInterior when x_t is not strictly inside.
    """
    if x_t is None:
        x_t = centroid(poly)
    x_t = np.array(x_t, dtype=float)
    if float(plane_eval(poly.halfplanes, x_t).min()) <= poly.tol.eps_q:
        raise ReferenceNotInterior("reference point must be strictly inside")

    box = poly.aabb.inflated(BOX_INFLATION)
    w = float(box.hi[0] - box.lo[0])
    h = float(box.hi[1] - box.lo[1])
    perimeter = 2.0 * (w + h)

    u = boundary_param_batch(box, x_t, poly.vertices)
    if n_slabs is None:
        us = np.sort(u)
        gap = float(np.diff(us, append=us[0] + perimeter).min())
        n_slabs = math.ceil(perimeter / gap) + 1 if gap > 0.0 else SLAB_CAP + 1
    n_slabs = clamp_budget("polar slab count", n_slabs, SLAB_CAP)

    s = _slab_of(u, n_slabs, perimeter)
    runs = (np.roll(s, -1) - s) % n_slabs + 1
    slab_ids = run_expand(s, runs) % n_slabs
    edge_ids = np.repeat(np.arange(poly.n, dtype=np.int32), runs)
    offsets, edges, counts = csr_sort(slab_ids, edge_ids, n_slabs)
    if int(counts.min()) < 1:
        raise AssertionError("polar slab construction produced an empty slab")

    for arr in (offsets, edges, counts, x_t):
        arr.setflags(write=False)
    return PolarIndex2(poly=poly, x_t=x_t, box=box, perimeter=perimeter,
                       n_slabs=n_slabs, offsets=offsets, edges=edges,
                       counts=counts, max_occupancy=int(counts.max()),
                       mean_occupancy=float(counts.mean()))


def locate_polar(idx: PolarIndex2, p, counter: EvalCounter | None = None) -> Containment:
    """O(1) query: slab lookup by one floor, then the slab's candidate edges.

    Points outside the polygon's bounding box (beyond the eps_q band), and
    points with a non-finite coordinate, are rejected without any edge
    evaluation; a point within eps_len of x_t is Inside by construction.
    """
    poly = idx.poly
    eps_q = poly.tol.eps_q
    x, y = float(p[0]), float(p[1])
    lo, hi = poly.aabb.lo, poly.aabb.hi
    if not (lo[0] - eps_q <= x <= hi[0] + eps_q
            and lo[1] - eps_q <= y <= hi[1] + eps_q):
        return Containment.OUTSIDE
    if math.hypot(x - idx.x_t[0], y - idx.x_t[1]) <= poly.tol.eps_len:
        return Containment.INSIDE
    u = boundary_param(idx.box, idx.x_t, (x, y), eps_len=poly.tol.eps_len)
    i = int(u * (idx.n_slabs / idx.perimeter)) % idx.n_slabs
    hp = poly.halfplanes
    m = math.inf
    for e in idx.slab_edges(i):
        m = min(m, hp[e, 0] * x + hp[e, 1] * y + hp[e, 2])
        if counter is not None:
            counter.evals += 1
    return classify_min(m, eps_q)


def locate_polar_batch(idx: PolarIndex2, points) -> np.ndarray:
    """Batch form of locate_polar: int8 Containment codes, one per point."""
    return locate_radial_batch(
        idx.poly, idx.poly.halfplanes, idx.x_t, idx.padded_edges, points,
        lambda q: idx.slab_of(boundary_param_batch(idx.box, idx.x_t, q)))
