"""Reference point-location methods for validated convex shapes.

Four classic strategies, ordered by per-query cost:

- linear scan of all half-planes/half-spaces, O(N) per query;
- wedge bisection around a fan apex, O(log N) per query;
- sorted y-slabs (binary search on distinct vertex ordinates), O(log N);
- uniform y-slabs (direct index arithmetic), O(1) per query after an
  O(N + n_slabs) build.

The wedge and both y-slab indexes are buckets.BucketTable subclasses (a
wedge or a slab is a bucket) and evaluate their candidate edges with the
kernel of that module, bucketed_min; only the wedge's fan lines are
evaluated here.  Every scalar locator takes its point through
core.query_point and is a batch of one; the linear and wedge ones fill an
optional EvalCounter with the counts the batch path implies.  A point with
a non-finite coordinate is Outside before any plane is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buckets import BucketTable, bucketed_min, clamp_budget, row_norm2
from .core import (Containment, ConvexPolygon, EvalCounter, SLAB_CAP, classify_min,
                   line_halfplanes, min_signed_distance, plane_eval, query_point, query_points)


def _finite_rows(pts):
    """(all-Outside int8 codes, finite rows of pts: a mask, or a slice of
    all rows when all are finite, which skips a row reduction and a copy as
    costly as a 20-face linear scan)."""
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    finite = np.isfinite(pts)
    return out, slice(None) if finite.all() else finite.all(axis=1)


def near(points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    """Mask of the points within r of center."""
    return row_norm2(points - center) <= r * r


# ---------------------------------------------------------------------------
# linear scans
# ---------------------------------------------------------------------------

def locate_linear_2d(shape, p, counter: EvalCounter | None = None) -> Containment:
    """O(N) scan: evaluate every edge half-plane (face half-space in 3D),
    classify by the minimum; counter gets every plane if p is finite."""
    q = query_point(p, shape.dim)
    code = Containment(int(locate_linear_2d_batch(shape, q)[0]))
    if counter is not None and all(map(math.isfinite, q)):
        counter.evals += len(shape.planes)
    return code


def locate_linear_2d_batch(shape, points) -> np.ndarray:
    """Batch form of locate_linear_2d: min_signed_distance takes either shape."""
    pts = query_points(points, shape.dim)
    out, ok = _finite_rows(pts)
    out[ok] = classify_min(min_signed_distance(shape, pts[ok]), shape.tol.eps_q)
    return out


locate_linear_3d = locate_linear_2d
locate_linear_3d_batch = locate_linear_2d_batch


# ---------------------------------------------------------------------------
# wedge bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeIndex2(BucketTable):
    """Fan of oriented lines from vertices[0] through every other vertex.

    g_planes[i] is the unit-normal line through (vertices[0], vertices[i]),
    positive on the counter-clockwise side; row 0 is unused padding.  Wedge
    w lies between fan lines w + 1 and w + 2 and is bucket w, listing edge
    w + 1; the first wedge also lists edge 0 and the last edge N-1, the
    polygon edges that bound the fan.
    """

    poly: ConvexPolygon
    g_planes: np.ndarray

    @property
    def bisection_depth(self) -> int:
        n = self.poly.n
        return 0 if n <= 3 else int(math.ceil(math.log2(n - 2)))


def build_wedge_index(poly: ConvexPolygon) -> WedgeIndex2:
    v = poly.vertices
    g = np.full((poly.n, 3), np.nan)
    # Fan lines join distinct vertices of a validated polygon: no length check.
    g[1:] = line_halfplanes(v[:1], v[1:], 0.0)
    g.setflags(write=False)
    wedge = np.clip(np.arange(poly.n) - 1, 0, poly.n - 3)
    return WedgeIndex2.pack(wedge, np.arange(poly.n), poly.n - 2, poly=poly, g_planes=g)


def _wedge_batch(idx: WedgeIndex2, points):
    """(codes, near_apex, in_fan, wedge): the near-apex and in-fan masks of
    the points, and the wedge of each in-fan point."""
    poly = idx.poly
    g = idx.g_planes
    eps_q = poly.tol.eps_q
    pts = query_points(points, 2)
    out, ok = _finite_rows(pts)
    near_apex = np.zeros(len(pts), dtype=bool)
    in_fan = np.zeros(len(pts), dtype=bool)
    q = pts[ok]
    near_apex[ok] = near(q, poly.vertices[0], poly.tol.eps_len)
    in_fan[ok] = ((plane_eval(g[1], q) >= -eps_q) & (plane_eval(g[-1], q) <= eps_q)
                  & ~near_apex[ok])

    # Fixed iteration count: ceil(log2(n-2)) halvings always suffice, and
    # the update is idempotent once hi - lo == 1.
    sub = pts[in_fan]
    lo = np.ones(len(sub), dtype=np.int64)
    hi = np.full(len(sub), poly.n - 1, dtype=np.int64)
    for _ in range(idx.bisection_depth):
        mid = (lo + hi) >> 1
        gm = g[mid]
        pos = gm[:, 0] * sub[:, 0] + gm[:, 1] * sub[:, 1] + gm[:, 2] >= 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    wedge = lo - 1
    out[in_fan] = classify_min(bucketed_min(poly.planes, idx, wedge, sub), eps_q)
    out[near_apex] = np.int8(Containment.ON_BOUNDARY)
    return out, near_apex, in_fan, wedge


def locate_wedge(idx: WedgeIndex2, p, counter: EvalCounter | None = None) -> Containment:
    """O(log N) query: bisect the vertex fan, then test the wedge's edges.

    The apex itself reports OnBoundary.  A point angularly outside the fan
    spanned by the first and last fan lines is Outside with no edge
    evaluation at all.  counter gets 2 fan evaluations unless the point is
    at the apex or not finite, and bisection_depth wedge and the wedge's
    edge evaluations when it is in the fan.
    """
    q = query_point(p, 2)
    codes, near_apex, in_fan, wedge = _wedge_batch(idx, q)
    if counter is not None and all(map(math.isfinite, q)):
        counter.fan_evals += 0 if near_apex[0] else 2
        if in_fan[0]:
            counter.wedge_evals += idx.bisection_depth
            counter.evals += int(idx.counts[wedge[0]])
    return Containment(int(codes[0]))


def locate_wedge_batch(idx: WedgeIndex2, points) -> np.ndarray:
    """Batch form of locate_wedge: int8 Containment codes, one per point."""
    return _wedge_batch(idx, points)[0]


# ---------------------------------------------------------------------------
# y-slabs
# ---------------------------------------------------------------------------

def locate_y_slabs(idx, p) -> Containment:
    """Sorted (O(log N)) or uniform (O(1)) y-slab query: Outside beyond the
    eps_q band of the y-range or if not finite, else the minimum over the
    edges listed in the point's slab."""
    return Containment(int(locate_y_slabs_batch(idx, query_point(p, 2))[0]))


def locate_y_slabs_batch(idx, points) -> np.ndarray:
    """Batch form of locate_y_slabs: int8 Containment codes, one per point."""
    poly = idx.poly
    eps_q = poly.tol.eps_q
    pts = query_points(points, 2)
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    y = pts[:, 1]
    # A NaN or infinite ordinate fails the band test itself.
    ok = ((y >= poly.aabb.lo[1] - eps_q) & (y <= poly.aabb.hi[1] + eps_q)
          & np.isfinite(pts[:, 0]))
    q = pts[ok]
    m = bucketed_min(poly.planes, idx, idx.slab_of(q[:, 1]), q)
    out[ok] = classify_min(m, eps_q)
    return out


@dataclass(frozen=True)
class SortedSlabIndex2(BucketTable):
    """Slabs between consecutive distinct vertex ordinates, one bucket each.

    Slab j spans [ys[j], ys[j+1]] and lists one left-chain and one
    right-chain edge; a horizontal bottom or top edge is also listed in the
    first or last slab.
    """

    poly: ConvexPolygon
    ys: np.ndarray

    def slab_of(self, y) -> np.ndarray:
        return np.clip(np.searchsorted(self.ys, y, side="right") - 1, 0, len(self.ys) - 2)


def build_sorted_slabs(poly: ConvexPolygon) -> SortedSlabIndex2:
    y = poly.vertices[:, 1]
    ys = np.unique(y)
    ys.setflags(write=False)
    y0, y1 = np.sort([y, np.roll(y, -1)], axis=0)
    # A chain edge covers slabs lo..hi-1; a horizontal edge (lo == hi) is
    # the bottom edge (slab 0) or the top edge (the last slab).
    first = np.minimum(np.searchsorted(ys, y0), len(ys) - 2)
    last = np.maximum(np.searchsorted(ys, y1) - 1, first)
    return SortedSlabIndex2.from_runs(first, last - first + 1, len(ys) - 1, poly=poly, ys=ys)


@dataclass(frozen=True)
class UniformSlabIndex2(BucketTable):
    """Equal-height y-slabs, one bucket of candidate edges each.

    Slab i covers [y_min + i*h, y_min + (i+1)*h) with h = span / n_slabs; a
    query maps to its slab by one floor division.  Every edge is listed in
    every slab its y-extent overlaps.
    """

    poly: ConvexPolygon
    n_slabs: int

    def slab_of(self, y) -> np.ndarray:
        return _y_slab_of(y, self.poly, self.n_slabs)


def _y_slab_of(y, poly: ConvexPolygon, n_slabs: int) -> np.ndarray:
    lo = poly.aabb.lo[1]
    i = np.floor((np.asarray(y, dtype=float) - lo) / (poly.aabb.hi[1] - lo) * n_slabs)
    return np.clip(i, 0, n_slabs - 1).astype(np.int64)


def build_uniform_slabs(poly: ConvexPolygon) -> UniformSlabIndex2:
    """Build the uniform y-slab index in O(N + n_slabs).  n_slabs is at
    least N, and no slab is taller than the smallest gap between vertex
    ordinates, up to SLAB_CAP (clamp_budget warns when it clamps)."""
    y = poly.vertices[:, 1]
    gaps = np.diff(np.sort(y))
    # Gaps at or below eps_len are coincident ordinates under the
    # tolerance model (e.g. mirror-symmetric vertices), not real spacing.
    gaps = gaps[gaps > poly.tol.eps_len]
    span = float(poly.aabb.hi[1] - poly.aabb.lo[1])
    want = poly.n if len(gaps) == 0 else int(math.ceil(span / float(gaps.min())))
    n_slabs = clamp_budget("uniform slab count", max(poly.n, want), SLAB_CAP)
    y0, y1 = np.sort([y, np.roll(y, -1)], axis=0)
    first = _y_slab_of(y0, poly, n_slabs)
    runs = _y_slab_of(y1, poly, n_slabs) - first + 1
    return UniformSlabIndex2.from_runs(first, runs, n_slabs, poly=poly, n_slabs=n_slabs)


locate_sorted_slabs = locate_uniform_slabs = locate_y_slabs
locate_sorted_slabs_batch = locate_uniform_slabs_batch = locate_y_slabs_batch
