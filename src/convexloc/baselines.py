"""Reference point-location methods for validated convex shapes.

Four classic strategies, ordered by per-query cost:

- linear scan of all half-planes/half-spaces, O(N) per query;
- wedge bisection around a fan apex, O(log N) per query;
- sorted y-slabs (binary search on distinct vertex ordinates), O(log N);
- uniform y-slabs (direct index arithmetic), O(1) per query after an
  O(N + n_slabs) build.

The wedge and both y-slab methods keep their candidate edges in the
bucket-table format of the buckets module (a wedge or a slab is a bucket)
and evaluate them with its kernel, bucketed_min; only the wedge's fan lines
are evaluated here.  Every scalar locator is a batch of one; the linear and
wedge ones fill an optional EvalCounter with the counts the batch path
implies.  A point with a non-finite coordinate is Outside before any plane
is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buckets import bucketed_min, clamp_budget, csr_sort, padded_table, run_expand
from .core import (Containment, ConvexPolygon, ConvexPolyhedron, EvalCounter,
                   SLAB_CAP, classify_min, min_signed_distance, plane_eval)


def _points(points):
    """(points as an (M, d) array, all-Outside int8 codes, finite rows: a
    mask, or a slice of all rows when all are finite, which skips a row
    reduction and a copy as costly as a 20-face linear scan)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    finite = np.isfinite(pts)
    return pts, out, slice(None) if finite.all() else finite.all(axis=1)


def _edge_table(first: np.ndarray, last: np.ndarray, n_buckets: int):
    """Read-only CSR (offsets, edges, counts) listing edge e in buckets
    first[e]..last[e]; raises AssertionError if a bucket stays empty."""
    runs = last - first + 1
    edge_ids = np.repeat(np.arange(len(first), dtype=np.int32), runs)
    offsets, edges, counts = csr_sort(run_expand(first, runs), edge_ids, n_buckets)
    if int(counts.min()) < 1:
        raise AssertionError("edge table construction produced an empty bucket")
    for arr in (offsets, edges, counts):
        arr.setflags(write=False)
    return offsets, edges, counts


# ---------------------------------------------------------------------------
# linear scans
# ---------------------------------------------------------------------------

def locate_linear_2d(poly: ConvexPolygon, p, counter: EvalCounter | None = None) -> Containment:
    """O(N) scan: evaluate every edge half-plane, classify by the minimum."""
    if counter is not None:
        counter.evals += poly.n
    return Containment(int(locate_linear_2d_batch(poly, p)[0]))


def locate_linear_3d(poly: ConvexPolyhedron, p, counter: EvalCounter | None = None) -> Containment:
    """O(N) scan over face half-spaces."""
    if counter is not None:
        counter.evals += poly.n_faces
    return Containment(int(locate_linear_3d_batch(poly, p)[0]))


def locate_linear_2d_batch(poly: ConvexPolygon, points) -> np.ndarray:
    """Also the 3D scan: min_signed_distance takes either shape."""
    pts, out, ok = _points(points)
    out[ok] = classify_min(min_signed_distance(poly, pts[ok]), poly.tol.eps_q)
    return out


def locate_linear_3d_batch(poly: ConvexPolyhedron, points) -> np.ndarray:
    return locate_linear_2d_batch(poly, points)


# ---------------------------------------------------------------------------
# wedge bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeIndex2:
    """Fan of oriented lines from vertices[0] through every other vertex.

    g_planes[i] is the unit-normal line through (vertices[0], vertices[i]),
    positive on the counter-clockwise side; row 0 is unused padding.  Wedge
    w lies between fan lines w + 1 and w + 2 and lists edge w + 1 (CSR
    layout); the first wedge also lists edge 0 and the last edge N-1, the
    polygon edges that bound the fan.
    """

    poly: ConvexPolygon
    g_planes: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray
    counts: np.ndarray

    @property
    def bisection_depth(self) -> int:
        n = self.poly.n
        return 0 if n <= 3 else int(math.ceil(math.log2(n - 2)))

    @cached_property
    def padded_edges(self) -> np.ndarray:
        return padded_table(self.offsets, self.edges, self.counts)


def build_wedge_index(poly: ConvexPolygon) -> WedgeIndex2:
    v = poly.vertices
    d = v[1:] - v[0]
    length = np.hypot(d[:, 0], d[:, 1])
    a = -d[:, 1] / length
    b = d[:, 0] / length
    c = -(a * v[0, 0] + b * v[0, 1])
    g = np.full((poly.n, 3), np.nan)
    g[1:] = np.column_stack([a, b, c])
    g.setflags(write=False)
    wedge = np.clip(np.arange(poly.n) - 1, 0, poly.n - 3)
    offsets, edges, counts = _edge_table(wedge, wedge, poly.n - 2)
    return WedgeIndex2(poly=poly, g_planes=g, offsets=offsets, edges=edges, counts=counts)


def _wedge_batch(idx: WedgeIndex2, points):
    """(codes, near_apex, in_fan, wedge): the near-apex and in-fan masks of
    the points, and the wedge of each in-fan point."""
    poly = idx.poly
    g = idx.g_planes
    eps_q = poly.tol.eps_q
    pts, out, ok = _points(points)
    near_apex = np.zeros(len(pts), dtype=bool)
    in_fan = np.zeros(len(pts), dtype=bool)
    q = pts[ok]
    near_apex[ok] = ((q - poly.vertices[0]) ** 2).sum(axis=1) <= poly.tol.eps_len ** 2
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
    out[in_fan] = classify_min(bucketed_min(poly.halfplanes, idx.padded_edges, wedge, sub),
                               eps_q)
    out[near_apex] = np.int8(Containment.ON_BOUNDARY)
    return out, near_apex, in_fan, wedge


def locate_wedge(idx: WedgeIndex2, p, counter: EvalCounter | None = None) -> Containment:
    """O(log N) query: bisect the vertex fan, then test the wedge's edges.

    The apex itself reports OnBoundary.  A point angularly outside the fan
    spanned by the first and last fan lines is Outside with no edge
    evaluation at all.  counter gets 2 fan evaluations unless the point is
    at the apex, and bisection_depth wedge and the wedge's edge
    evaluations when it is in the fan.
    """
    codes, near_apex, in_fan, wedge = _wedge_batch(idx, p)
    if counter is not None:
        counter.fan_evals += 0 if near_apex[0] else 2
        if in_fan[0]:
            counter.wedge_evals += idx.bisection_depth
            counter.evals += int(idx.counts[wedge[0]])
    return Containment(int(codes[0]))


def locate_wedge_batch(idx: WedgeIndex2, points) -> np.ndarray:
    return _wedge_batch(idx, points)[0]


# ---------------------------------------------------------------------------
# y-slabs
# ---------------------------------------------------------------------------

def _locate_y_slabs(idx, points) -> np.ndarray:
    """Codes of a y-slab index: Outside beyond the eps_q band of the
    y-range, else the minimum over the edges listed in the point's slab."""
    poly = idx.poly
    eps_q = poly.tol.eps_q
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    y = pts[:, 1]
    # A NaN or infinite ordinate fails the band test itself.
    ok = ((y >= poly.aabb.lo[1] - eps_q) & (y <= poly.aabb.hi[1] + eps_q)
          & np.isfinite(pts[:, 0]))
    q = pts[ok]
    m = bucketed_min(poly.halfplanes, idx.padded_edges, idx.slab_of(q[:, 1]), q)
    out[ok] = classify_min(m, eps_q)
    return out


class _SlabTable:
    """Accessors of a y-slab index's CSR table (offsets, edges, counts)."""

    def slab_edges(self, i: int) -> np.ndarray:
        return self.edges[self.offsets[i]:self.offsets[i + 1]]

    @cached_property
    def padded_edges(self) -> np.ndarray:
        return padded_table(self.offsets, self.edges, self.counts)


@dataclass(frozen=True)
class SortedSlabIndex2(_SlabTable):
    """Slabs between consecutive distinct vertex ordinates (CSR layout).

    Slab j spans [ys[j], ys[j+1]] and lists one left-chain and one
    right-chain edge; a horizontal bottom or top edge is also listed in the
    first or last slab.
    """

    poly: ConvexPolygon
    ys: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray
    counts: np.ndarray

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
    offsets, edges, counts = _edge_table(first, last, len(ys) - 1)
    return SortedSlabIndex2(poly=poly, ys=ys, offsets=offsets, edges=edges, counts=counts)


def locate_sorted_slabs(idx: SortedSlabIndex2, p) -> Containment:
    """O(log N) query: binary-search the slab, evaluate its listed edges."""
    return Containment(int(locate_sorted_slabs_batch(idx, p)[0]))


def locate_sorted_slabs_batch(idx: SortedSlabIndex2, points) -> np.ndarray:
    return _locate_y_slabs(idx, points)


@dataclass(frozen=True)
class UniformSlabIndex2(_SlabTable):
    """Equal-height y-slabs with per-slab candidate edge lists (CSR layout).

    Slab i covers [y_min + i*h, y_min + (i+1)*h) with h = span / n_slabs; a
    query maps to its slab by one floor division.  Every edge is listed in
    every slab its y-extent overlaps.
    """

    poly: ConvexPolygon
    n_slabs: int
    offsets: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    max_occupancy: int
    mean_occupancy: float

    def slab_of(self, y) -> np.ndarray:
        return _y_slab_of(y, self.poly, self.n_slabs)


def _y_slab_of(y, poly: ConvexPolygon, n_slabs: int) -> np.ndarray:
    lo = poly.aabb.lo[1]
    i = np.floor((np.asarray(y, dtype=float) - lo) / (poly.aabb.hi[1] - lo) * n_slabs)
    return np.clip(i, 0, n_slabs - 1).astype(np.int64)


def build_uniform_slabs(poly: ConvexPolygon, n_slabs: int | None = None) -> UniformSlabIndex2:
    if n_slabs is None:
        ys = np.sort(poly.vertices[:, 1])
        gaps = np.diff(ys)
        # Gaps at or below eps_len are coincident ordinates under the
        # tolerance model (e.g. mirror-symmetric vertices), not real spacing.
        gaps = gaps[gaps > poly.tol.eps_len]
        span = float(poly.aabb.hi[1] - poly.aabb.lo[1])
        want = poly.n if len(gaps) == 0 else int(math.ceil(span / float(gaps.min())))
        n_slabs = max(poly.n, want)
    n_slabs = clamp_budget("uniform slab count", n_slabs, SLAB_CAP)

    y = poly.vertices[:, 1]
    y0, y1 = np.sort([y, np.roll(y, -1)], axis=0)
    offsets, edges, counts = _edge_table(_y_slab_of(y0, poly, n_slabs),
                                         _y_slab_of(y1, poly, n_slabs), n_slabs)
    return UniformSlabIndex2(poly=poly, n_slabs=n_slabs, offsets=offsets, edges=edges,
                             counts=counts, max_occupancy=int(counts.max()),
                             mean_occupancy=float(counts.mean()))


def locate_uniform_slabs(idx: UniformSlabIndex2, p) -> Containment:
    """O(1) query: one floor division, then the slab's candidate edges.

    Points beyond the eps_q band of the y-range, and points with a
    non-finite coordinate, are Outside.
    """
    return Containment(int(locate_uniform_slabs_batch(idx, p)[0]))


def locate_uniform_slabs_batch(idx: UniformSlabIndex2, points) -> np.ndarray:
    return _locate_y_slabs(idx, points)
