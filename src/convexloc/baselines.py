"""Reference point-location methods for validated convex shapes.

Four classic strategies, ordered by per-query cost:

- linear scan of all half-planes/half-spaces, O(N) per query;
- wedge bisection around a fan apex, O(log N) per query;
- sorted y-slabs (binary search on distinct vertex ordinates), O(log N);
- uniform y-slabs (direct index arithmetic), O(1) per query after an
  O(N + n_slabs) build.

Every method has a vectorized batch path.  The scalar y-slab locators are
batches of one; the linear scans and wedge bisection keep scalar loops that
count evaluations in an optional EvalCounter.  Scalar and batch paths share
formulas and constants, so they classify identically.  Uniform y-slabs
store their candidate lists in the bucket-table format of the buckets module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buckets import bucketed_min, clamp_budget, csr_sort, padded_table, run_expand
from .core import (Containment, ConvexPolygon, ConvexPolyhedron, EvalCounter,
                   SLAB_CAP, classify_min, min_signed_distance, plane_eval)


# ---------------------------------------------------------------------------
# linear scans
# ---------------------------------------------------------------------------

def locate_linear_2d(poly: ConvexPolygon, p, counter: EvalCounter | None = None) -> Containment:
    """O(N) scan: evaluate every edge half-plane, classify by the minimum."""
    m = float(plane_eval(poly.halfplanes, np.asarray(p, dtype=float)).min())
    if counter is not None:
        counter.evals += poly.n
    return classify_min(m, poly.tol.eps_q)


def locate_linear_3d(poly: ConvexPolyhedron, p, counter: EvalCounter | None = None) -> Containment:
    """O(N) scan over face half-spaces."""
    m = float(plane_eval(poly.halfspaces, np.asarray(p, dtype=float)).min())
    if counter is not None:
        counter.evals += poly.n_faces
    return classify_min(m, poly.tol.eps_q)


def locate_linear_2d_batch(poly: ConvexPolygon, points) -> np.ndarray:
    return classify_min(min_signed_distance(poly, points), poly.tol.eps_q)


def locate_linear_3d_batch(poly: ConvexPolyhedron, points) -> np.ndarray:
    return classify_min(min_signed_distance(poly, points), poly.tol.eps_q)


# ---------------------------------------------------------------------------
# wedge bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeIndex2:
    """Fan of oriented lines from vertices[0] through every other vertex.

    g_planes[i] is the unit-normal line through (vertices[0], vertices[i]),
    positive on the counter-clockwise side; row 0 is unused padding.
    """

    poly: ConvexPolygon
    g_planes: np.ndarray

    @property
    def bisection_depth(self) -> int:
        n = self.poly.n
        return 0 if n <= 3 else int(math.ceil(math.log2(n - 2)))


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
    return WedgeIndex2(poly=poly, g_planes=g)


def locate_wedge(idx: WedgeIndex2, p, counter: EvalCounter | None = None) -> Containment:
    """O(log N) query: bisect the vertex fan, then test one boundary edge.

    The apex itself reports OnBoundary.  A point angularly outside the fan
    spanned by the first and last fan lines is Outside with no edge
    evaluation at all.
    """
    poly = idx.poly
    v = poly.vertices
    g = idx.g_planes
    h = poly.halfplanes
    eps_q = poly.tol.eps_q
    n = poly.n
    x, y = float(p[0]), float(p[1])

    if math.hypot(x - v[0, 0], y - v[0, 1]) <= poly.tol.eps_len:
        return Containment.ON_BOUNDARY

    f_first = g[1, 0] * x + g[1, 1] * y + g[1, 2]
    f_last = g[n - 1, 0] * x + g[n - 1, 1] * y + g[n - 1, 2]
    if counter is not None:
        counter.fan_evals += 2
    if f_first < -eps_q or f_last > eps_q:
        return Containment.OUTSIDE

    # Fixed iteration count: ceil(log2(n-2)) halvings always suffice, and
    # the update is idempotent once hi - lo == 1, so every query costs the
    # same number of wedge evaluations (mirrors the batch path exactly).
    lo, hi = 1, n - 1
    for _ in range(idx.bisection_depth):
        mid = (lo + hi) // 2
        val = g[mid, 0] * x + g[mid, 1] * y + g[mid, 2]
        if counter is not None:
            counter.wedge_evals += 1
        if val >= 0.0:
            lo = mid
        else:
            hi = mid

    m = h[lo, 0] * x + h[lo, 1] * y + h[lo, 2]
    if counter is not None:
        counter.evals += 1
    # The fan's first and last wedges are bounded by real polygon edges, so
    # fold those in to classify their boundary band correctly.
    if lo == 1:
        m = min(m, h[0, 0] * x + h[0, 1] * y + h[0, 2])
        if counter is not None:
            counter.evals += 1
    if lo == n - 2:
        m = min(m, h[n - 1, 0] * x + h[n - 1, 1] * y + h[n - 1, 2])
        if counter is not None:
            counter.evals += 1
    return classify_min(m, eps_q)


def locate_wedge_batch(idx: WedgeIndex2, points) -> np.ndarray:
    poly = idx.poly
    g = idx.g_planes
    h = poly.halfplanes
    eps_q = poly.tol.eps_q
    n = poly.n
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))

    apex = poly.vertices[0]
    near_apex = ((pts - apex) ** 2).sum(axis=1) <= poly.tol.eps_len ** 2
    f_first = plane_eval(g[1], pts)
    f_last = plane_eval(g[n - 1], pts)
    infan = (f_first >= -eps_q) & (f_last <= eps_q) & ~near_apex

    sub = pts[infan]
    if len(sub):
        lo = np.ones(len(sub), dtype=np.int64)
        hi = np.full(len(sub), n - 1, dtype=np.int64)
        for _ in range(idx.bisection_depth):
            mid = (lo + hi) >> 1
            gm = g[mid]
            val = gm[:, 0] * sub[:, 0] + gm[:, 1] * sub[:, 1] + gm[:, 2]
            pos = val >= 0.0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        hk = h[lo]
        m = hk[:, 0] * sub[:, 0] + hk[:, 1] * sub[:, 1] + hk[:, 2]
        first = lo == 1
        if first.any():
            m[first] = np.minimum(m[first], plane_eval(h[0], sub[first]))
        last = lo == n - 2
        if last.any():
            m[last] = np.minimum(m[last], plane_eval(h[n - 1], sub[last]))
        out[infan] = classify_min(m, eps_q)
    out[near_apex] = np.int8(Containment.ON_BOUNDARY)
    return out


# ---------------------------------------------------------------------------
# sorted y-slabs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SortedSlabIndex2:
    """Slabs between consecutive distinct vertex ordinates.

    Slab j spans [ys[j], ys[j+1]] and carries exactly one left-chain and one
    right-chain edge.  Horizontal extreme edges, when present, sit outside
    the chains and are folded in for queries in the first/last slab.
    """

    poly: ConvexPolygon
    ys: np.ndarray
    left_edges: np.ndarray
    right_edges: np.ndarray
    bottom_cap: int
    top_cap: int


def _chain_sides(poly: ConvexPolygon):
    """Edge indices of the left chain (dy<0), right chain (dy>0) and caps."""
    v = poly.vertices
    dy = np.roll(v[:, 1], -1) - v[:, 1]
    return np.flatnonzero(dy < 0.0), np.flatnonzero(dy > 0.0), np.flatnonzero(dy == 0.0)


def build_sorted_slabs(poly: ConvexPolygon) -> SortedSlabIndex2:
    v = poly.vertices
    ys = np.unique(v[:, 1])
    k = len(ys) - 1
    left = np.full(k, -1, dtype=np.int32)
    right = np.full(k, -1, dtype=np.int32)
    left_ids, right_ids, flat_ids = _chain_sides(poly)

    nxt = np.roll(np.arange(poly.n), -1)
    for target, ids in ((left, left_ids), (right, right_ids)):
        y0 = np.minimum(v[ids, 1], v[nxt[ids], 1])
        y1 = np.maximum(v[ids, 1], v[nxt[ids], 1])
        lo = np.searchsorted(ys, y0)
        hi = np.searchsorted(ys, y1)
        for e, a, b in zip(ids, lo, hi):
            target[a:b] = e
    if (left < 0).any() or (right < 0).any():
        raise AssertionError("slab chain construction left a gap")

    bottom_cap = top_cap = -1
    for e in flat_ids:
        if v[e, 1] == ys[0]:
            bottom_cap = int(e)
        else:
            top_cap = int(e)
    left.setflags(write=False)
    right.setflags(write=False)
    ys.setflags(write=False)
    return SortedSlabIndex2(poly=poly, ys=ys, left_edges=left, right_edges=right,
                            bottom_cap=bottom_cap, top_cap=top_cap)


def locate_sorted_slabs(idx: SortedSlabIndex2, p) -> Containment:
    """O(log N) query: binary-search the slab, evaluate its two chain edges."""
    return Containment(int(locate_sorted_slabs_batch(idx, p)[0]))


def locate_sorted_slabs_batch(idx: SortedSlabIndex2, points) -> np.ndarray:
    poly = idx.poly
    eps_q = poly.tol.eps_q
    ys = idx.ys
    h = poly.halfplanes
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = pts[:, 1]
    outside = (y < ys[0] - eps_q) | (y > ys[-1] + eps_q)
    j = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
    he = h[idx.left_edges[j]]
    m = he[:, 0] * pts[:, 0] + he[:, 1] * y + he[:, 2]
    he = h[idx.right_edges[j]]
    m = np.minimum(m, he[:, 0] * pts[:, 0] + he[:, 1] * y + he[:, 2])
    if idx.bottom_cap >= 0:
        sel = j == 0
        m[sel] = np.minimum(m[sel], plane_eval(h[idx.bottom_cap], pts[sel]))
    if idx.top_cap >= 0:
        sel = j == len(ys) - 2
        m[sel] = np.minimum(m[sel], plane_eval(h[idx.top_cap], pts[sel]))
    out = classify_min(m, eps_q)
    out[outside] = np.int8(Containment.OUTSIDE)
    return out


# ---------------------------------------------------------------------------
# uniform y-slabs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformSlabIndex2:
    """Equal-height y-slabs with per-slab candidate edge lists (CSR layout).

    Slab i covers [y_min + i*h, y_min + (i+1)*h) with h = span / n_slabs; a
    query maps to its slab by one floor division.  Every edge is listed in
    every slab its y-extent overlaps; left_counts/right_counts record the
    per-side occupancy used by structural invariants, caps are horizontal
    extreme edges listed in their single containing slab.
    """

    poly: ConvexPolygon
    n_slabs: int
    offsets: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    left_counts: np.ndarray
    right_counts: np.ndarray
    max_occupancy: int
    mean_occupancy: float

    def slab_of(self, y) -> np.ndarray:
        return _y_slab_of(y, self.poly, self.n_slabs)

    def slab_edges(self, i: int) -> np.ndarray:
        return self.edges[self.offsets[i]:self.offsets[i + 1]]

    @cached_property
    def padded_edges(self) -> np.ndarray:
        return padded_table(self.offsets, self.edges, self.counts)


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

    v = poly.vertices
    nxt = np.roll(np.arange(poly.n), -1)
    y0 = _y_slab_of(np.minimum(v[:, 1], v[nxt, 1]), poly, n_slabs)
    y1 = _y_slab_of(np.maximum(v[:, 1], v[nxt, 1]), poly, n_slabs)
    runs = y1 - y0 + 1
    slab_ids = run_expand(y0, runs)
    edge_ids = np.repeat(np.arange(poly.n, dtype=np.int32), runs)
    offsets, edges, counts = csr_sort(slab_ids, edge_ids, n_slabs)
    if int(counts.min()) < 1:
        raise AssertionError("uniform slab construction produced an empty slab")

    left_ids, right_ids, _ = _chain_sides(poly)
    side = np.zeros(poly.n, dtype=np.int8)
    side[left_ids] = 1
    side[right_ids] = 2
    edge_side = side[edge_ids]
    left_counts = np.bincount(slab_ids[edge_side == 1], minlength=n_slabs).astype(np.int32)
    right_counts = np.bincount(slab_ids[edge_side == 2], minlength=n_slabs).astype(np.int32)

    for arr in (offsets, edges, counts, left_counts, right_counts):
        arr.setflags(write=False)
    return UniformSlabIndex2(poly=poly, n_slabs=n_slabs, offsets=offsets,
                             edges=edges, counts=counts,
                             left_counts=left_counts, right_counts=right_counts,
                             max_occupancy=int(counts.max()),
                             mean_occupancy=float(counts.mean()))


def locate_uniform_slabs(idx: UniformSlabIndex2, p) -> Containment:
    """O(1) query: one floor division, then the slab's candidate edges.

    Points beyond the eps_q band of the y-range, and points with a
    non-finite coordinate, are Outside.
    """
    return Containment(int(locate_uniform_slabs_batch(idx, p)[0]))


def locate_uniform_slabs_batch(idx: UniformSlabIndex2, points) -> np.ndarray:
    poly = idx.poly
    eps_q = poly.tol.eps_q
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = pts[:, 1]
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    iny = (y >= poly.aabb.lo[1] - eps_q) & (y <= poly.aabb.hi[1] + eps_q)
    q = pts[iny]
    m = bucketed_min(poly.halfplanes, idx.padded_edges, idx.slab_of(q[:, 1]), q)
    out[iny] = classify_min(m, eps_q)
    return out
