"""Bucket tables, the one format behind polar slabs, the cube map, wedges
and y-slabs, and the query path of the direction-bucket indexes.

A bucketed index maps a query to one bucket (a slab, a cube-map cell or
a wedge) and evaluates only the planes listed for that bucket.  Every
such index is a BucketTable, the one owner of that format: a padded
(n_buckets, max_occupancy) table of plane ids, stored column-major, and
the bucket sizes, built once by pack.  This module also clamps bucket
budgets to their caps and holds the batch kernel, bucketed_min, that takes
the minimal signed distance over a bucket's planes one table column at a
time.  It reads contiguous columns only: the table's, and those of the
shape's column-major planes.  RadialIndex is the table of the polar and
cube-map indexes, around the x_t of reference_point; locate_radial (one
point, Python floats) and locate_radial_batch (numpy) answer their queries
with one policy and arithmetic on shape.planes, asking the index for the
bucket of a point (bucket_of_floats) or of many (bucket_of).  Most points
need no bucket: the index's frame, a quadratic form r^2 about x_t made from
the vertex covariance, has an inner bound within which every point lies
2*eps_q inside every plane (Inside), and an outer bound beyond which every
point lies 2*eps_q outside the plane its bucket lists for it (Outside).
The frame's matrix is held once, as the Python floats L_floats, and
RadialIndex.radius2 is the one batch r^2, in every dimension; it also
makes the outer bound from the vertices.  Only the points in the annulus
between the two bounds reach the box test (Aabb.contains in a batch), the
direction map and bucketed_min.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (CapExceeded, Containment, ConvexPolygon, ConvexPolyhedron, EvalCounter,
                   ReferenceNotInterior, centroid, classify_min, plane_eval, query_point,
                   query_points)


def clamp_budget(what: str, n, cap: int) -> int:
    """n as an int, clamped to cap with a CapExceeded warning.

    Every bucket budget, derived or requested, goes through here, so every
    clamp is reported.  Raises ValueError when n < 1 or is not finite.
    """
    if not 1 <= n < math.inf:
        raise ValueError(f"{what} must be >= 1 and finite, got {n!r}")
    n = int(n)
    if n > cap:
        warnings.warn(f"{what} {n} clamped to {cap}", CapExceeded, stacklevel=3)
        return cap
    return n


def run_expand(starts: np.ndarray, counts: np.ndarray):
    """Per-run aranges: run j contributes starts[j] + (0..counts[j]-1)."""
    total = int(counts.sum())
    first = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return np.repeat(starts, counts) + within


@dataclass(frozen=True)
class BucketTable:
    """Bucket b of a bucketed index lists the counts[b] plane ids
    padded_edges[b, :counts[b]]; the rest of the row repeats its first entry.

    padded_edges is stored column-major: column j, the j-th plane id of
    every bucket, is one contiguous array, which is what bucketed_min
    gathers from.  Built by pack or from_runs, both arrays are read-only and
    no bucket is empty.  Every bucketed index subclasses it with its own
    fields.
    """

    padded_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def pack(cls, bucket_ids: np.ndarray, item_ids: np.ndarray, n_buckets: int, **fields):
        """Index listing item_ids[k] in bucket bucket_ids[k], in input order
        within a bucket, plus the subclass's fields.  Raises AssertionError
        if a bucket stays empty."""
        counts = np.bincount(bucket_ids, minlength=n_buckets).astype(np.int32)
        if int(counts.min()) < 1:
            raise AssertionError(f"{cls.__name__} construction produced an empty bucket")
        items = item_ids[np.argsort(bucket_ids, kind="stable")].astype(np.int32)
        first = np.cumsum(counts, dtype=np.int64) - counts
        occ = int(counts.max())
        # Filled as its C-order transpose, so the table is column-major.
        columns = np.empty((occ, n_buckets), dtype=np.int32)
        columns[:] = items[first]
        # Entry k of the sorted items is entry k - first[b] of its bucket b,
        # which is flat entry (k - first[b]) * n_buckets + b of the transpose.
        shift = np.arange(n_buckets) - first * n_buckets
        columns.reshape(-1)[np.repeat(shift, counts)
                            + np.arange(0, len(items) * n_buckets, n_buckets)] = items
        padded = columns.T
        for arr in (padded, counts):
            arr.setflags(write=False)
        return cls(padded_edges=padded, counts=counts, **fields)

    @classmethod
    def from_runs(cls, first: np.ndarray, runs: np.ndarray, n_buckets: int, **fields):
        """pack listing item e in the runs[e] buckets from first[e] on,
        wrapping past the last bucket to bucket 0."""
        item_ids = np.repeat(np.arange(len(first), dtype=np.int32), runs)
        bucket_ids = run_expand(first, runs)
        if int((first + runs).max()) > n_buckets:
            bucket_ids %= n_buckets
        return cls.pack(bucket_ids, item_ids, n_buckets, **fields)

    def bucket(self, i: int) -> np.ndarray:
        """Plane ids listed in bucket i."""
        return self.padded_edges[i, :self.counts[i]]

    @property
    def max_occupancy(self) -> int:
        return self.padded_edges.shape[1]

    @property
    def mean_occupancy(self) -> float:
        return float(self.counts.mean())

    @property
    def offsets(self) -> np.ndarray:
        """Read-only CSR offsets: bucket b is edges[offsets[b]:offsets[b + 1]]."""
        offsets = np.concatenate(([0], np.cumsum(self.counts, dtype=np.int64)))
        offsets.setflags(write=False)
        return offsets

    @property
    def edges(self) -> np.ndarray:
        """Read-only CSR items: every bucket's plane ids, bucket by bucket."""
        edges = self.padded_edges[np.arange(self.max_occupancy) < self.counts[:, None]]
        edges.setflags(write=False)
        return edges


def bucketed_min(planes: np.ndarray, table: BucketTable, bucket_ids, q: np.ndarray) -> np.ndarray:
    """Minimal signed distance of each point q[k] over the planes listed in
    bucket bucket_ids[k] of the table.

    Works one table column j at a time: it gathers the j-th plane id of
    each point's bucket, then that plane's coefficients column by column,
    and folds the distances into a running minimum.  Each plane is
    evaluated as a*x + b*y (+ c*z) + d, summed left to right, the same
    arithmetic as the candidate loop of locate_radial.  Padding repeats a
    bucket's first plane, so it never changes a minimum.  Every gather
    reads a contiguous column when planes and the table are column-major,
    as the validators and BucketTable.pack store them; take on a strided
    column would first copy the whole column, O(N) per call.
    """
    dim = q.shape[1]
    coef = [planes[:, k] for k in range(dim + 1)]
    m = None
    for j in range(table.max_occupancy):
        e = table.padded_edges[:, j].take(bucket_ids)
        v = coef[0].take(e) * q[:, 0]
        for k in range(1, dim):
            v += coef[k].take(e) * q[:, k]
        v += coef[dim].take(e)
        m = v if m is None else np.minimum(m, v, out=m)
    return m


def row_norm2(a: np.ndarray) -> np.ndarray:
    """Squared length of each row of a 2-D array, summed column by column:
    numpy sums short rows slowly."""
    first, *rest = (a * a).T
    return sum(rest, first)


def reference_point(shape) -> np.ndarray:
    """Read-only vertex mean of the shape; raises ReferenceNotInterior unless strictly inside."""
    x_t = centroid(shape)
    if not float(plane_eval(shape.planes, x_t).min()) > shape.tol.eps_q:
        raise ReferenceNotInterior("reference point must be strictly inside")
    x_t.setflags(write=False)
    return x_t


def covariance_frame(v: np.ndarray) -> tuple:
    """(L, U) for the covariance C of the rows of v (vertices less their
    mean).  U, a dim x dim array, is upper triangular with U U^T = C: the
    Cholesky factor of C with its rows and columns reversed.  L = U^-T is
    the lower Cholesky factor of C^-1, so that |L^T d| is d's length in
    units of the vertex spread along d and L^-1 = U^T; it comes as its
    lower triangle, column by column, in Python floats (the layout of
    RadialIndex.L_floats).  C is never inverted.  NaNs when C is not
    positive definite in floating point, as on a sliver.  numpy.linalg
    costs about 3 us a shape more than the factorization written out in
    floats (12.9 against 10.1 us on 64-gons and level-1 icospheres, 2-vCPU
    host): 1% of a build of 320 small shapes, within its spread."""
    c = v.T @ v / len(v)
    n = len(c)
    try:
        u = np.linalg.cholesky(c[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        return (math.nan,) * (n * (n + 1) // 2), np.full((n, n), math.nan)
    # Row k of U^-1, from column k on, is column k of L, from row k on.
    x = np.linalg.inv(u).tolist()
    return tuple(x[k][j] for k in range(n) for j in range(k, n)), u


@dataclass(frozen=True)
class RadialIndex(BucketTable):
    """A bucket table of the directions from x_t, the strictly interior
    vertex mean (reference_point) of the validated shape poly: the base
    of PolarIndex2 and CubeMapIndex3, which map points to buckets with
    bucket_of (numpy) and bucket_of_floats (one point as Python floats).

    Construction also makes the box test and the reference point of
    locate_radial, once and in Python floats: inbox_lo and inbox_hi, the
    shape's bounding box grown by eps_q on every side, and x_t_floats.
    eps_len and eps_q it reads from poly.tol, which holds them as floats.

    It also makes the frame that decides deep and far points with no
    bucket: L, lower triangular with L L^T the inverse covariance of the
    vertices about x_t (covariance_frame), held once as L_floats, its
    lower triangle column by column in Python floats;
    r^2(q) = |L^T (q - x_t)|^2, computed by radius2 for a batch and
    unrolled in locate_radial for one point; and two bounds on r^2,
    inner2 = rho_in^2 and outer2 = rho_out^2.  With depth_i the distance
    of x_t inside plane i (unit normal n_i) and d_min the least depth:

    - rho_in = min_i (depth_i - 2*eps_q) / |L^-1 n_i|.  Plane i at
      q = x_t + L^-T y is depth_i + (L^-1 n_i).y >= depth_i - |y| |L^-1 n_i|,
      so a point with r^2 <= inner2 lies at least 2*eps_q inside every
      plane, and the kernel would call it Inside.
    - rho_out = s * max_v r(v), s = 1 + 2*eps_q / d_min, with r^2(v)
      from radius2, the queries' own arithmetic.  The ellipse
      r <= max_v r(v) is convex and holds every vertex, so it holds the
      shape, and r <= rho_out holds the shape scaled by s about x_t.  A
      point q with r^2 > outer2 is x_t + t (e - x_t), with e where its ray
      from x_t leaves the shape and t > s.  Its bucket lists the plane f of
      that exit, and plane f at q is -(t - 1) depth_f < -(s - 1) d_min =
      -2*eps_q, so the kernel would call it Outside.

    Both bounds keep 2*eps_q where the kernel needs eps_q: the other eps_q
    absorbs the rounding of r^2, of the bounds and of the kernel's plane
    evaluation.  s is made from d_min - eps_len, a lower bound on the least
    depth, so that rounding does not make s too small.

    The covariance frame is kept only if its inner ellipse holds the ball
    of radius 2*eps_len about x_t (rho_in >= 2*eps_len*|L|_F, the Frobenius
    norm bounding L^T's largest stretch), so every point within eps_len of
    x_t, which has no direction, is Inside before any bucket map.  A
    sliver, where rho_in <= 0, keeps the identity frame instead, with
    rho_in the radius of the ball about x_t that lies 2*eps_q inside every
    plane, never below eps_len.
    """

    poly: ConvexPolygon | ConvexPolyhedron
    x_t: np.ndarray
    inbox_lo: tuple = field(init=False)
    inbox_hi: tuple = field(init=False)
    x_t_floats: tuple = field(init=False)
    L_floats: tuple = field(init=False)
    inner2: float = field(init=False)
    outer2: float = field(init=False)

    def __post_init__(self):
        poly = self.poly
        box, tol, dim = poly.aabb, poly.tol, poly.dim
        depth = plane_eval(poly.planes, self.x_t)
        d_min = float(depth.min())
        lower, u = covariance_frame(poly.vertices - self.x_t)
        # |L^-1 n_i| = |U^T n_i|, and the Frobenius norm |L|_F.
        reach = np.sqrt(row_norm2(poly.planes[:, :dim] @ u))
        rho_in = float(((depth - 2.0 * tol.eps_q) / reach).min())
        if not rho_in >= 2.0 * tol.eps_len * math.sqrt(sum(x * x for x in lower)):
            lower = tuple(float(j == k) for k in range(dim) for j in range(k, dim))
            rho_in = max(tol.eps_len, d_min - 2.0 * tol.eps_q)
        s = 1.0 + 2.0 * tol.eps_q / (d_min - tol.eps_len)
        # The dataclass is frozen; these fields derive from poly and x_t,
        # and outer2 from radius2, which reads x_t_floats and L_floats.
        for name, value in (("inbox_lo", tuple((box.lo - tol.eps_q).tolist())),
                            ("inbox_hi", tuple((box.hi + tol.eps_q).tolist())),
                            ("x_t_floats", tuple(self.x_t.tolist())), ("L_floats", lower),
                            ("inner2", rho_in * rho_in)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "outer2", s * s * float(self.radius2(poly.vertices).max()))

    def radius2(self, pts: np.ndarray) -> np.ndarray:
        """r^2 = |L^T (q - x_t)|^2 of each row q of an (M, dim) array, in
        any dimension, with locate_radial's arithmetic: row k of L^T
        (column k of L, the next entries of L_floats) times q - x_t, summed
        left to right, then the squares of the rows summed in order.  One
        column at a time and in place: every fresh array of a large batch
        costs page faults, and every numpy call on a small one costs its
        overhead.  A coordinate near 1e300 overflows to inf and a
        non-finite one gives inf or NaN, with numpy's warnings for it left
        to the caller."""
        d = [pts[:, k] - t for k, t in enumerate(self.x_t_floats)]
        coef = iter(self.L_floats)
        for k, u in enumerate(d):
            u *= next(coef)
            for w in d[k + 1:]:
                u += w * next(coef)
        r2, *rest = d
        r2 *= r2
        for u in rest:
            u *= u
            r2 += u
        return r2


def locate_radial(idx: RadialIndex, p, counter: EvalCounter | None = None) -> Containment:
    """O(1) classification of one point through a direction-bucket index
    around its strictly interior reference point idx.x_t.

    A point with r^2 <= idx.inner2 in the index's frame is Inside and one
    with r^2 > idx.outer2, or a non-finite coordinate, is Outside, both
    without any plane evaluation; so is a point outside the shape's
    bounding box (beyond the eps_q band).  Any other point q (a list of
    floats), in the annulus between the two, is classified by the minimal
    signed distance over the planes listed in its bucket
    idx.bucket_of_floats(q); counter.evals grows by their number.  Same
    policy and arithmetic as locate_radial_batch; the only per-call
    conversion is that of p, and each listed plane coefficient is read with
    planes.item.  Raises query_point's ValueError for anything but one point.
    """
    shape = idx.poly
    q = query_point(p, shape.dim)
    # Products, not **: a Python float power raises on overflow, a product is inf.
    if len(q) == 2:
        (x, y), (tx, ty), (a, b, c) = q, idx.x_t_floats, idx.L_floats
        u = a * (x - tx) + b * (y - ty)
        w = c * (y - ty)
        r2 = u * u + w * w
    else:
        (x, y, z), (tx, ty, tz), (a, b, c, e, f, g) = q, idx.x_t_floats, idx.L_floats
        u = a * (x - tx) + b * (y - ty) + c * (z - tz)
        v = e * (y - ty) + f * (z - tz)
        w = g * (z - tz)
        r2 = u * u + v * v + w * w
    if r2 <= idx.inner2:
        return Containment.INSIDE
    if not r2 <= idx.outer2:
        return Containment.OUTSIDE
    for c, lo, hi in zip(q, idx.inbox_lo, idx.inbox_hi):
        if not lo <= c <= hi:
            return Containment.OUTSIDE
    b = idx.bucket_of_floats(q)
    listed = idx.padded_edges[b, :idx.counts.item(b)].tolist()
    if counter is not None:
        counter.evals += len(listed)
    coef = shape.planes.item
    if len(q) == 2:
        m = min([coef(i, 0) * x + coef(i, 1) * y + coef(i, 2) for i in listed])
    else:
        m = min([coef(i, 0) * x + coef(i, 1) * y + coef(i, 2) * z + coef(i, 3)
                 for i in listed])
    return classify_min(m, shape.tol.eps_q)


def locate_radial_batch(idx: RadialIndex, points) -> np.ndarray:
    """Batch form of locate_radial: int8 Containment codes, one per point.
    r^2 (idx.radius2) is computed over the whole batch: a point with
    r^2 <= idx.inner2 is Inside, and every other point Outside unless it
    lies in the annulus r^2 <= idx.outer2.  Only the annulus points go on
    to the box test, the shape's Aabb.contains with pad eps_q (the bounds
    of locate_radial's inbox_lo and inbox_hi), and idx.bucket_of maps
    those in the box to their buckets.  Raises query_points' ValueError for
    points of another dimension."""
    shape = idx.poly
    eps_q = shape.tol.eps_q
    pts = query_points(points, shape.dim)
    # A coordinate near 1e300 squares to inf, which lies past outer2; a
    # non-finite one gives inf or NaN, which lies in neither bound.
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = idx.radius2(pts)
    deep = r2 <= idx.inner2
    out = deep.view(np.int8) * 2 - 1
    annulus = r2 <= idx.outer2
    annulus ^= deep
    # Row ids, take and compress: numpy selects by boolean index slowly.
    rows = np.flatnonzero(annulus)
    if not len(rows):
        return out
    rows = rows.compress(shape.aabb.contains(pts.take(rows, axis=0), pad=eps_q))
    q = pts.take(rows, axis=0)
    out[rows] = classify_min(bucketed_min(shape.planes, idx, idx.bucket_of(q), q), eps_q)
    return out
