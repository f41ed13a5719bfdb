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
bucket of a point (bucket_of_floats) or of many (bucket_of).
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
    clamp is reported.  Raises ValueError when n < 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"{what} must be >= 1")
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


def near(points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    """Mask of the points within r of center, summed column by column: numpy sums rows slowly."""
    dist2 = (points[:, 0] - center[0]) ** 2
    for k in range(1, points.shape[1]):
        dist2 += (points[:, k] - center[k]) ** 2
    return dist2 <= r ** 2


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


def reference_point(shape, x_t=None) -> np.ndarray:
    """Read-only copy of the reference point x_t of a direction-bucket index,
    by default the shape's vertex mean.  Raises ValueError unless x_t has
    the shape (dim,) of the shape's points, and ReferenceNotInterior unless
    every plane evaluates above eps_q there, so also for a non-finite x_t."""
    x_t = np.array(centroid(shape) if x_t is None else x_t, dtype=float)
    dim = shape.planes.shape[1] - 1
    if x_t.shape != (dim,):
        raise ValueError(f"reference point must have shape ({dim},), got {x_t.shape}")
    # inf gives NaN (0 * inf) or -inf; the negated test also rejects NaN.
    with np.errstate(invalid="ignore"):
        m = float(plane_eval(shape.planes, x_t).min())
    if not m > shape.tol.eps_q:
        raise ReferenceNotInterior("reference point must be strictly inside")
    x_t.setflags(write=False)
    return x_t


@dataclass(frozen=True)
class RadialIndex(BucketTable):
    """A bucket table of the directions from x_t, a strictly interior
    reference point (reference_point) of the validated shape poly: the base
    of PolarIndex2 and CubeMapIndex3, which map points to buckets with
    bucket_of (numpy) and bucket_of_floats (one point as Python floats).

    Construction also makes the box test and the reference point of
    locate_radial, once and in Python floats: inbox_lo and inbox_hi, the
    shape's bounding box grown by eps_q on every side, and x_t_floats.
    eps_len and eps_q it reads from poly.tol, which holds them as floats.
    """

    poly: ConvexPolygon | ConvexPolyhedron
    x_t: np.ndarray
    inbox_lo: tuple = field(init=False)
    inbox_hi: tuple = field(init=False)
    x_t_floats: tuple = field(init=False)

    def __post_init__(self):
        box, eps_q = self.poly.aabb, self.poly.tol.eps_q
        # The dataclass is frozen; these fields derive from poly and x_t.
        object.__setattr__(self, "inbox_lo", tuple((box.lo - eps_q).tolist()))
        object.__setattr__(self, "inbox_hi", tuple((box.hi + eps_q).tolist()))
        object.__setattr__(self, "x_t_floats", tuple(self.x_t.tolist()))

    def bucket_of_point(self, p) -> int:
        """Bucket of the direction x_t -> p for one point p; raises
        query_point's ValueError for anything else."""
        return self.bucket_of_floats(query_point(p, len(self.x_t_floats)))


def locate_radial(idx: RadialIndex, p, counter: EvalCounter | None = None) -> Containment:
    """O(1) classification of one point through a direction-bucket index
    around its strictly interior reference point idx.x_t.

    A point outside the shape's bounding box (beyond the eps_q band), or
    with a non-finite coordinate, is Outside without any plane evaluation;
    a point within eps_len of x_t is Inside by construction.  Any other
    point q (a list of floats) is classified by the minimal signed distance
    over the planes listed in its bucket idx.bucket_of_floats(q);
    counter.evals grows by their number.  Same policy and arithmetic as
    locate_radial_batch; the only per-call conversion is that of p, and
    each listed plane coefficient is read with planes.item.  Raises
    query_point's ValueError for anything but one point.
    """
    x_t = idx.x_t_floats
    q = query_point(p, len(x_t))
    for c, lo, hi in zip(q, idx.inbox_lo, idx.inbox_hi):
        if not lo <= c <= hi:
            return Containment.OUTSIDE
    shape = idx.poly
    if math.dist(q, x_t) <= shape.tol.eps_len:
        return Containment.INSIDE
    b = idx.bucket_of_floats(q)
    listed = idx.padded_edges[b, :idx.counts.item(b)].tolist()
    if counter is not None:
        counter.evals += len(listed)
    coef = shape.planes.item
    if len(q) == 2:
        x, y = q
        m = min([coef(i, 0) * x + coef(i, 1) * y + coef(i, 2) for i in listed])
    else:
        x, y, z = q
        m = min([coef(i, 0) * x + coef(i, 1) * y + coef(i, 2) * z + coef(i, 3)
                 for i in listed])
    return classify_min(m, shape.tol.eps_q)


def locate_radial_batch(idx: RadialIndex, points) -> np.ndarray:
    """Batch form of locate_radial: int8 Containment codes, one per point;
    idx.bucket_of maps the points that reach the planes to their buckets.
    Raises query_points' ValueError for points of another dimension."""
    shape = idx.poly
    eps_q = shape.tol.eps_q
    pts = query_points(points, len(idx.x_t))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    # Row ids and take: numpy compresses 2-D arrays by boolean rows slowly.
    inbox = np.flatnonzero(shape.aabb.contains(pts, pad=eps_q))
    sub = pts.take(inbox, axis=0)
    far = np.flatnonzero(~near(sub, idx.x_t, shape.tol.eps_len))
    q = sub.take(far, axis=0)
    out[inbox] = np.int8(Containment.INSIDE)
    out[inbox[far]] = classify_min(bucketed_min(shape.planes, idx, idx.bucket_of(q), q), eps_q)
    return out
