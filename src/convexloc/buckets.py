"""Bucket tables, the one format behind polar slabs, the cube map, wedges
and y-slabs, and the query path of the direction-bucket indexes.

A bucketed index maps a query to one bucket (a slab, a cube-map cell or
a wedge) and evaluates only the planes listed for that bucket.  The lists
are kept in CSR layout (offsets, items, counts) and, for batch queries, as a padded
gather table.  This module builds both, clamps bucket budgets to their
caps, and holds the batch kernel that takes the minimal signed distance
over a bucket's planes.  The polar and cube-map locators answer through
locate_radial (one point, Python floats) and locate_radial_batch (numpy),
which apply the same policy with the same plane arithmetic.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import CapExceeded, Containment, EvalCounter, classify_min


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


def csr_sort(bucket_ids: np.ndarray, item_ids: np.ndarray, n_buckets: int):
    """(offsets, items, counts) of (bucket, item) pairs, items kept in input
    order within a bucket."""
    counts = np.bincount(bucket_ids, minlength=n_buckets)
    offsets = np.empty(n_buckets + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(bucket_ids, kind="stable")
    return offsets, item_ids[order].astype(np.int32), counts.astype(np.int32)


def run_expand(starts: np.ndarray, counts: np.ndarray):
    """Per-run aranges: run j contributes starts[j] + (0..counts[j]-1)."""
    total = int(counts.sum())
    first = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return np.repeat(starts, counts) + within


def padded_table(offsets: np.ndarray, items: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n, occ_max) gather table; short rows repeat their first entry, which
    leaves min-reductions over the row unchanged."""
    n = len(counts)
    occ = int(counts.max())
    padded = np.repeat(items[offsets[:-1]], occ).reshape(n, occ)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    cols = np.arange(len(items), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    padded[rows, cols] = items
    padded.setflags(write=False)
    return padded


def bucketed_min(planes: np.ndarray, padded: np.ndarray, bucket_ids, q: np.ndarray) -> np.ndarray:
    """Minimal signed distance of each point q[k] over the planes listed in
    bucket bucket_ids[k] of the padded table.

    Each plane is evaluated as a*x + b*y (+ c*z) + d, summed left to right,
    the same arithmetic as the candidate loop of locate_radial.
    """
    hc = planes[padded[bucket_ids]]
    dim = q.shape[1]
    vals = hc[..., 0] * q[:, None, 0]
    for k in range(1, dim):
        vals += hc[..., k] * q[:, None, k]
    vals += hc[..., dim]
    return vals.min(axis=1)


def locate_radial(shape, planes: np.ndarray, x_t: np.ndarray, p, candidates,
                  counter: EvalCounter | None = None) -> Containment:
    """O(1) classification of one point through a direction-bucket index
    around the strictly interior reference point x_t.

    A point outside the shape's bounding box (beyond the eps_q band), or
    with a non-finite coordinate, is Outside without any plane evaluation;
    a point within eps_len of x_t is Inside by construction.  Any other
    point q (a list of floats) is classified by the minimal signed distance
    over the planes candidates(q) lists for its bucket; counter.evals grows
    by their number.  Same policy and arithmetic as locate_radial_batch.
    """
    eps_q = shape.tol.eps_q
    q = [float(c) for c in p]
    for c, lo, hi in zip(q, shape.aabb.lo.tolist(), shape.aabb.hi.tolist()):
        if not lo - eps_q <= c <= hi + eps_q:
            return Containment.OUTSIDE
    if math.dist(q, x_t.tolist()) <= shape.tol.eps_len:
        return Containment.INSIDE
    listed = candidates(q)
    if counter is not None:
        counter.evals += len(listed)
    if len(q) == 2:
        x, y = q
        m = min([a * x + b * y + d for a, b, d in planes[listed].tolist()])
    else:
        x, y, z = q
        m = min([a * x + b * y + c * z + d for a, b, c, d in planes[listed].tolist()])
    return classify_min(m, eps_q)


def locate_radial_batch(shape, planes: np.ndarray, x_t: np.ndarray, padded: np.ndarray,
                        points, bucket_of) -> np.ndarray:
    """Batch form of locate_radial: int8 Containment codes, one per point.

    bucket_of(q) maps the points that reach the planes to their bucket ids.
    """
    eps_q = shape.tol.eps_q
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    inbox = shape.aabb.contains(pts, pad=eps_q)
    sub = pts[inbox]
    far = ((sub - x_t) ** 2).sum(axis=1) > shape.tol.eps_len ** 2
    codes = np.full(len(sub), np.int8(Containment.INSIDE))
    q = sub[far]
    codes[far] = classify_min(bucketed_min(planes, padded, bucket_of(q), q), eps_q)
    out[inbox] = codes
    return out
