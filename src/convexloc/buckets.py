"""Bucket tables, the one format behind polar slabs, the cube map and
uniform y-slabs.

A bucketed index maps a query to one bucket (a slab or a cube-map cell)
and evaluates only the planes listed for that bucket.  The lists are kept
in CSR layout (offsets, items, counts) and, for batch queries, as a padded
gather table.  This module builds both, clamps bucket budgets to their
caps, and holds the batch kernel that takes the minimal signed distance
over a bucket's planes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import CapExceeded, Containment, classify_min


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
    the same arithmetic as the scalar locators' loops.
    """
    hc = planes[padded[bucket_ids]]
    dim = q.shape[1]
    vals = hc[..., 0] * q[:, None, 0]
    for k in range(1, dim):
        vals += hc[..., k] * q[:, None, k]
    vals += hc[..., dim]
    return vals.min(axis=1)


def locate_radial_batch(shape, planes: np.ndarray, x_t: np.ndarray, padded: np.ndarray,
                        points, bucket_of) -> np.ndarray:
    """Batch classification through a direction-bucket index around x_t.

    Points outside the shape's bounding box (beyond the eps_q band), and
    points with a non-finite coordinate, are Outside without any plane
    evaluation; points within eps_len of x_t are Inside by construction.
    bucket_of(q) maps the remaining points to their bucket ids.
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
