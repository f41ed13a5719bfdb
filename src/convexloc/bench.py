"""Benchmark harness: build/query timing and cross-method verification.

Timing methodology (single-threaded, perf_counter_ns):

- build_ns is the median build wall time over the requested repetitions;
- queries run through the batch code paths in chunks of 1024 points after
  one untimed warmup pass; mean_query_ns is the median over repetitions of
  total elapsed time divided by the point count; p99_query_ns is the 99th
  percentile of per-chunk mean query times, which bounds tail behaviour at
  chunk granularity rather than per-call (per-call timers would measure
  mostly timer overhead at these speeds);
- mismatches is computed untimed against the linear scan, counting only
  disagreements farther than 2 * eps_q from the boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import (build_sorted_slabs, build_uniform_slabs,
                        build_wedge_index, locate_linear_2d_batch,
                        locate_linear_3d_batch, locate_sorted_slabs_batch,
                        locate_uniform_slabs_batch, locate_wedge_batch)
from .core import ConvexPolygon, ConvexPolyhedron
from .cubemap import build_cubemap_index, locate_cubemap_batch
from .generators import compare_methods
from .polar import build_polar_index, locate_polar_batch

CSV_HEADER = "method,N,M,build_ns,mean_query_ns,p99_query_ns,max_occupancy,mismatches"


# (dimension, method name) -> (build(shape, n_slabs, resolution) -> index,
# locate_batch(index, points) -> int8 codes); a linear scan's index is the shape.
METHODS = {
    (2, "linear"): (lambda s, n, r: s, locate_linear_2d_batch),
    (2, "wedge"): (lambda s, n, r: build_wedge_index(s), locate_wedge_batch),
    (2, "slabs-sorted"): (lambda s, n, r: build_sorted_slabs(s), locate_sorted_slabs_batch),
    (2, "slabs-uniform"): (lambda s, n, r: build_uniform_slabs(s, n),
                           locate_uniform_slabs_batch),
    (2, "polar"): (lambda s, n, r: build_polar_index(s, n), locate_polar_batch),
    (3, "linear"): (lambda s, n, r: s, locate_linear_3d_batch),
    (3, "cubemap"): (lambda s, n, r: build_cubemap_index(s, r), locate_cubemap_batch),
}
METHODS_2D = tuple(name for dim, name in METHODS if dim == 2)
METHODS_3D = tuple(name for dim, name in METHODS if dim == 3)

QUERY_CHUNK = 1024


@dataclass(frozen=True)
class BenchRecord:
    method: str
    N: int
    M: int
    build_ns: int
    mean_query_ns: int
    p99_query_ns: int
    max_occupancy: int
    mismatches: int

    def csv_row(self) -> str:
        return (f"{self.method},{self.N},{self.M},{self.build_ns},"
                f"{self.mean_query_ns},{self.p99_query_ns},"
                f"{self.max_occupancy},{self.mismatches}")


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER, *(r.csv_row() for r in records)]) + "\n"


def make_locator(shape, method: str, n_slabs: int | None = None,
                 resolution: int | None = None):
    """Zero-argument builder for (batch_query_fn, max_occupancy).

    max_occupancy is 0 for methods without bucket lists.  Raises ValueError
    for an unknown method or one that does not apply to the shape's
    dimension.
    """
    dim = {ConvexPolygon: 2, ConvexPolyhedron: 3}.get(type(shape))
    if dim is None:
        raise ValueError(f"unsupported shape type {type(shape).__name__}")
    if (dim, method) not in METHODS:
        names = METHODS_2D if dim == 2 else METHODS_3D
        raise ValueError(f"unknown {dim}D method {method!r}; pick from {names}")
    build_index, locate_batch = METHODS[(dim, method)]

    def build():
        idx = build_index(shape, n_slabs, resolution)
        return (lambda pts: locate_batch(idx, pts)), getattr(idx, "max_occupancy", 0)
    return build


def _size_of(shape) -> int:
    return shape.n if isinstance(shape, ConvexPolygon) else shape.n_faces


def time_queries(query_fn, points, reps: int, chunk: int = QUERY_CHUNK):
    """(mean_query_ns, p99_query_ns) over reps repetitions; one warmup."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m == 0:
        raise ValueError("bench needs a non-empty query point set")
    query_fn(pts[:min(m, chunk)])
    means = []
    chunk_means = []
    for _ in range(reps):
        total = 0
        for s in range(0, m, chunk):
            e = min(s + chunk, m)
            t0 = time.perf_counter_ns()
            query_fn(pts[s:e])
            dt = time.perf_counter_ns() - t0
            total += dt
            chunk_means.append(dt / (e - s))
        means.append(total / m)
    return float(np.median(means)), float(np.percentile(chunk_means, 99))


def bench_one(shape, method: str, points, reps: int = 3,
              n_slabs: int | None = None, resolution: int | None = None) -> BenchRecord:
    builder = make_locator(shape, method, n_slabs=n_slabs, resolution=resolution)
    build_times = []
    query_fn = None
    occ = 0
    for _ in range(max(1, reps)):
        t0 = time.perf_counter_ns()
        query_fn, occ = builder()
        build_times.append(time.perf_counter_ns() - t0)
    mean_ns, p99_ns = time_queries(query_fn, points, max(1, reps))

    if method == "linear":
        mismatches = 0
    else:
        linear_fn, _ = make_locator(shape, "linear")()
        report = compare_methods(shape, points,
                                 {"linear": linear_fn, method: query_fn})
        mismatches = report.n_mismatches
    return BenchRecord(method=method, N=_size_of(shape), M=len(points),
                       build_ns=int(np.median(build_times)),
                       mean_query_ns=int(round(mean_ns)),
                       p99_query_ns=int(round(p99_ns)),
                       max_occupancy=occ, mismatches=mismatches)
