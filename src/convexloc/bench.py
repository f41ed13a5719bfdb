"""Benchmark harness: build/query timing and cross-method verification.

Timing methodology (single-threaded, perf_counter_ns):

- build_ns is the fastest build wall time over the requested repetitions;
- queries run through the batch code paths in chunks of 1024 points after
  one untimed warmup pass; mean_query_ns is the fastest repetition's total
  elapsed time divided by the point count; p99_query_ns is the 99th
  percentile of per-chunk mean query times, which bounds tail behaviour at
  chunk granularity rather than per-call (per-call timers would measure
  mostly timer overhead at these speeds);
- the fastest repetition, not the median, because a host that changes
  speed between repetitions only ever slows one down: the fastest is the
  one least disturbed;
- mismatches is counted against one untimed linear scan per shape, whose
  codes every method of the shape shares; only disagreements farther than
  2 * eps_q from the boundary count.

METHODS names each method's builder and batch locator by module and
attribute, and make_locator imports that module when it is called.  So
importing this module imports no index module, and a `convexloc locate`
loads only the one index module that its method uses.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

import numpy as np

# (dimension, method name) -> (module, builder, batch locator), the last two
# attribute names in the module: build(shape) -> index and
# locate_batch(index, points) -> int8 codes.  A linear scan has no builder;
# its index is the shape.  Every bucket budget is derived from the shape.
METHODS = {
    (2, "linear"): ("baselines", None, "locate_linear_2d_batch"),
    (2, "wedge"): ("baselines", "build_wedge_index", "locate_wedge_batch"),
    (2, "slabs-sorted"): ("baselines", "build_sorted_slabs", "locate_sorted_slabs_batch"),
    (2, "slabs-uniform"): ("baselines", "build_uniform_slabs", "locate_uniform_slabs_batch"),
    (2, "polar"): ("polar", "build_polar_index", "locate_polar_batch"),
    (3, "linear"): ("baselines", None, "locate_linear_3d_batch"),
    (3, "cubemap"): ("cubemap", "build_cubemap_index", "locate_cubemap_batch"),
}
METHODS_2D = tuple(name for dim, name in METHODS if dim == 2)
METHODS_3D = tuple(name for dim, name in METHODS if dim == 3)

QUERY_CHUNK = 1024


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the fields, in order, are the columns."""

    method: str
    N: int
    M: int
    build_ns: int
    mean_query_ns: int
    p99_query_ns: int
    max_occupancy: int
    mismatches: int

    def csv_row(self) -> str:
        return ",".join(map(str, dataclasses.astuple(self)))


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(BenchRecord))


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER, *(r.csv_row() for r in records)]) + "\n"


def make_locator(shape, method: str):
    """Zero-argument builder for (batch_query_fn, max_occupancy).

    max_occupancy is 0 for methods without bucket lists.  Raises ValueError
    for an unknown method or one that does not apply to the shape's
    dimension.
    """
    dim = getattr(shape, "dim", None)
    if dim is None:
        raise ValueError(f"unsupported shape type {type(shape).__name__}")
    if (dim, method) not in METHODS:
        names = METHODS_2D if dim == 2 else METHODS_3D
        raise ValueError(f"unknown {dim}D method {method!r}; pick from {names}")
    module_name, build_name, locate_name = METHODS[(dim, method)]
    module = importlib.import_module(f".{module_name}", __package__)
    build_index = getattr(module, build_name) if build_name else (lambda s: s)
    locate_batch = getattr(module, locate_name)

    def build():
        idx = build_index(shape)
        return (lambda pts: locate_batch(idx, pts)), getattr(idx, "max_occupancy", 0)
    return build


def time_queries(query_fn, points, reps: int):
    """(mean_query_ns, p99_query_ns) over reps repetitions, the mean from
    the fastest one; one warmup."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m == 0:
        raise ValueError("bench needs a non-empty query point set")
    query_fn(pts[:min(m, QUERY_CHUNK)])
    means = []
    chunk_means = []
    for _ in range(reps):
        total = 0
        for s in range(0, m, QUERY_CHUNK):
            e = min(s + QUERY_CHUNK, m)
            t0 = time.perf_counter_ns()
            query_fn(pts[s:e])
            dt = time.perf_counter_ns() - t0
            total += dt
            chunk_means.append(dt / (e - s))
        means.append(total / m)
    return min(means), float(np.percentile(chunk_means, 99))


def bench_one(shape, method: str, points, reference, reps: int = 3) -> BenchRecord:
    """Time one method on a shape; count its mismatches against reference,
    the codes of an untimed linear scan of the same points."""
    from .generators import compare_methods

    if reps < 1:
        raise ValueError(f"bench needs at least one repetition, got {reps}")
    builder = make_locator(shape, method)
    build_times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        query_fn, occ = builder()
        build_times.append(time.perf_counter_ns() - t0)
    mean_ns, p99_ns = time_queries(query_fn, points, reps)
    report = compare_methods(shape, points,
                             {"reference": lambda _: reference, method: query_fn})
    return BenchRecord(method=method, N=len(shape.planes), M=len(points),
                       build_ns=min(build_times),
                       mean_query_ns=int(round(mean_ns)),
                       p99_query_ns=int(round(p99_ns)),
                       max_occupancy=occ, mismatches=report.n_mismatches)
