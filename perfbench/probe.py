"""Per-module metrics of the traced run.

Each module is measured from outside, by timing calls into its public
functions on the inputs of the workload whose end-to-end metric it should
move; every measurement sits inside a span named after the module.  Tiny
calls are timed one by one under one span per group, so the span's own cost
stays out of their numbers.
"""

from __future__ import annotations

import itertools
import subprocess
import time

import numpy as np

from convexloc import (Aabb, QuerySpec, boundary_param_batch, build_cubemap_index,
                       build_polar_index, build_sorted_slabs, cli, cubemap_cell,
                       gen_query_points, load_shape, locate_cubemap,
                       locate_cubemap_batch, locate_linear_2d_batch,
                       locate_polar, locate_polar_batch,
                       locate_sorted_slabs_batch, parse_points_file,
                       project_face_conservative, validate_polygon,
                       validate_polyhedron)

from .workloads import (CLI_TIMEOUT_S, CliLocate, PolarBatch, cubemap_index_bytes,
                        polar_index_bytes, raw_polyhedron, sub_seeds, timed)

SWEEP = (1, 1024, 65536, 1048576)   # batch sizes; 1024 is the CSV bench's chunk
SCALAR_CALLS = 2000
FACE_SAMPLE = 256
CELL_SAMPLE = 2048


def repeat_ns(fn, min_reps: int = 3, min_s: float = 0.2) -> np.ndarray:
    """Call fn until both min_reps calls and min_s seconds are reached."""
    times = []
    deadline = time.perf_counter() + min_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return np.asarray(times, dtype=float)


def scalar_us(fn, idx, rows) -> float:
    times = np.empty(len(rows))
    for k, p in enumerate(rows):
        t0 = time.perf_counter_ns()
        fn(idx, p)
        times[k] = time.perf_counter_ns() - t0
    return float(np.median(times)) / 1e3


def probe_polar(w: PolarBatch, seed: int, tr) -> dict:
    m = {}
    with tr.span("core.validate_polygon"):
        dt, poly = timed(validate_polygon, w.raw)
    m["core.validate_s"] = (dt, "s")

    def build():
        idx = build_polar_index(poly)
        idx.padded_edges
        return idx
    with tr.span("polar.build_polar_index"):
        ns = repeat_ns(build, min_s=0.0)
        idx = build()
    m["polar.build_s"] = (float(np.median(ns)) / 1e9, "s")
    width = idx.padded_edges.shape[1]
    m["polar.n_slabs"] = (idx.n_slabs, "count")
    m["polar.max_occupancy"] = (idx.max_occupancy, "count")
    m["polar.mean_occupancy"] = (idx.mean_occupancy, "count")
    m["polar.index_bytes"] = (polar_index_bytes(idx), "B")

    pts = w.points
    inbox = poly.aabb.contains(pts, pad=poly.tol.eps_q)
    sub = pts[inbox]
    m["polar.inbox_frac"] = (float(inbox.mean()), "frac")
    m["polar.evals_per_point"] = (width * int(inbox.sum()) / len(pts), "count")
    with tr.span("polar.boundary_param_batch"):
        ns = repeat_ns(lambda: boundary_param_batch(idx.box, idx.x_t, sub))
        u = boundary_param_batch(idx.box, idx.x_t, sub)
    m["polar.boundary_param_ns_per_point"] = (float(np.median(ns)) / len(sub), "ns")
    m["polar.useful_eval_ratio"] = (float(idx.counts[idx.slab_of(u)].mean()) / width,
                                    "frac")

    seeds = sub_seeds(seed, "probe-polar", len(SWEEP) + 1)
    with tr.span("polar.locate_polar_batch"):
        for b, s in zip(SWEEP, seeds):
            # small batches cycle through many points, so no single point's
            # path (say, the early exit outside the box) decides the median
            n = max(1, SCALAR_CALLS // b)
            pool = gen_query_points(poly.aabb, QuerySpec(n * b, s))
            batches = itertools.cycle([pool[k * b:(k + 1) * b] for k in range(n)])
            ns = repeat_ns(lambda: locate_polar_batch(idx, next(batches)),
                           min_reps=max(3, n))
            m[f"polar.batch_ns_per_point.b{b}"] = (float(np.median(ns)) / b, "ns")
    rows = list(gen_query_points(poly.aabb, QuerySpec(SCALAR_CALLS, seeds[-1], inflation=1.05)))
    with tr.span("polar.locate_polar"):
        m["polar.scalar_us"] = (scalar_us(locate_polar, idx, rows), "us")

    with tr.span("baselines.locate_linear_2d_batch"):
        few = pts[:4096]
        ns = repeat_ns(lambda: locate_linear_2d_batch(poly, few))
    m["baselines.linear_ns_per_point"] = (float(np.median(ns)) / len(few), "ns")
    with tr.span("baselines.build_sorted_slabs"):
        sidx = build_sorted_slabs(poly)
    with tr.span("baselines.locate_sorted_slabs_batch"):
        ns = repeat_ns(lambda: locate_sorted_slabs_batch(sidx, pts))
    m["baselines.sorted_slabs_ns_per_point"] = (float(np.median(ns)) / len(pts), "ns")
    return m


def probe_cubemap(sz, seed: int, tr) -> dict:
    """On a level sz.cube_level icosphere under its random affine map, with
    a batch uniform over the 1.5x AABB."""
    m = {}
    s_shape, s_pts, s_rows = sub_seeds(seed, "probe-cubemap", 3)
    raw = raw_polyhedron(sz.cube_level, s_shape)
    pts = gen_query_points(Aabb.of_points(raw[0]), QuerySpec(sz.batch, s_pts))
    with tr.span("core.validate_polyhedron"):
        dt, poly = timed(validate_polyhedron, *raw)
    m["core.validate_polyhedron_s"] = (dt, "s")

    def build():
        idx = build_cubemap_index(poly)
        idx.padded_faces
        return idx
    with tr.span("cubemap.build_cubemap_index"):
        dt, idx = timed(build)
    m["cubemap.build_s"] = (dt, "s")
    faces = poly.faces[::max(1, poly.n_faces // FACE_SAMPLE)][:FACE_SAMPLE]
    rings = [poly.vertices[list(ring)] for ring in faces]
    with tr.span("cubemap.project_face_conservative"):
        t0 = time.perf_counter_ns()
        for ring in rings:
            project_face_conservative(ring, idx.x_t, idx.resolution,
                                      eps_len=poly.tol.eps_len)
        m["cubemap.project_face_us"] = ((time.perf_counter_ns() - t0) / 1e3 / len(rings),
                                        "us")
    width = idx.padded_faces.shape[1]
    m["cubemap.resolution"] = (idx.resolution, "count")
    m["cubemap.max_occupancy"] = (idx.max_occupancy, "count")
    m["cubemap.mean_occupancy"] = (idx.mean_occupancy, "count")
    m["cubemap.index_bytes"] = (cubemap_index_bytes(idx), "B")

    inbox = poly.aabb.contains(pts, pad=poly.tol.eps_q)
    m["cubemap.evals_per_point"] = (width * int(inbox.sum()) / len(pts), "count")
    r = idx.resolution
    with tr.span("cubemap.cubemap_cell"):
        cells = [cubemap_cell(idx.x_t, r, p, eps_len=poly.tol.eps_len)
                 for p in pts[inbox][:CELL_SAMPLE]]
    flat = [(f * r + i) * r + j for f, i, j in cells]
    m["cubemap.useful_eval_ratio"] = (float(idx.counts[flat].mean()) / width, "frac")
    with tr.span("cubemap.locate_cubemap_batch"):
        ns = repeat_ns(lambda: locate_cubemap_batch(idx, pts))
    m["cubemap.batch_ns_per_point"] = (float(np.median(ns)) / len(pts), "ns")
    rows = list(gen_query_points(poly.aabb, QuerySpec(SCALAR_CALLS, s_rows, inflation=1.05)))
    with tr.span("cubemap.locate_cubemap"):
        m["cubemap.scalar_us"] = (scalar_us(locate_cubemap, idx, rows), "us")
    return m


def probe_cli(w: CliLocate, tr, reps: int = 9) -> dict:
    """cli.main_s in process; format = main - parse - load - build - query.

    The parts are timed in turn within each of reps rounds and the format
    time is the median of the per-round differences, so that slow drifts of
    the host cancel out of the difference.
    """
    parse = tr.wrap("io.parse_points_file", parse_points_file)
    load = tr.wrap("io.load_shape", load_shape)
    build = tr.wrap("polar.build_polar_index", build_polar_index)
    query = tr.wrap("polar.locate_polar_batch", locate_polar_batch)
    main = tr.wrap("cli.main", cli.main)
    spawn = tr.wrap("cli.subprocess", subprocess.run)
    rounds = []
    for _ in range(reps):
        t_parse, pts = timed(parse, w.points_path)
        t_load, shape = timed(load, w.shape_path)
        t_build, idx = timed(build, shape)
        t_query, _ = timed(query, idx, pts)     # also builds the padded table
        t_main, rc = timed(main, w.argv)
        t_spawn, proc = timed(lambda: spawn(w.cmd, env=w.env, cwd=w.workdir,
                                            stdout=subprocess.DEVNULL,
                                            stderr=subprocess.PIPE,
                                            timeout=CLI_TIMEOUT_S))
        if rc != 0 or proc.returncode != 0:
            raise RuntimeError(f"convexloc locate failed: in process {rc}, "
                               f"subprocess {proc.returncode}")
        rounds.append((t_parse, t_load, t_main, t_main - t_parse - t_load - t_build - t_query,
                       t_spawn - t_main))
    med = np.median(np.asarray(rounds), axis=0)
    return {"io.parse_points_s": (float(med[0]), "s"),
            "io.load_shape_s": (float(med[1]), "s"),
            "cli.main_s": (float(med[2]), "s"),
            "cli.format_s": (float(med[3]), "s"),
            "cli.startup_s": (float(med[4]), "s")}


def probe(seed: int, sz, workdir: str, tr, have: dict) -> dict:
    """Every per-module metric; have maps workload name -> inputs already made."""
    w = {cls.name: have.get(cls.name) or cls(seed, sz, workdir)
         for cls in (PolarBatch, CliLocate)}
    m = probe_polar(w[PolarBatch.name], seed, tr)
    m.update(probe_cubemap(sz, seed, tr))
    m.update(probe_cli(w[CliLocate.name], tr))
    return m
