"""The benchmark workloads.

Each workload makes its inputs from the run's seed (untimed), sets the
program up several times (timed, reported as ``setup_s``), then calls into
the program from one caller in a closed loop -- the next call starts when
the previous one has returned -- for the run's seconds and at least
``min_calls`` calls.  The calls run in rounds of ``round_calls`` consecutive
calls, each round a fair sample of the workload; the timing metrics come
from the fastest rounds that together hold ``min_calls`` calls, so a spell
in which a shared host slows the whole process down does not decide them.
Every answer is checked against the linear scan through
``generators.compare_methods``, outside the timed region.  A call that raises
or a CLI process that exits non-zero counts all its queries as failed; the
run goes on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from convexloc import (Aabb, Containment, GenSpec2, QuerySpec,
                       build_cubemap_index, build_polar_index, compare_methods,
                       gen_convex_polygon, gen_query_points, icosphere,
                       load_shape, locate_cubemap, locate_linear_2d_batch,
                       locate_linear_3d_batch, locate_polar, locate_polar_batch,
                       random_affine, validate_polygon, validate_polyhedron,
                       write_points_file, write_polygon_file)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and call counts; FULL is the benchmark, SMOKE a quick check."""

    polar_n: int = 16384            # polar-batch polygon vertices
    batch: int = 65536              # points per batch call
    cube_level: int = 4             # polyhedron of the cubemap probe (5120 faces)
    cli_n: int = 4096               # cli-locate polygon vertices
    cli_points: int = 20000         # cli-locate points per file
    small_polygons: int = 256
    small_polyhedra: int = 64
    small_max_level: int = 2
    small_calls: int = 64           # scalar calls per small shape
    setups: int = 3                 # set-ups per run; setup_s is their median
    cli_setups: int = 9             # cli-locate set-ups are cheap, take more
    small_round: int = 4            # small-shapes calls per shape per round
    min_calls: int = 100            # so p90 has >= 10 samples beyond it
    min_calls_traced: int = 30      # per pass of the traced run


FULL = Sizes()
SMOKE = Sizes(polar_n=256, batch=2048, cube_level=1, cli_n=64,
              cli_points=500, small_polygons=12, small_polyhedra=3,
              small_max_level=1, small_calls=8, setups=2, cli_setups=2, min_calls=20,
              min_calls_traced=10)

CLI_TIMEOUT_S = 120.0
# Axis pairs cycled by small-shapes, moderate eccentricity as in the CLI's
# verification corpus.
SMALL_AXES = ((1.0, 1.0), (1.3, 0.9), (1.5, 1.0), (0.8, 1.2))
CODE_OF_NAME = {"Outside": int(Containment.OUTSIDE),
                "OnBoundary": int(Containment.ON_BOUNDARY),
                "Inside": int(Containment.INSIDE)}
LOST = object()     # output of a call that raised


def sub_seeds(seed: int, workload: str, n: int) -> list[int]:
    """n generator seeds for one workload, all derived from the run's seed."""
    ss = np.random.SeedSequence([seed, *workload.encode()])
    return [int(s) for s in ss.generate_state(n)]


def raw_polyhedron(level: int, seed: int):
    """(vertices, faces) of GenSpec3(level, seed) before validation: the
    icosphere under random_affine(seed), as gen_convex_polyhedron maps it."""
    base_v, faces = icosphere(level)
    matrix, translation = random_affine(seed)
    return base_v @ matrix.T + translation, faces


def polar_index_bytes(idx) -> int:
    return sum(a.nbytes for a in (idx.offsets, idx.edges, idx.counts,
                                  idx.padded_edges, idx.poly.halfplanes))


def cubemap_index_bytes(idx) -> int:
    return sum(a.nbytes for a in (idx.offsets, idx.faces_flat, idx.counts,
                                  idx.padded_faces, idx.poly.halfspaces))


def set_up_polygon(raw, tr):
    """validate_polygon + build_polar_index, padded table forced."""
    poly = tr.wrap("core.validate_polygon", validate_polygon)(raw)
    idx = tr.wrap("polar.build_polar_index", build_polar_index)(poly)
    tr.wrap("polar.padded_edges", lambda: idx.padded_edges)()
    return idx


def set_up_polyhedron(raw, tr):
    """validate_polyhedron + build_cubemap_index, padded table forced."""
    poly = tr.wrap("core.validate_polyhedron", validate_polyhedron)(*raw)
    idx = tr.wrap("cubemap.build_cubemap_index", build_cubemap_index)(poly)
    tr.wrap("cubemap.padded_faces", lambda: idx.padded_faces)()
    return idx


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Verifier:
    """Counts a call's wrong answers against the linear scan.

    The first output seen for a batch is checked with compare_methods;
    a later output identical to an already verified one needs no new scan.
    """

    def __init__(self, tr):
        self.compare = tr.wrap("generators.compare_methods", compare_methods)
        self.good: dict = {}

    def failures(self, key, shape, points, linear, codes) -> int:
        if codes is LOST or codes is None or len(codes) != len(points):
            return len(points)
        good = self.good.get(key)
        if good is not None and np.array_equal(codes, good):
            return 0
        report = self.compare(shape, points, {"linear": linear,
                                              "tested": lambda _: codes})
        if report.n_mismatches == 0 and good is None:
            self.good[key] = np.array(codes)
        return report.n_mismatches


@dataclass
class Measurement:
    setup_s: list          # seconds per set-up sample
    index_bytes: list      # bytes per set-up sample
    call_ns: list          # one entry per timed call, in call order
    call_points: list      # queries classified by each timed call
    round_calls: int       # consecutive calls per round
    min_calls: int         # calls the timing metrics are taken over
    attempted: int         # queries attempted, warm-up included
    failed: int
    errors: list           # tracebacks of calls that raised

    @property
    def n_rounds(self) -> int:
        return len(self.call_ns) // self.round_calls

    def fastest(self) -> tuple[np.ndarray, np.ndarray]:
        """(ns, points) of each call in the fastest rounds, by total call
        time, that together hold at least min_calls calls."""
        ns = np.asarray(self.call_ns, dtype=float).reshape(self.n_rounds, -1)
        pts = np.asarray(self.call_points).reshape(self.n_rounds, -1)
        keep = np.argsort(ns.sum(axis=1), kind="stable")[:-(-self.min_calls // self.round_calls)]
        return ns[keep].ravel(), pts[keep].ravel()

    def describe_fastest(self) -> str:
        kept = len(self.fastest()[0])
        if self.round_calls == 1:
            return f"the fastest {kept} of {len(self.call_ns)} calls"
        return (f"{kept} calls: the fastest {kept // self.round_calls} of "
                f"{self.n_rounds} rounds of {self.round_calls} calls")

    def call_us(self, q: float) -> float:
        return float(np.percentile(self.fastest()[0] / 1e3, q))

    def metrics(self) -> dict:
        """End-to-end metrics as name -> (value, unit)."""
        ns, pts = self.fastest()
        return {
            "setup_s": (float(np.median(self.setup_s)), "s"),
            "query_mpts_per_s": (pts.sum() * 1e3 / ns.sum(), "Mpts/s"),
            "call_us_p50": (self.call_us(50), "us"),
            "call_us_p90": (self.call_us(90), "us"),
            "index_mb": (float(np.median(self.index_bytes)) / 1e6, "MB"),
            "failed_frac": (self.failed / self.attempted, "frac"),
        }


def measure(w, seconds: float, min_calls: int, tr, setups: int | None = None) -> Measurement:
    """Set w up (w.setups times by default), warm it up with one checked
    pass, then run the closed loop."""
    if w.verifier is None:          # kept across passes: verified outputs stay verified
        w.verifier = Verifier(tr)
    with tr.span("bench.set_up"):
        samples = w.set_up(tr, setups or w.setups)
    with tr.span("bench.closed_loop"):
        return _closed_loop(w, w.caller(tr), seconds, min_calls, samples)


def _closed_loop(w, call, seconds, min_calls, samples) -> Measurement:
    attempted = failed = 0
    errors: list = []

    def attempt(i):
        try:
            return call(i)
        except Exception:           # a lost call is counted, the run goes on
            errors.append(traceback.format_exc())
            return LOST

    for i in range(w.n_distinct):   # warm-up, untimed
        attempted += w.points_in(i)
        failed += w.check(i, attempt(i))
    call_ns, call_points = [], []
    i = 0
    deadline = time.perf_counter() + seconds
    while i < min_calls or i % w.round_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        out = attempt(i)
        call_ns.append(time.perf_counter_ns() - t0)
        n = w.points_in(i)
        call_points.append(n)
        attempted += n
        failed += w.check(i, out)
        i += 1
    return Measurement(setup_s=[s for s, _ in samples],
                       index_bytes=[b for _, b in samples], call_ns=call_ns,
                       call_points=call_points, round_calls=w.round_calls,
                       min_calls=min_calls, attempted=attempted, failed=failed,
                       errors=errors)


class PolarBatch:
    name = "polar-batch"

    def __init__(self, seed: int, sz: Sizes, workdir: str):
        s_shape, s_pts = sub_seeds(seed, self.name, 2)
        self.spec = GenSpec2(n=sz.polar_n, seed=s_shape, jitter=0.9,
                             semi_axes=(1.5, 1.0))
        self.shape = gen_convex_polygon(self.spec)
        self.raw = np.array(self.shape.vertices)
        self.points = gen_query_points(self.shape.aabb, QuerySpec(sz.batch, s_pts))
        self.setups = sz.setups
        self.n_distinct = 1
        self.round_calls = 1        # every call is the same batch
        self.verifier = None

    def describe(self) -> str:
        return (f"{self.spec}; locate_polar_batch on {len(self.points)}-point "
                f"batches uniform over the 1.5x AABB")

    def set_up(self, tr, setups):
        samples = []
        for _ in range(setups):
            dt, self.idx = timed(set_up_polygon, self.raw, tr)
            samples.append((dt, polar_index_bytes(self.idx)))
        return samples

    def caller(self, tr):
        fn = tr.wrap("polar.locate_polar_batch", locate_polar_batch)
        idx, pts = self.idx, self.points
        return lambda i: fn(idx, pts)

    def points_in(self, i):
        return len(self.points)

    def check(self, i, out):
        return self.verifier.failures(
            0, self.shape, self.points,
            lambda p: locate_linear_2d_batch(self.shape, p), out)


class SmallShapes:
    name = "small-shapes"

    def __init__(self, seed: int, sz: Sizes, workdir: str):
        n_poly, n_hedra = sz.small_polygons, sz.small_polyhedra
        seeds = sub_seeds(seed, self.name, 2 * (n_poly + n_hedra))
        self.raws = []
        for k in range(n_poly):
            spec = GenSpec2(n=8 << (k % 6), seed=seeds[2 * k],
                            semi_axes=SMALL_AXES[k % len(SMALL_AXES)],
                            rotation=0.37 * k)
            self.raws.append(np.array(gen_convex_polygon(spec).vertices))
        for k in range(n_hedra):
            self.raws.append(raw_polyhedron(k % (sz.small_max_level + 1),
                                            seeds[2 * (n_poly + k)]))
        self.points = [gen_query_points(Aabb.of_points(raw if k < n_poly else raw[0]),
                                        QuerySpec(sz.small_calls, seeds[2 * k + 1],
                                                  inflation=1.05))
                       for k, raw in enumerate(self.raws)]
        self.n_poly = n_poly
        self.per_shape = sz.small_calls
        self.n_distinct = len(self.raws) * self.per_shape
        self.round_calls = len(self.raws) * sz.small_round
        self.setups = sz.setups
        self.codes = [np.zeros(self.per_shape, dtype=np.int8) for _ in self.raws]
        self.lost = [0] * len(self.raws)
        self.verifier = None

    def describe(self) -> str:
        return (f"{self.n_poly} polygons (N cycles 8..256, varied seeds and axes) "
                f"and {len(self.raws) - self.n_poly} polyhedra (levels cycle "
                f"from 0), {self.per_shape} scalar locate_polar/locate_cubemap "
                f"calls each on points uniform over the 1.05x AABB, one call "
                f"per shape in turn")

    def set_up(self, tr, setups):
        """Each set-up builds every shape; setup_s is one full build."""
        samples = []
        for _ in range(setups):
            t0 = time.perf_counter()
            self.idx = [set_up_polygon(raw, tr) if k < self.n_poly
                        else set_up_polyhedron(raw, tr)
                        for k, raw in enumerate(self.raws)]
            dt = time.perf_counter() - t0
            nbytes = sum(polar_index_bytes(x) if k < self.n_poly else cubemap_index_bytes(x)
                         for k, x in enumerate(self.idx))
            samples.append((dt, nbytes))
        self.shapes = [idx.poly for idx in self.idx]
        return samples

    def caller(self, tr):
        polar = tr.wrap("polar.locate_polar", locate_polar)
        cube = tr.wrap("cubemap.locate_cubemap", locate_cubemap)
        calls = [(polar if k < self.n_poly else cube, idx, list(pts))
                 for k, (idx, pts) in enumerate(zip(self.idx, self.points))]
        c, n = self.per_shape, len(calls)

        def call(i):
            fn, idx, rows = calls[i % n]
            return fn(idx, rows[(i // n) % c])
        return call

    def points_in(self, i):
        return 1

    def check(self, i, out):
        """Codes are collected per shape and checked when its last call returns."""
        k, j = i % len(self.raws), (i // len(self.raws)) % self.per_shape
        if out is LOST:
            self.lost[k] += 1
            self.codes[k][j] = -1
        else:
            self.codes[k][j] = int(out)
        if j < self.per_shape - 1:
            return 0
        codes, lost, self.lost[k] = self.codes[k], self.lost[k], 0
        shape, pts = self.shapes[k], self.points[k]
        linear = (locate_linear_2d_batch if k < self.n_poly else locate_linear_3d_batch)
        if lost:
            keep = codes >= 0
            return lost + self.verifier.failures(
                None, shape, pts[keep], lambda p: linear(shape, p), codes[keep])
        return self.verifier.failures(k, shape, pts, lambda p: linear(shape, p), codes)


class CliLocate:
    name = "cli-locate"

    def __init__(self, seed: int, sz: Sizes, workdir: str):
        s_shape, s_pts = sub_seeds(seed, self.name, 2)
        self.spec = GenSpec2(n=sz.cli_n, seed=s_shape)
        self.shape = gen_convex_polygon(self.spec)
        self.points = gen_query_points(self.shape.aabb, QuerySpec(sz.cli_points, s_pts))
        self.shape_path = os.path.join(workdir, "shape.txt")
        self.points_path = os.path.join(workdir, "points.txt")
        self.out_path = os.path.join(workdir, "out.txt")
        write_polygon_file(self.shape_path, self.shape)
        write_points_file(self.points_path, self.points)
        self.argv = ["locate", "--shape", self.shape_path,
                     "--points", self.points_path, "--out", self.out_path]
        self.cmd = [sys.executable, "-m", "convexloc.cli", *self.argv]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.workdir = workdir
        self.setups = sz.cli_setups
        self.n_distinct = 1
        self.round_calls = 1        # every call is the same process
        self.verifier = None

    def describe(self) -> str:
        return (f"python -m convexloc.cli locate as a subprocess: {self.spec} text "
                f"file, {len(self.points)} points uniform over the 1.5x AABB, "
                f"--out to a scratch file")

    def set_up(self, tr, setups):
        """In-process load_shape + build_polar_index on the shape file."""
        load = tr.wrap("io.load_shape", load_shape)
        build = tr.wrap("polar.build_polar_index", build_polar_index)
        samples = []
        for _ in range(setups):
            t0 = time.perf_counter()
            idx = build(load(self.shape_path))
            idx.padded_edges
            samples.append((time.perf_counter() - t0, polar_index_bytes(idx)))
        return samples

    def caller(self, tr):
        run = tr.wrap("cli.subprocess", subprocess.run)
        return lambda i: run(self.cmd, env=self.env, cwd=self.workdir,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             timeout=CLI_TIMEOUT_S)

    def points_in(self, i):
        return len(self.points)

    def read_codes(self):
        """Codes from the CLI's 'index Name' lines, or None if malformed."""
        with open(self.out_path, "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != len(self.points):
            return None
        codes = np.empty(len(rows), dtype=np.int8)
        for k, row in enumerate(rows):
            head, _, name = row.partition(" ")
            code = CODE_OF_NAME.get(name)
            if code is None or head != str(k):
                return None
            codes[k] = code
        return codes

    def check(self, i, out):
        if out is LOST or out.returncode != 0:
            return len(self.points)
        try:
            codes = self.read_codes()
            os.remove(self.out_path)
        except OSError:
            codes = None
        return self.verifier.failures(
            0, self.shape, self.points,
            lambda p: locate_linear_2d_batch(self.shape, p), codes)


WORKLOADS = {w.name: w for w in (PolarBatch, CliLocate, SmallShapes)}
