"""The bucket-table contract every bucketed index shares (buckets.BucketTable)."""

import dataclasses
import functools
import gc
from fractions import Fraction
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from convexloc import (CapExceeded, Containment, CubeMapIndex3, EvalCounter, GenSpec2,
                       GenSpec3, PolarIndex2, QuerySpec, baselines, boundary_param,
                       build_cubemap_index, build_polar_index, build_sorted_slabs,
                       build_uniform_slabs, build_wedge_index, centroid, cubemap_cell,
                       gen_convex_polygon, gen_convex_polyhedron, gen_query_points, icosphere,
                       locate_cubemap, locate_cubemap_batch, locate_linear_2d,
                       locate_linear_2d_batch, locate_linear_3d, locate_linear_3d_batch,
                       locate_polar, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch, locate_uniform_slabs,
                       locate_uniform_slabs_batch, locate_wedge, locate_wedge_batch,
                       polar, validate_polygon, validate_polyhedron)
from convexloc import buckets
from convexloc.buckets import (BucketTable, bucketed_min, clamp_budget, locate_radial,
                               locate_radial_batch)
from convexloc.core import query_point

from oracles import (annulus_point, boundary_param_batch_reference, bucketed_min_reference,
                     csr_pack, covariance_frame_reference, frame_matrix,
                     frame_points, frame_shapes, least_plane,
                     locate_radial_batch_reference, lower_matrix, nonfinite_rows, point_types,
                     policy_edge_points, radius2_reference, reaches_planes, regular_polygon,
                     runs_pairs, sliver_shapes)

POLYGONS = {
    "triangle": validate_polygon([(0, 0), (1, 0), (0.5, 1)]),
    "square": validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "64-gon": gen_convex_polygon(GenSpec2(64, 7)),
}
CASES = [pytest.param(build, shape, id=f"{build.__name__}-{name}")
         for build in (build_polar_index, build_wedge_index, build_sorted_slabs,
                       build_uniform_slabs)
         for name, shape in POLYGONS.items()]
CASES.append(pytest.param(build_cubemap_index, validate_polyhedron(*icosphere(1)),
                          id="build_cubemap_index-icosphere1"))


@pytest.mark.parametrize("build, shape", CASES)
def test_bucket_table_contract(build, shape):
    idx = build(shape)
    assert isinstance(idx, BucketTable)
    assert [f.name for f in dataclasses.fields(BucketTable)] == ["padded_edges", "counts"]
    n = len(idx.counts)
    assert len(idx.offsets) == n + 1
    assert (idx.counts >= 1).all()
    np.testing.assert_array_equal(np.diff(idx.offsets), idx.counts)
    padded = idx.padded_edges
    for arr in (idx.offsets, idx.edges, idx.counts, padded):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # The bucket kernel gathers from contiguous columns only.
    for arr in (padded, shape.planes):
        assert arr.flags.f_contiguous and not arr.flags.writeable
    assert padded.shape == (n, idx.max_occupancy)
    assert idx.max_occupancy == int(idx.counts.max())
    assert idx.mean_occupancy == idx.counts.mean()
    for b in range(n):
        assert set(padded[b].tolist()) == set(idx.bucket(b).tolist())


def test_clamp_budget_rejects_an_empty_budget():
    with pytest.raises(ValueError, match="polar slab count must be >= 1"):
        clamp_budget("polar slab count", 0, 8)


@pytest.mark.parametrize("fn, args, what", [
    pytest.param(cubemap_cell, ((0.0, 0.0, 0.0), r, (1.0, 0.2, 0.3)), "cube-map resolution",
                 id=f"cubemap_cell-{r}") for r in (0, -2)
] + [
    pytest.param(clamp_budget, ("polar slab count", n, 8), "polar slab count",
                 id=f"clamp_budget-{n}") for n in (math.inf, -math.inf, math.nan, np.float64("nan"))
])
def test_budget_below_one_or_not_finite_is_rejected(fn, args, what):
    """A budget must be a finite number >= 1: a cube-map cell of resolution
    0 is not cell (face, -1, -1), and an infinite or NaN budget raises the
    ValueError that names it, not an OverflowError or a conversion error."""
    with pytest.raises(ValueError, match=f"{what} must be >= 1"):
        fn(*args)


def test_pack_rejects_an_empty_bucket():
    with pytest.raises(AssertionError):
        BucketTable.pack(np.array([0, 2]), np.array([5, 6]), 3)
    table = BucketTable.pack(np.array([2, 0, 2, 1]), np.array([5, 6, 7, 8]), 3)
    assert [table.bucket(b).tolist() for b in range(3)] == [[6], [8], [5, 7]]


def test_from_runs_wraps_past_the_last_bucket():
    table = BucketTable.from_runs(np.array([3, 1]), np.array([3, 2]), 4)
    assert [table.bucket(b).tolist() for b in range(4)] == [[0], [0, 1], [1], [0]]


@pytest.fixture
def reference_tables(monkeypatch):
    """csr_pack of the pairs handed to every outermost BucketTable.pack or
    from_runs call from now on, in call order."""
    refs, depth = [], []

    def recording(method, pairs):
        def wrapped(cls, a, b, n_buckets, **fields):
            if not depth:
                refs.append(csr_pack(*pairs(a, b, n_buckets), n_buckets))
            depth.append(cls)
            try:
                return method(cls, a, b, n_buckets, **fields)
            finally:
                depth.pop()
        return classmethod(wrapped)

    monkeypatch.setattr(BucketTable, "pack", recording(
        BucketTable.pack.__func__, lambda ids, items, n: (ids, items)))
    monkeypatch.setattr(BucketTable, "from_runs", recording(
        BucketTable.from_runs.__func__, runs_pairs))
    return refs


def _assert_reference_table(idx, ref):
    """The table's arrays are the two-pass reference's, bit for bit, and
    the padded table is stored column-major."""
    got = (idx.offsets, idx.edges, idx.counts, idx.padded_edges)
    for name, a, b in zip(("offsets", "edges", "counts", "padded_edges"), got, ref):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert idx.padded_edges.flags.f_contiguous
    assert idx.padded_edges.nbytes == ref[3].nbytes
    assert idx.max_occupancy == int(ref[2].max())
    assert idx.mean_occupancy == ref[2].mean()


@pytest.mark.parametrize("build", [build_polar_index, build_wedge_index,
                                   build_sorted_slabs, build_uniform_slabs])
def test_polygon_tables_match_reference(build, corpus2d, reference_tables):
    """Every 2D builder on every corpus2d polygon packs the reference's
    table; uniform slabs clamp on some of them, which is not at issue here."""
    entries, _ = corpus2d
    for poly, _, _ in entries:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapExceeded)
            idx = build(poly)
        assert len(reference_tables) == 1
        _assert_reference_table(idx, reference_tables.pop())


def test_cubemap_tables_match_reference(corpus3d, reference_tables):
    entries, _ = corpus3d
    for poly, _, _ in entries:
        idx = build_cubemap_index(poly)
        assert len(reference_tables) == 1
        _assert_reference_table(idx, reference_tables.pop())


def test_clamped_uniform_table_matches_reference(reference_tables):
    """A uniform y-slab index clamped to 2^20 slabs, about 2.1e6 entries."""
    with pytest.warns(CapExceeded):
        idx = build_uniform_slabs(gen_convex_polygon(GenSpec2(n=4096, seed=0)))
    assert len(reference_tables) == 1
    _assert_reference_table(idx, reference_tables.pop())


def test_polar_index_keeps_one_table():
    """A 16384-gon polar index (about 2.2e5 slabs, two edges per slab at
    most) retains its padded table and counts, about 2.7 MB; a second, CSR
    copy of the lists would add about as much again."""
    poly = gen_convex_polygon(GenSpec2(n=16384, seed=0, jitter=0.9, semi_axes=(1.5, 1.0)))
    gc.collect()
    tracemalloc.start()
    try:
        idx = build_polar_index(poly)
        idx.padded_edges
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.max_occupancy == 2 and len(idx.counts) > 200_000
    assert retained < 4e6


def linear_scan(shape):
    """The linear scans' index: the shape itself."""
    return shape


def boundary_param_of(idx, p):
    return boundary_param(idx.box, idx.x_t, p)


def cubemap_cell_of(idx, p):
    return cubemap_cell(idx.x_t, idx.resolution, p)


ICOSAHEDRON = validate_polyhedron(*icosphere(0))
# (build, shape, every scalar and batch locator and direction helper of the index)
QUERY_FRONT = [
    (linear_scan, POLYGONS["square"], (locate_linear_2d, locate_linear_2d_batch)),
    (build_wedge_index, POLYGONS["square"], (locate_wedge, locate_wedge_batch)),
    (build_sorted_slabs, POLYGONS["square"], (locate_sorted_slabs, locate_sorted_slabs_batch)),
    (build_uniform_slabs, POLYGONS["square"],
     (locate_uniform_slabs, locate_uniform_slabs_batch)),
    (build_polar_index, POLYGONS["square"],
     (locate_polar, locate_polar_batch, boundary_param_of, PolarIndex2.bucket_of)),
    (linear_scan, ICOSAHEDRON, (locate_linear_3d, locate_linear_3d_batch)),
    (build_cubemap_index, ICOSAHEDRON,
     (locate_cubemap, locate_cubemap_batch, cubemap_cell_of, CubeMapIndex3.bucket_of)),
]


@pytest.mark.parametrize("build, shape, locate, points, got, want", [
    (build_polar_index, POLYGONS["square"], locate_polar, (100.0, 0.2, 0.3), 3, 2),
    (build_polar_index, POLYGONS["square"], locate_polar_batch, np.zeros((4, 3)), 3, 2),
    (build_cubemap_index, ICOSAHEDRON, locate_cubemap, (0.1, 0.2), 2, 3),
    (build_cubemap_index, ICOSAHEDRON, locate_cubemap_batch, np.zeros((4, 2)), 2, 3),
] + [pytest.param(build, shape, locate, np.zeros(given), given[-1], dim,
                   id=f"{build.__name__}-{locate.__name__}-{dim}D-{'x'.join(map(str, given))}")
     for build, shape, front in QUERY_FRONT
     for dim in [shape.vertices.shape[1]]
     for locate in front
     for given in ((4, 5 - dim), (4, 1), (2, 2, 2), (0,))])
def test_query_of_another_dimension_is_rejected(build, shape, locate, points, got, want):
    """Every locator, scalar and batch, and every bucket map and direction
    helper rejects points that are neither one point nor rows of the
    index's dimension want with the ValueError of core.query_points, which
    names want and the shape given, before the box test: not located as
    Outside, failed on an index or a broadcast, nor cut to want
    coordinates.  got, the given last axis, differs from want unless the
    array has more than two axes."""
    assert got != want or np.ndim(points) > 2
    with pytest.raises(ValueError, match=re.escape(
            f"query points must be {want}D, got shape {np.shape(points)}")):
        locate(build(shape), points)


@pytest.mark.parametrize("build, shape, locate, rows", [
    pytest.param(build, shape, locate, (n, dim), id=f"{build.__name__}-{locate.__name__}-{n}x{dim}")
    for build, shape, front in QUERY_FRONT
    for dim in [shape.vertices.shape[1]]
    for locate in front if not locate.__name__.endswith(("_batch", "bucket_of"))
    for n in (0, 1, 4)])
def test_scalar_query_of_rows_is_rejected(build, shape, locate, rows):
    """Every scalar locator and direction helper takes
    exactly one point: rows of the index's dimension, none, one or many,
    raise the ValueError of core.query_point, which names the dimension and
    the shape given; not a code for row 0, an IndexError or a TypeError."""
    with pytest.raises(ValueError, match=re.escape(
            f"expected one {rows[1]}D query point, got shape {rows}")):
        locate(build(shape), np.zeros(rows))


# Values that are no query point, each made from the dim coordinates of one.
NON_POINTS = {
    "str": lambda xs: "123"[:len(xs)],
    "bytes": lambda xs: b"123"[:len(xs)],
    "set": set,
    "dict": lambda xs: dict.fromkeys(xs, 1),
    "generator": lambda xs: (x for x in xs),
    "ragged-rows": lambda xs: [xs, xs[:-1]],
    "non-numeric-strings": lambda xs: ["a"] * len(xs),
}


@pytest.mark.parametrize("build, shape, locate, dim, given", [
    pytest.param(build, shape, locate, dim, given,
                 id=f"{build.__name__}-{locate.__name__}-{dim}D-{given}")
    for build, shape, front in QUERY_FRONT
    for dim in [shape.vertices.shape[1]]
    for locate in front
    for given in NON_POINTS])
def test_non_point_is_rejected(build, shape, locate, dim, given):
    """Every locator, scalar and batch, and every bucket map and direction
    helper rejects a value that is no point with the ValueError of
    core.query_point or core.query_points, which names the dimension: a
    string is not split into characters, a set or dict not read in hash
    order, and a generator, ragged rows or non-numeric strings do not raise
    a TypeError or numpy's own ValueError."""
    with pytest.raises(ValueError, match=f"(query points must be|expected one) {dim}D"):
        locate(build(shape), NON_POINTS[given]([0.25, 0.75, 0.5][:dim]))


# Values with a None coordinate, each made from the dim coordinates of one.
NONE_POINTS = {
    "none-coordinate": lambda xs: [*xs[:-1], None],
    "all-none": lambda xs: [None] * len(xs),
    "none-in-a-row": lambda xs: [xs, [None, *xs[1:]]],
    "object-array": lambda xs: np.array([*xs[:-1], None], dtype=object),
}


@pytest.mark.parametrize("build, shape, locate, dim, given", [
    pytest.param(build, shape, locate, dim, given,
                 id=f"{build.__name__}-{locate.__name__}-{dim}D-{given}")
    for build, shape, front in QUERY_FRONT
    for dim in [shape.vertices.shape[1]]
    for locate in front
    for given in NONE_POINTS])
def test_none_coordinate_is_rejected(build, shape, locate, dim, given):
    """A None coordinate is no number: every locator, scalar and batch, and
    every bucket map and direction helper raises query_points' ValueError
    for non-numbers, where numpy would read None as NaN and locate the
    point as Outside."""
    with pytest.raises(ValueError, match=f"query points must be {dim}D numbers"):
        locate(build(shape), NONE_POINTS[given]([0.25, 0.75, 0.5][:dim]))


@pytest.mark.parametrize("build, shape, locate", [
    pytest.param(build, shape, locate, id=f"{build.__name__}-{locate.__name__}")
    for build, shape, front in QUERY_FRONT for locate in front])
def test_fraction_coordinates_are_numbers(build, shape, locate):
    """A point of Fractions, a list or a numeric object array, is the point
    of their floats."""
    xs = [0.25, 0.75, 0.5][:shape.vertices.shape[1]]
    batch = locate.__name__.endswith(("_batch", "bucket_of"))
    idx = build(shape)
    want = locate(idx, [xs] if batch else xs)
    for fr in ([Fraction(x) for x in xs], np.array([Fraction(x) for x in xs], dtype=object)):
        assert np.array_equal(locate(idx, [fr] if batch else fr), want)


@pytest.mark.parametrize("build, shape, locate",
                         [(build, shape, front[1]) for build, shape, front in QUERY_FRONT])
def test_empty_batch_gives_empty_codes(build, shape, locate):
    """A (0, dim) batch is a batch: no error, no codes."""
    codes = locate(build(shape), np.zeros((0, shape.vertices.shape[1])))
    assert codes.dtype == np.int8 and codes.shape == (0,)


LOCATORS = {build_polar_index: locate_polar_batch, build_wedge_index: locate_wedge_batch,
            build_sorted_slabs: locate_sorted_slabs_batch,
            build_uniform_slabs: locate_uniform_slabs_batch,
            build_cubemap_index: locate_cubemap_batch}


def _query_set(shape, pts):
    """The corpus points, then the policy's edge points around the vertex
    mean, the first vertices and rows with a NaN or infinite coordinate."""
    return np.concatenate([pts, policy_edge_points(shape, centroid(shape)),
                           shape.vertices[:8], nonfinite_rows(pts.shape[1])])


def _assert_kernel_matches_reference(shape, table):
    """bucketed_min equals the row-gather kernel bit for bit on batches of
    0, 1 and 1024 points."""
    rng = np.random.default_rng(len(table.counts))
    for n in (0, 1, 1024):
        ids = rng.integers(0, len(table.counts), n)
        q = rng.uniform(shape.aabb.lo, shape.aabb.hi, (n, shape.vertices.shape[1]))
        got = bucketed_min(shape.planes, table, ids, q)
        want = bucketed_min_reference(shape.planes, table, ids, q)
        assert got.dtype == want.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, want), (table.max_occupancy, n)


def _assert_codes_match_reference(idx, locate, shape, pts, monkeypatch):
    """The locator's codes equal those of the row-gather query path on
    batches of 0, 1 and all of _query_set's points.

    The polar and cube-map locators are buckets.locate_radial_batch itself,
    which no module attribute can swap, so their reference is called
    directly; only the polar slab lookup reads a patched name.  The wedge
    and y-slab locators read baselines.bucketed_min.
    """
    query = _query_set(shape, pts)
    got = [locate(idx, query[:n]) for n in (0, 1, len(query))]
    with monkeypatch.context() as m:
        if locate is locate_radial_batch:
            reference = locate_radial_batch_reference
            if isinstance(idx, PolarIndex2):
                m.setattr(polar, "boundary_param_batch", boundary_param_batch_reference)
        else:
            reference = locate
            m.setattr(baselines, "bucketed_min", bucketed_min_reference)
        want = [reference(idx, query[:n]) for n in (0, 1, len(query))]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int8
        assert np.array_equal(a, b), locate.__name__


@pytest.mark.parametrize("build", [build_polar_index, build_wedge_index,
                                   build_sorted_slabs, build_uniform_slabs])
def test_polygon_kernel_matches_reference(build, corpus2d, monkeypatch):
    entries, _ = corpus2d
    for poly, pts, _ in entries:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapExceeded)
            idx = build(poly)
        _assert_kernel_matches_reference(poly, idx)
        _assert_codes_match_reference(idx, LOCATORS[build], poly, pts, monkeypatch)


def test_cubemap_kernel_matches_reference(corpus3d, monkeypatch):
    """The corpus3d cube maps hold 5 to 9 planes in their widest cell."""
    entries, _ = corpus3d
    widths = set()
    for poly, pts, idx in entries:
        widths.add(idx.max_occupancy)
        _assert_kernel_matches_reference(poly, idx)
        _assert_codes_match_reference(idx, locate_cubemap_batch, poly, pts, monkeypatch)
    assert min(widths) <= 5 and max(widths) >= 9


def test_kernel_matches_reference_on_the_narrowest_and_widest_tables(monkeypatch):
    """A table of one plane per bucket, and a one-slab polar index whose
    single bucket lists all 64 edges."""
    poly = POLYGONS["64-gon"]
    _assert_kernel_matches_reference(poly, BucketTable.pack(np.arange(64), np.arange(64), 64))
    idx = build_polar_index(poly, n_slabs=1)
    assert idx.max_occupancy == 64
    _assert_kernel_matches_reference(poly, idx)
    pts = gen_query_points(poly.aabb, QuerySpec(1000, 5))
    _assert_codes_match_reference(idx, locate_polar_batch, poly, pts, monkeypatch)


@pytest.mark.parametrize("build, shape", [
    (build_polar_index, POLYGONS["64-gon"]),
    (build_cubemap_index, validate_polyhedron(*icosphere(1)))])
def test_radial_codes_match_reference_with_no_point_or_every_point_near_x_t(build, shape):
    """locate_radial_batch gives the reference's codes on a batch in which
    no point lies within eps_len of x_t, and on one in which every in-box
    point does, beside points outside the box and non-finite rows."""
    idx = build(shape)
    dim = shape.vertices.shape[1]
    eps_len = shape.tol.eps_len
    pts = gen_query_points(shape.aabb, QuerySpec(2000, 11))
    outside = np.concatenate([shape.aabb.hi + 1.0 + np.abs(pts[:50]), nonfinite_rows(dim)])
    offsets = np.random.default_rng(12).uniform(-0.5, 0.5, (200, dim)) * eps_len / math.sqrt(dim)
    for batch in (pts, np.concatenate([idx.x_t + offsets, idx.x_t[None, :], outside])):
        inbox = shape.aabb.contains(batch, pad=shape.tol.eps_q)
        close = np.linalg.norm(batch[inbox] - idx.x_t, axis=1) <= eps_len
        assert inbox.any() and (close.all() or not close.any())
        got = locate_radial_batch(idx, batch)
        assert np.array_equal(got, locate_radial_batch_reference(idx, batch))
        assert got.dtype == np.int8 and len(got) == len(batch)


@functools.cache
def _frame_index(name):
    """The radial index of frame_shapes()[name]; the 100:1 4096-gons need
    1,995,114 slabs, so their polar budget clamps, with its warning."""
    shape = frame_shapes()[name]
    build = build_polar_index if shape.dim == 2 else build_cubemap_index
    if not name.startswith("100to1"):
        return build(shape)
    with pytest.warns(CapExceeded):
        return build(shape)


FRAME_SHAPES = list(frame_shapes())


def _radii(idx):
    """The inner and the outer bound of the index's frame, as radii."""
    return math.sqrt(idx.inner2), math.sqrt(idx.outer2)


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_inner_ellipse_is_2_eps_q_inside_every_plane(name):
    """The index keeps the covariance frame, and every plane is at least
    2*eps_q at points just inside the inner ellipse, in 2000 random
    directions and where the ellipse comes nearest each plane."""
    idx = _frame_index(name)
    shape = idx.poly
    assert not np.array_equal(frame_matrix(idx), np.eye(shape.dim))
    pts = frame_points(idx, _radii(idx)[0] * (1.0 - 1e-9), 2000, 31, "planes")
    assert least_plane(shape, pts).min() >= 2.0 * shape.tol.eps_q


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_outer_ellipse_is_2_eps_q_outside_some_plane(name):
    """Points just outside the outer ellipse, in 2000 random directions and
    on the ray to each vertex, lie more than 2*eps_q outside some plane."""
    idx = _frame_index(name)
    shape = idx.poly
    pts = frame_points(idx, _radii(idx)[1] * (1.0 + 1e-9), 2000, 32, "vertices")
    assert least_plane(shape, pts).max() < -2.0 * shape.tol.eps_q


def _radius_points(idx, n, seed):
    """Points at both bounds of the frame times 1 -+ 1e-9, in n random
    directions, nearest each plane and on the ray to each vertex."""
    return np.concatenate([frame_points(idx, r * f, n, seed, towards)
                           for r in _radii(idx) for f in (1.0 - 1e-9, 1.0 + 1e-9)
                           for towards in ("planes", "vertices")])


def _assert_codes_agree(idx, pts):
    """Batch codes equal the reference's and the scalar path's."""
    got = locate_radial_batch(idx, pts)
    assert np.array_equal(got, locate_radial_batch_reference(idx, pts))
    assert [int(locate_radial(idx, p)) for p in pts] == got.tolist()


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_codes_at_both_bounds_match_the_reference(name):
    """At both bounds times 1 -+ 1e-9, on both sides of each test, the
    batch codes, the scalar codes and the reference (which evaluates every
    in-box point past eps_len) agree."""
    idx = _frame_index(name)
    _assert_codes_agree(idx, _radius_points(idx, 500, 16))


@pytest.mark.parametrize("name", list(sliver_shapes()))
def test_slivers_keep_the_identity_frame(name):
    """x_t of a sliver lies less than 2*eps_q inside a plane, so rho_in <= 0
    in any frame: the index keeps the identity frame with the eps_len ball.
    The outer bound still holds, and the codes at both bounds and over the
    box match the reference."""
    shape = sliver_shapes()[name]
    idx = (build_polar_index if shape.dim == 2 else build_cubemap_index)(shape)
    assert np.array_equal(frame_matrix(idx), np.eye(shape.dim))
    assert idx.inner2 == shape.tol.eps_len ** 2
    pts = frame_points(idx, _radii(idx)[1] * (1.0 + 1e-9), 2000, 33, "vertices")
    assert least_plane(shape, pts).max() < -2.0 * shape.tol.eps_q
    _assert_codes_agree(idx, np.concatenate([gen_query_points(shape.aabb, QuerySpec(2000, 13)),
                                             _radius_points(idx, 50, 14)]))


def _assert_frame_factors_covariance(shape, x_t):
    """covariance_frame of the vertices less x_t: U upper triangular with a
    positive diagonal and U U^T = C to 1e-14 of C's largest entry (a few
    roundings of its products), and L, rebuilt from the floats, with
    L^T C L = I to 1e-12 in every entry (the 100:1 shapes, C's condition
    number 1e4, reach 9e-14)."""
    v = shape.vertices - x_t
    c = v.T @ v / len(v)
    lower, u = buckets.covariance_frame(v)
    L = lower_matrix(lower, shape.dim)
    assert {type(x) for x in lower} == {float}
    assert np.array_equal(u, np.triu(u)) and (np.diag(u) > 0.0).all()
    assert np.abs(u @ u.T - c).max() <= 1e-14 * np.abs(c).max()
    assert np.abs(L.T @ c @ L - np.eye(shape.dim)).max() <= 1e-12


def test_frame_factors_the_covariance_of_the_corpora(corpus2d, corpus3d):
    for poly, _, idx in corpus2d[0] + corpus3d[0]:
        _assert_frame_factors_covariance(poly, idx.x_t)


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_frame_factors_the_covariance_of_the_frame_shapes(name):
    shape = frame_shapes()[name]
    _assert_frame_factors_covariance(shape, buckets.reference_point(shape))


FLAT_VERTICES = [
    pytest.param([(0, 3), (1, 3), (5, 3)], id="2D-horizontal"),
    pytest.param([(2, 0), (2, 1), (2, 5)], id="2D-vertical"),
    pytest.param([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 2)], id="3D-x"),
    pytest.param([(0, 1, 0), (1, 1, 0), (0, 1, 1), (2, 1, 2)], id="3D-y"),
    pytest.param([(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 2, 1)], id="3D-z")]


@pytest.mark.parametrize("vertices", FLAT_VERTICES)
def test_frame_of_flat_vertices_is_nan(vertices):
    """Collinear 2D and coplanar 3D vertices on an axis-parallel line or
    plane, whose covariance has an exactly zero row, give NaNs for L and U.
    (On a slanted line the covariance can round to positive definite.)"""
    v = np.asarray(vertices, dtype=float)
    lower, u = buckets.covariance_frame(v - v.mean(axis=0))
    assert len(lower) == len(v[0]) * (len(v[0]) + 1) // 2
    assert np.isnan(lower).all() and np.isnan(u).all()


def _assert_frame_matches_floats(v):
    """covariance_frame(v) gives L_floats and U within 1e-13 of the largest
    entry of the same factorization written out in Python floats
    (oracles.covariance_frame_reference), and NaNs where it does."""
    lower, u = buckets.covariance_frame(v)
    want_lower, want_u = covariance_frame_reference(v)
    for got, want in ((np.array(lower), np.array(want_lower)), (u, np.array(want_u))):
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        if not np.isnan(want).any():
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", FRAME_SHAPES + list(sliver_shapes()))
def test_frame_matches_the_factorization_in_floats(name):
    shape = (frame_shapes() | sliver_shapes())[name]
    _assert_frame_matches_floats(shape.vertices - buckets.reference_point(shape))


@pytest.mark.parametrize("vertices", FLAT_VERTICES)
def test_frame_of_flat_vertices_matches_the_factorization_in_floats(vertices):
    v = np.asarray(vertices, dtype=float)
    _assert_frame_matches_floats(v - v.mean(axis=0))


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_batch_evaluates_only_the_annulus_points(name, monkeypatch):
    """locate_radial_batch hands the kernel exactly the in-box points of
    the annulus inner2 < r^2 <= outer2, in batch order."""
    idx = _frame_index(name)
    shape = idx.poly
    pts = np.concatenate([gen_query_points(shape.aabb, QuerySpec(2000, 18)),
                          [annulus_point(idx, v) for v in shape.vertices[:200]],
                          frame_points(idx, 0.5 * _radii(idx)[0], 200, 19, "planes"),
                          nonfinite_rows(shape.dim)])
    seen = []

    def recording(planes, table, bucket_ids, q):
        seen.append(q.copy())
        return bucketed_min(planes, table, bucket_ids, q)

    monkeypatch.setattr(buckets, "bucketed_min", recording)
    locate_radial_batch(idx, pts)
    want = pts[reaches_planes(idx, pts)]
    assert len(seen) == 1 and 0 < len(want) < len(pts) - 200
    assert np.array_equal(seen[0], want)


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_batch_with_no_annulus_point_maps_no_bucket(name, monkeypatch):
    """A batch whose points are all inside the inner ellipse, beyond the
    outer one or not finite makes no bucket_of and no bucketed_min call,
    and it gets the reference's codes."""
    idx = _frame_index(name)
    inner, outer = _radii(idx)
    pts = np.concatenate([frame_points(idx, 0.5 * inner, 200, 20, "planes"),
                          frame_points(idx, 2.0 * outer, 200, 21, "vertices"),
                          nonfinite_rows(idx.poly.dim)])
    assert not reaches_planes(idx, pts).any()
    want = locate_radial_batch_reference(idx, pts)
    calls = []

    def counting(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    monkeypatch.setattr(type(idx), "bucket_of", counting(type(idx).bucket_of))
    monkeypatch.setattr(buckets, "bucketed_min", counting(bucketed_min))
    got = locate_radial_batch(idx, pts)
    assert calls == []
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_deep_scalar_query_costs_no_evaluation(name):
    """A point inside the inner ellipse but farther than eps_len from x_t
    is Inside with no plane evaluation."""
    idx = _frame_index(name)
    pts = frame_points(idx, 0.5 * _radii(idx)[0], 200, 17, "planes")
    assert (np.linalg.norm(pts - idx.x_t, axis=1) > idx.poly.tol.eps_len).all()
    for p in pts:
        counter = EvalCounter()
        assert locate_radial(idx, p, counter) == Containment.INSIDE
        assert counter.evals == 0


def _huge_rows(idx):
    """x_t with one coordinate at 1e300 or -1e300, each axis in turn, then
    the point with every coordinate at 1e300."""
    dim = idx.poly.dim
    rows = []
    for k in range(dim):
        for value in (1e300, -1e300):
            row = idx.x_t.copy()
            row[k] = value
            rows.append(row)
    return np.concatenate([rows, [np.full(dim, 1e300)]])


@pytest.mark.parametrize("name", FRAME_SHAPES)
def test_huge_coordinate_is_outside_without_warning(name):
    """A finite coordinate of 1e300, whose square overflows in r^2, is
    Outside and warns nothing on either path."""
    idx = _frame_index(name)
    pts = np.concatenate([_huge_rows(idx), [idx.x_t]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = locate_radial_batch(idx, pts)
        scalar = [int(locate_radial(idx, p)) for p in pts]
    assert got.tolist() == scalar == [Containment.OUTSIDE] * (len(pts) - 1) + [Containment.INSIDE]


def _assert_radius2_pinned(idx, pts):
    """radius2, the one loop for every dimension, equals the unrolled 2D
    and 3D forms bit for bit on the points and on 1e300, NaN and +-inf
    rows, under the errstate of locate_radial_batch."""
    pts = np.concatenate([pts, _huge_rows(idx), nonfinite_rows(idx.poly.dim)])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = idx.radius2(pts), radius2_reference(idx, pts)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_radius2_is_the_unrolled_formula_on_the_corpora(corpus2d, corpus3d):
    for poly, pts, idx in corpus2d[0] + corpus3d[0]:
        _assert_radius2_pinned(idx, np.concatenate([pts, poly.vertices]))


@pytest.mark.parametrize("name", FRAME_SHAPES + list(sliver_shapes()))
def test_radius2_is_the_unrolled_formula_on_the_frame_shapes(name):
    """On the named shapes of the frame tests, and on the slivers, whose
    identity frame adds products by 0."""
    if name in FRAME_SHAPES:
        idx = _frame_index(name)
    else:
        shape = sliver_shapes()[name]
        idx = (build_polar_index if shape.dim == 2 else build_cubemap_index)(shape)
    shape = idx.poly
    _assert_radius2_pinned(idx, np.concatenate([gen_query_points(shape.aabb, QuerySpec(2000, 41)),
                                                shape.vertices, _radius_points(idx, 50, 42)]))


AFFINE = gen_convex_polyhedron(GenSpec3(1, 55))
RADIAL_CASES = [
    pytest.param(build_polar_index, gen_convex_polygon(GenSpec2(21, 17, semi_axes=(300.0, 200.0))),
                 QuerySpec(300, 18), id="polar"),
    pytest.param(build_cubemap_index, validate_polyhedron(AFFINE.vertices * 100.0, AFFINE.faces),
                 QuerySpec(400, 56), id="cubemap"),
]


@pytest.mark.parametrize("build, poly, spec", RADIAL_CASES)
def test_radial_scalar_equals_batch(build, poly, spec):
    """Same codes on both paths, also at the edges of the shared policy, and
    the scalar path evaluates exactly the bucket the batch path picks, which
    the float map finds as bucket_of does; for tuples and for float64,
    float32 and int rows alike.  Non-finite points cost no evaluation.  One
    point on the ray to each vertex lies in the annulus of the index's frame
    (oracles.annulus_point), and the size of the shapes (semi-axes 300 and
    200; an affine polyhedron scaled by 100) makes the annulus some units
    wide, so the int rows, truncated, reach the planes too."""
    idx = build(poly)
    pts = np.vstack([gen_query_points(poly.aabb, spec), poly.vertices,
                     [annulus_point(idx, v) for v in poly.vertices],
                     policy_edge_points(poly, idx.x_t), nonfinite_rows(poly.dim)])
    for name, (arr, rows) in point_types(pts).items():
        batch = locate_radial_batch(idx, arr)
        counters = [EvalCounter() for _ in rows]
        scalar = [int(locate_radial(idx, p, c)) for p, c in zip(rows, counters)]
        np.testing.assert_array_equal(batch, scalar, err_msg=name)
        q = np.asarray(arr, dtype=float)
        reached = reaches_planes(idx, q)
        want = np.zeros(len(q), dtype=np.int64)
        want[reached] = idx.counts[idx.bucket_of(q[reached])]
        evals = np.array([c.evals for c in counters])
        np.testing.assert_array_equal(evals, want, err_msg=name)
        assert 0 < reached.sum() < len(q)
        assert ([idx.bucket_of_floats(query_point(p, poly.dim))
                 for p, hit in zip(rows, reached) if hit]
                == idx.bucket_of(q[reached]).tolist()), name
        bad = ~np.isfinite(q).all(axis=1)
        assert (batch[bad] == Containment.OUTSIDE).all() and not evals[bad].any()


@pytest.mark.parametrize("build, poly, spec", [
    pytest.param(build_polar_index, gen_convex_polygon(GenSpec2(128, 21)), QuerySpec(500, 22),
                 id="polar"),
    pytest.param(build_cubemap_index, gen_convex_polyhedron(GenSpec3(2, 9)), QuerySpec(400, 10),
                 id="cubemap")])
def test_radial_eval_count_bounded_by_occupancy(build, poly, spec):
    idx = build(poly)
    for p in gen_query_points(poly.aabb, spec):
        c = EvalCounter()
        locate_radial(idx, p, c)
        assert c.evals <= idx.max_occupancy


def _batch_peak(poly) -> int:
    """Peak bytes allocated by one 1024-point locate_polar_batch call."""
    idx = build_polar_index(poly)
    pts = gen_query_points(poly.aabb, QuerySpec(1024, 3))
    locate_polar_batch(idx, pts)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        locate_polar_batch(idx, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def test_batch_allocation_does_not_grow_with_the_shape():
    """A batch allocates O(batch) bytes: a per-call copy of a plane or
    table column would add O(N), 512 KB on the 65536-gon."""
    small = _batch_peak(validate_polygon(regular_polygon(64)))
    large = _batch_peak(validate_polygon(regular_polygon(65536)))
    assert large <= 1.25 * small, (small, large)


def _first_scalar_peak(build, shape, locate) -> int:
    """Peak bytes allocated by the first scalar call right after the build,
    on a point of the ray from the reference point to vertex 0 in the
    annulus of the index's frame (oracles.annulus_point), which reaches the
    planes."""
    idx = build(shape)
    p = tuple(annulus_point(idx, shape.vertices[0]).tolist())
    counter = EvalCounter()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        locate(idx, p, counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.evals > 0
    return peak - base


@pytest.mark.parametrize("build, locate, small, large", [
    (build_polar_index, locate_polar, validate_polygon(regular_polygon(64)),
     validate_polygon(regular_polygon(65536))),
    (build_cubemap_index, locate_cubemap, validate_polyhedron(*icosphere(0)),
     validate_polyhedron(*icosphere(4))),
])
def test_scalar_allocation_does_not_grow_with_the_shape(build, locate, small, large):
    """A scalar call allocates O(1) bytes, its first call too: a copy of the
    planes or of the bucket table, made eagerly or on first use, would add
    O(N)."""
    small_peak = _first_scalar_peak(build, small, locate)
    large_peak = _first_scalar_peak(build, large, locate)
    assert large_peak <= 1.25 * small_peak, (small_peak, large_peak)
