"""The bucket-table contract every bucketed index shares (buckets.BucketTable)."""

import dataclasses
import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from convexloc import (CapExceeded, CubeMapIndex3, GenSpec2, PolarIndex2, QuerySpec,
                       ReferenceNotInterior, baselines, boundary_param, build_cubemap_index,
                       build_polar_index, build_sorted_slabs, build_uniform_slabs,
                       build_wedge_index, centroid, cubemap_cell, gen_convex_polygon,
                       gen_query_points, icosphere, locate_cubemap, locate_cubemap_batch,
                       locate_linear_2d, locate_linear_2d_batch, locate_linear_3d,
                       locate_linear_3d_batch, locate_polar, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch, locate_uniform_slabs,
                       locate_uniform_slabs_batch, locate_wedge, locate_wedge_batch, polar,
                       validate_polygon, validate_polyhedron)
from convexloc.buckets import BucketTable, bucketed_min, clamp_budget, locate_radial_batch

from oracles import (boundary_param_batch_reference, bucketed_min_reference, csr_pack,
                     locate_radial_batch_reference, nonfinite_rows, policy_edge_points,
                     regular_polygon, runs_pairs)

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


@pytest.mark.parametrize("build, shape, x_t, want, got", [
    (build_polar_index, POLYGONS["square"], (0.5, 0.5, 0.5), "(2,)", "(3,)"),
    (build_polar_index, POLYGONS["square"], [[0.5, 0.5]], "(2,)", "(1, 2)"),
    (build_polar_index, POLYGONS["square"], (0.5,), "(2,)", "(1,)"),
    (build_cubemap_index, validate_polyhedron(*icosphere(0)), (0.0, 0.0), "(3,)", "(2,)"),
])
def test_reference_point_of_another_shape_is_rejected(build, shape, x_t, want, got):
    """An x_t that is not one point of the shape's dimension is named as
    such, not as an index, broadcasting or interior fault."""
    with pytest.raises(ValueError, match=re.escape(f"shape {want}, got {got}")) as err:
        build(shape, x_t=x_t)
    assert not isinstance(err.value, ReferenceNotInterior)


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
     (locate_polar, locate_polar_batch, boundary_param_of, PolarIndex2.bucket_of_point,
      PolarIndex2.bucket_of)),
    (linear_scan, ICOSAHEDRON, (locate_linear_3d, locate_linear_3d_batch)),
    (build_cubemap_index, ICOSAHEDRON,
     (locate_cubemap, locate_cubemap_batch, cubemap_cell_of, CubeMapIndex3.bucket_of_point,
      CubeMapIndex3.bucket_of)),
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
    """Every scalar locator, bucket_of_point and direction helper takes
    exactly one point: rows of the index's dimension, none, one or many,
    raise the ValueError of core.query_point, which names the dimension and
    the shape given; not a code for row 0, an IndexError or a TypeError."""
    with pytest.raises(ValueError, match=re.escape(
            f"expected one {rows[1]}D query point, got shape {rows}")):
        locate(build(shape), np.zeros(rows))


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
    on a point halfway from the reference point to vertex 0, which reaches
    the planes."""
    idx = build(shape)
    p = tuple((0.5 * (idx.x_t + shape.vertices[0])).tolist())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        locate(idx, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
