"""The bucket-table contract every bucketed index shares (buckets.BucketTable)."""

import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from convexloc import (CapExceeded, GenSpec2, build_cubemap_index, build_polar_index,
                       build_sorted_slabs, build_uniform_slabs, build_wedge_index,
                       gen_convex_polygon, icosphere, validate_polygon,
                       validate_polyhedron)
from convexloc.buckets import BucketTable

from oracles import csr_pack, runs_pairs

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
    assert padded.shape == (n, idx.max_occupancy)
    assert idx.max_occupancy == int(idx.counts.max())
    assert idx.mean_occupancy == idx.counts.mean()
    for b in range(n):
        assert set(padded[b].tolist()) == set(idx.bucket(b).tolist())


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
    """The table's arrays are the two-pass reference's, bit for bit."""
    got = (idx.offsets, idx.edges, idx.counts, idx.padded_edges)
    for name, a, b in zip(("offsets", "edges", "counts", "padded_edges"), got, ref):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
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
