"""The bucket-table contract every bucketed index shares (buckets.BucketTable)."""

import numpy as np
import pytest

from convexloc import (GenSpec2, build_cubemap_index, build_polar_index,
                       build_sorted_slabs, build_uniform_slabs, build_wedge_index,
                       gen_convex_polygon, icosphere, validate_polygon,
                       validate_polyhedron)
from convexloc.buckets import BucketTable

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
