"""Angular slab index: boundary parameterization, build, queries."""

import collections
import dataclasses
import warnings

import numpy as np
import pytest

from convexloc import (Aabb, CapExceeded, Containment, EvalCounter, GenSpec2,
                       QuerySpec, ReferenceNotInterior, SLAB_CAP,
                       ZeroDirection, boundary_param, boundary_param_batch,
                       build_polar_index,
                       gen_convex_polygon, gen_query_points,
                       locate_linear_2d_batch, locate_polar,
                       locate_polar_batch, polar, validate_polygon)

from convexloc.buckets import LeafMap

from oracles import (boundary_param_batch_reference, brute_exit_edges, crowded_ngon,
                     slab_of_leaf_reference, slab_of_reference)

UNIT_BOX = Aabb(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
SQUARE = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIAMOND = validate_polygon([(0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)])


def test_boundary_param_example_points():
    assert boundary_param(UNIT_BOX, (0.5, 0.5), (1.0, 0.75)) == pytest.approx(0.75)
    assert boundary_param(UNIT_BOX, (0.5, 0.5), (0.5, 2.0)) == pytest.approx(1.5)
    # one point per side
    assert boundary_param(UNIT_BOX, (0.5, 0.5), (2.0, 0.5)) == pytest.approx(0.5)
    assert boundary_param(UNIT_BOX, (0.5, 0.5), (-1.0, 0.5)) == pytest.approx(2.5)
    assert boundary_param(UNIT_BOX, (0.5, 0.5), (0.5, -3.0)) == pytest.approx(3.5)


def test_boundary_param_continuous_at_corners():
    """Approaching a corner from either adjacent side gives the same u."""
    for corner, u_at in (((1, 0), 0.0), ((1, 1), 1.0), ((0, 1), 2.0), ((0, 0), 3.0)):
        for tweak in ((1e-9, 0), (-1e-9, 0), (0, 1e-9), (0, -1e-9)):
            d = np.asarray(corner, dtype=float) - 0.5 + tweak
            u = boundary_param(UNIT_BOX, (0.5, 0.5), 0.5 + d * 3.0)
            assert min(abs(u - u_at), abs(u - u_at - 4.0)) < 1e-7


def test_boundary_param_zero_direction():
    with pytest.raises(ZeroDirection):
        boundary_param(UNIT_BOX, (0.5, 0.5), (0.5, 0.5))


def test_boundary_param_strictly_monotone_in_angle():
    """u must be strictly increasing over one full CCW sweep of directions.

    1e6 random directions are sorted by angle starting at the direction of
    the reference corner (x_max, y_min); their u values must then be
    strictly sorted too.
    """
    rng = np.random.default_rng(2024)
    x_t = np.array([0.37, 0.61])
    ang0 = np.arctan2(UNIT_BOX.lo[1] - x_t[1], UNIT_BOX.hi[0] - x_t[0])
    th = rng.uniform(0, 2 * np.pi, 1_000_000)
    pts = x_t + np.column_stack([np.cos(th), np.sin(th)])
    u = boundary_param_batch(UNIT_BOX, x_t, pts)
    key = np.mod(th - ang0, 2 * np.pi)
    order = np.argsort(key)
    du = np.diff(u[order])
    assert (du > 0).all()
    assert u.min() >= 0.0 and u.max() < 4.0


def test_boundary_param_batch_equals_scalar():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(500, 2))
    x_t = (0.42, 0.58)
    keep = np.hypot(pts[:, 0] - x_t[0], pts[:, 1] - x_t[1]) > 1e-9
    batch = boundary_param_batch(UNIT_BOX, x_t, pts[keep])
    scalar = [boundary_param(UNIT_BOX, x_t, p) for p in pts[keep]]
    np.testing.assert_allclose(batch, scalar, atol=1e-13)


def test_boundary_param_batch_equals_reference_bit_for_bit(corpus2d):
    """The max-form direction map gives the masked-divide reference's u bit
    for bit: on the in-box points of every corpus polygon, on 3e5 random
    directions, 4000 of them axis-aligned with +0 and -0 components, and on
    the box corners."""
    entries, _ = corpus2d
    for poly, pts, idx in entries:
        sub = pts[poly.aabb.contains(pts, pad=poly.tol.eps_q)]
        assert np.array_equal(boundary_param_batch(idx.box, idx.x_t, sub),
                              boundary_param_batch_reference(idx.box, idx.x_t, sub))
    box = Aabb(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))
    x_t = np.zeros(2)       # -0.0 - 0.0 is -0.0: a direction with a -0 component
    d = np.random.default_rng(15).normal(size=(300_000, 2))
    d[:2000, 0] = 0.0
    d[1000:2000, 0] = -0.0
    d[2000:4000, 1] = 0.0
    d[3000:4000, 1] = -0.0
    corners = np.array([[-1.0, -2.0], [3.0, -2.0], [3.0, 1.0], [-1.0, 1.0]])
    for q in (x_t + d, corners):
        assert np.array_equal(boundary_param_batch(box, x_t, q),
                              boundary_param_batch_reference(box, x_t, q))
    assert (np.signbit(d[:, 0]) & (d[:, 0] == 0.0)).sum() == 1000


def test_select_equals_where_bit_for_bit():
    """The integer-mask select gives np.where's bits, and leaves its inputs
    as they were, on random masks over +-0, +-inf, subnormals and NaNs with
    payloads and either sign."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -2.0], nans])
    rng = np.random.default_rng(19)
    for n in (0, 1, 10_000):
        a, b = rng.choice(special, n), rng.choice(special, n)
        mask = rng.random(n) < 0.5
        a0, b0 = a.copy(), b.copy()
        got = polar._select(mask, a, b)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), np.where(mask, a, b).view(np.int64))
        assert np.array_equal(a.view(np.int64), a0.view(np.int64))
        assert np.array_equal(b.view(np.int64), b0.view(np.int64))


def test_slab_of_equals_floor_and_modulo(corpus2d):
    """With an explicit n_slabs, the truncating slab map with its single
    wrap gives the floor-and-% slab: on the u of every corpus polygon's
    points, at 0 and at the largest u below U, for an array and for a Python
    float (a 0-d result).  A default build gives slab_of_leaf_reference's
    slab on the same u.  At n = 3 and U = 7.3 the largest u below U maps to
    3.0, the one value the wrap sends to slab 0."""
    entries, _ = corpus2d
    for poly, pts, idx in entries:
        uniform = build_polar_index(poly, n_slabs=8 * poly.n + 1)
        directed = np.linalg.norm(pts - idx.x_t, axis=1) > poly.tol.eps_len
        u = boundary_param_batch(idx.box, idx.x_t, pts[directed])
        ends = np.array([0.0, np.nextafter(idx.perimeter, 0.0)])
        for v in (u, ends, *ends.tolist(), *u[:3].tolist()):
            for got, want in (
                    (uniform.slab_of(v), slab_of_reference(v, uniform.n_slabs, idx.perimeter)),
                    (idx.slab_of(v),
                     slab_of_leaf_reference(v, idx.leaves.leaf_base, idx.perimeter))):
                assert got.dtype == np.int64 and got.shape == np.shape(v)
                assert np.array_equal(got, want)
    top = np.nextafter(7.3, 0.0)
    assert top * (3 / 7.3) == 3.0
    leaves = LeafMap.uniform(3, 7.3)
    for v in (top, np.array([0.0, top])):
        assert np.array_equal(leaves.leaf_of(v), slab_of_reference(v, 3, 7.3))
    assert int(leaves.leaf_of(top)) == 0


def leaf_edges(leaves, perimeter):
    """Every coarse-slab and leaf edge of a leaf map as u, with the float
    on either side of it, inside [0, perimeter)."""
    base = leaves.leaf_base
    n = len(base) - 1
    s = np.diff(base)
    coarse = np.repeat(np.arange(n), s)
    within = np.arange(base[-1]) - np.repeat(base[:-1], s)
    u = (coarse + within / np.repeat(s, s)) * (perimeter / n)
    u = np.concatenate([u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf),
                        [np.nextafter(perimeter, 0.0)]])
    return u[(u >= 0.0) & (u < perimeter)]


def test_leaf_map_equals_reference_bit_for_bit(corpus2d):
    """slab_of, bucket_of and bucket_of_floats of every default corpus
    build give slab_of_leaf_reference's slab bit for bit: on the corpus
    points, at every coarse-slab and leaf edge and on either side of it, at
    the largest u below U (the wrap), and for Python floats (0-d); so does
    the float map behind bucket_of_floats at every edge."""
    entries, _ = corpus2d
    split = 0
    for poly, pts, idx in entries:
        base, U = idx.leaves.leaf_base, idx.perimeter
        split += int((np.diff(base) > 1).sum())
        directed = pts[np.linalg.norm(pts - idx.x_t, axis=1) > poly.tol.eps_len]
        u = boundary_param_batch(idx.box, idx.x_t, directed)
        assert np.array_equal(idx.bucket_of(directed), slab_of_leaf_reference(u, base, U))
        edges = leaf_edges(idx.leaves, U)
        want = slab_of_leaf_reference(edges, base, U)
        assert np.array_equal(idx.slab_of(edges), want)
        assert [idx.leaves.leaf_of_float(x) for x in edges.tolist()] == want.tolist()
        for x in (*edges[:40].tolist(), *edges[-40:].tolist()):
            got = idx.slab_of(x)
            assert got.shape == () and got.dtype == np.int64
            assert int(got) == int(slab_of_leaf_reference(x, base, U))
        for q in directed[:50].tolist():
            x = boundary_param(idx.box, idx.x_t, q, poly.tol.eps_len)
            assert idx.bucket_of_floats(q) == int(slab_of_leaf_reference(x, base, U))
    assert split > 100


def test_occupancy_multiset_square_and_diamond():
    """At 8 slabs, a centered square or diamond fills four slabs with two
    candidate edges and four with one.  Asserted as a multiset: which slab
    holds which count may shift by one ulp of boundary parameter."""
    for poly in (SQUARE, DIAMOND):
        idx = build_polar_index(poly, n_slabs=8)
        assert sorted(idx.counts) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert idx.max_occupancy == 2
        assert idx.mean_occupancy == pytest.approx(1.5)


def test_slabs_cover_all_edges_and_stay_contiguous():
    poly = gen_convex_polygon(GenSpec2(37, 123))
    idx = build_polar_index(poly)
    assert (idx.counts >= 1).all()
    seen = collections.defaultdict(list)
    for i in range(idx.n_slabs):
        for e in idx.bucket(i):
            seen[int(e)].append(i)
    assert sorted(seen) == list(range(poly.n))
    for e, slabs in seen.items():
        slabs = np.asarray(sorted(slabs))
        gaps = np.diff(slabs)
        # contiguity mod n_slabs: at most one gap greater than 1
        assert (gaps > 1).sum() <= (0 if len(slabs) == idx.n_slabs else 1)


def test_default_slab_count_keeps_occupancy_low():
    poly = gen_convex_polygon(GenSpec2(1024, 9, jitter=0.0))
    idx = build_polar_index(poly)
    u = boundary_param_batch(idx.box, idx.x_t, poly.vertices)
    assert len(np.unique(idx.slab_of(u))) == poly.n
    assert idx.max_occupancy <= 2


def test_default_slab_count_fits_eccentric_ellipse():
    """A 10:1 ellipse's default budget stays well under SLAB_CAP."""
    ellipse = gen_convex_polygon(GenSpec2(n=4096, seed=0, jitter=0.9,
                                          semi_axes=(10, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CapExceeded)
        idx = build_polar_index(ellipse)
    assert idx.max_occupancy <= 2
    assert idx.n_slabs < 2 ** 18


def exit_edges_unlisted(idx, n_dirs=4096):
    """How many of n_dirs directions from x_t exit through an edge their
    slab does not list."""
    th = np.arange(n_dirs) * (2 * np.pi / n_dirs)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    exit_edge = brute_exit_edges(idx.poly.halfplanes, idx.x_t, dirs)
    slabs = idx.slab_of(boundary_param_batch(idx.box, idx.x_t, idx.x_t + dirs))
    return int((~(idx.padded_edges[slabs] == exit_edge[:, None]).any(axis=1)).sum())


@pytest.mark.parametrize("poly, max_occupancy, max_bytes", [
    (gen_convex_polygon(GenSpec2(n=4096, seed=0, jitter=0.9, semi_axes=(100, 1))), 2, 190e3),
    (crowded_ngon(64, 1e-3, 64), 3, 2e3),
    (crowded_ngon(64, 1e-5, 64), 3, 2e3),
    (crowded_ngon(64, 1e-7, 64), 3, 2e3)],
    ids=["ellipse-100-to-1", "64-gon+1e-3", "64-gon+1e-5", "64-gon+1e-7"])
def test_crowded_vertices_split_only_their_slab(poly, max_occupancy, max_bytes):
    """Shapes whose closest vertices crowd one part of the perimeter: a
    100:1 ellipse and a 64-gon with one vertex 1e-3, 1e-5 or 1e-7 of an
    edge gap from its neighbour.  Each builds with no clamp, lists at most
    max_occupancy edges per slab (3 where a crowded slab reaches its cap of
    LEAVES_PER_POINT leaves per vertex) and every exit edge of a
    4096-direction sweep, and keeps a table (with its counts and leaf
    offsets) within max_bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", CapExceeded)
        idx = build_polar_index(poly)
    assert idx.max_occupancy <= max_occupancy
    kept = idx.padded_edges.nbytes + idx.counts.nbytes + idx.leaves.leaf_base.nbytes
    assert kept < max_bytes
    assert exit_edges_unlisted(idx) == 0


def test_slab_count_clamp_warns():
    """Derived and requested budgets both warn when clamped to SLAB_CAP: a
    131,072-gon of 65,536 pairs of vertices, each 1e-3 of an edge gap
    apart, asks for about 1.1e6 slabs."""
    with pytest.warns(CapExceeded, match="polar slab count"):
        assert build_polar_index(crowded_ngon(65536, 1e-3, 1)).n_slabs == SLAB_CAP
    with pytest.warns(CapExceeded):
        assert build_polar_index(SQUARE, n_slabs=SLAB_CAP + 1).n_slabs == SLAB_CAP


def test_doubling_slabs_never_increases_candidates():
    poly = gen_convex_polygon(GenSpec2(23, 6))
    coarse = build_polar_index(poly, n_slabs=64)
    fine = build_polar_index(poly, n_slabs=128)
    mapped = coarse.counts[np.arange(128) // 2]
    assert (fine.counts <= mapped).all()


def test_vertex_mean_on_the_boundary_is_rejected():
    """A sliver triangle validates, but its vertex mean lies within eps_q of
    its long edge: no index is built around it."""
    sliver = validate_polygon([(0, 0), (1, 0), (0.5, 3e-9)])
    with pytest.raises(ReferenceNotInterior):
        build_polar_index(sliver)


def test_exit_edge_always_listed():
    """Superset property: for a dense direction sweep, the edge the ray
    actually exits through must be among the slab's candidates.  The slab
    map's box is the polygon's bounding box, so the square's vertices are
    its corners and the diamond's lie on its sides."""
    for poly in (SQUARE, DIAMOND, *map(gen_convex_polygon, (
            GenSpec2(16, 1), GenSpec2(64, 2, semi_axes=(1.5, 1.0)),
            GenSpec2(257, 3, rotation=0.8)))):
        idx = build_polar_index(poly)
        assert idx.box is poly.aabb
        x_t = idx.x_t
        th = np.arange(4096) * (2 * np.pi / 4096)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        exit_edge = brute_exit_edges(poly.halfplanes, x_t, dirs)
        u = boundary_param_batch(idx.box, x_t, x_t + dirs)
        slabs = idx.slab_of(u)
        for k in range(len(dirs)):
            assert exit_edge[k] in idx.bucket(int(slabs[k]))


def test_locate_polar_square_cases():
    idx = build_polar_index(SQUARE, n_slabs=8)
    assert locate_polar(idx, (0.5, 0.5)) == Containment.INSIDE
    assert locate_polar(idx, (1.0, 0.3)) == Containment.ON_BOUNDARY
    assert locate_polar(idx, (2.0, 2.0)) == Containment.OUTSIDE
    c = EvalCounter()
    assert locate_polar(idx, (5.0, 5.0), c) == Containment.OUTSIDE
    assert c.evals == 0  # box rejection happens before any edge evaluation
    c = EvalCounter()
    locate_polar(idx, (0.9, 0.2), c)
    assert c.evals <= 2


def test_locate_polar_reference_point_is_inside():
    idx = build_polar_index(DIAMOND)
    assert locate_polar(idx, idx.x_t) == Containment.INSIDE


def test_polar_matches_linear():
    for seed in range(6):
        poly = gen_convex_polygon(GenSpec2(11 + 31 * seed, seed,
                                           semi_axes=(1.2, 0.9)))
        idx = build_polar_index(poly)
        pts = gen_query_points(poly.aabb, QuerySpec(800, seed + 60))
        np.testing.assert_array_equal(locate_polar_batch(idx, pts),
                                      locate_linear_2d_batch(poly, pts))


def test_box_is_the_shape_bounding_box(corpus2d):
    """The slabs divide the perimeter of the shape's own bounding box: box
    reads poly.aabb, not a field of the index, and box_floats is that box as
    (x_min, y_min, x_max, y_max)."""
    assert "box" not in {f.name for f in dataclasses.fields(polar.PolarIndex2)}
    for poly, _, idx in corpus2d[0]:
        assert idx.box is poly.aabb
        assert idx.box_floats == (*poly.aabb.lo.tolist(), *poly.aabb.hi.tolist())


def test_polar_index_immutable():
    idx = build_polar_index(SQUARE)
    with pytest.raises(Exception):
        idx.edges[0] = 7
    with pytest.raises(Exception):
        idx.counts[0] = 7
