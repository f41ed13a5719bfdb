"""Angular slab index: boundary parameterization, build, queries."""

import collections
import warnings

import numpy as np
import pytest

from convexloc import (Aabb, CapExceeded, Containment, EvalCounter, GenSpec2,
                       QuerySpec, ReferenceNotInterior, SLAB_CAP,
                       ZeroDirection, boundary_param, boundary_param_batch,
                       build_polar_index, centroid,
                       gen_convex_polygon, gen_query_points,
                       locate_linear_2d_batch, locate_polar,
                       locate_polar_batch, validate_polygon)

from oracles import (boundary_param_batch_reference, brute_exit_edges, nonfinite_rows,
                     point_types, policy_edge_points, reaches_planes)

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


def test_slab_count_clamp_warns():
    """Derived and requested budgets both warn when clamped to SLAB_CAP."""
    ellipse = gen_convex_polygon(GenSpec2(n=4096, seed=0, jitter=0.9,
                                          semi_axes=(100, 1)))
    with pytest.warns(CapExceeded):
        assert build_polar_index(ellipse).n_slabs == SLAB_CAP
    with pytest.warns(CapExceeded):
        assert build_polar_index(SQUARE, n_slabs=SLAB_CAP + 1).n_slabs == SLAB_CAP


def test_doubling_slabs_never_increases_candidates():
    poly = gen_convex_polygon(GenSpec2(23, 6))
    coarse = build_polar_index(poly, n_slabs=64)
    fine = build_polar_index(poly, n_slabs=128)
    mapped = coarse.counts[np.arange(128) // 2]
    assert (fine.counts <= mapped).all()


def test_reference_point_must_be_interior():
    with pytest.raises(ReferenceNotInterior):
        build_polar_index(SQUARE, x_t=(1.5, 0.5))
    with pytest.raises(ReferenceNotInterior):
        build_polar_index(SQUARE, x_t=(1.0, 0.5))  # on the boundary


def test_exit_edge_always_listed():
    """Superset property: for a dense direction sweep, the edge the ray
    actually exits through must be among the slab's candidates."""
    for spec in (GenSpec2(16, 1), GenSpec2(64, 2, semi_axes=(1.5, 1.0)),
                 GenSpec2(257, 3, rotation=0.8)):
        poly = gen_convex_polygon(spec)
        idx = build_polar_index(poly)
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


def test_polar_scalar_equals_batch():
    """Same codes on both paths, also at the edges of the shared policy, and
    the scalar path evaluates exactly the slab the batch path picks, which
    bucket_of_point finds as bucket_of does; for tuples and for float64,
    float32 and int rows alike.  Non-finite points cost no evaluation."""
    poly = gen_convex_polygon(GenSpec2(21, 17))
    idx = build_polar_index(poly)
    pts = np.vstack([gen_query_points(poly.aabb, QuerySpec(300, 18)),
                     poly.vertices, policy_edge_points(poly, idx.x_t), nonfinite_rows(2)])
    for name, (arr, rows) in point_types(pts).items():
        batch = locate_polar_batch(idx, arr)
        counters = [EvalCounter() for _ in rows]
        scalar = [int(locate_polar(idx, p, c)) for p, c in zip(rows, counters)]
        np.testing.assert_array_equal(batch, scalar, err_msg=name)
        q = np.asarray(arr, dtype=float)
        reached = reaches_planes(poly, idx.x_t, q)
        want = np.zeros(len(q), dtype=np.int64)
        want[reached] = idx.counts[idx.slab_of(boundary_param_batch(idx.box, idx.x_t,
                                                                    q[reached]))]
        evals = np.array([c.evals for c in counters])
        np.testing.assert_array_equal(evals, want, err_msg=name)
        assert 0 < reached.sum() < len(q)
        assert ([idx.bucket_of_point(p) for p, hit in zip(rows, reached) if hit]
                == idx.bucket_of(q[reached]).tolist()), name
        bad = ~np.isfinite(q).all(axis=1)
        assert (batch[bad] == Containment.OUTSIDE).all() and not evals[bad].any()


def test_polar_eval_count_bounded_by_occupancy():
    poly = gen_convex_polygon(GenSpec2(128, 21))
    idx = build_polar_index(poly)
    pts = gen_query_points(poly.aabb, QuerySpec(500, 22))
    for p in pts:
        c = EvalCounter()
        locate_polar(idx, p, c)
        assert c.evals <= idx.max_occupancy


def test_explicit_x_t_is_respected():
    poly = gen_convex_polygon(GenSpec2(12, 4))
    off = centroid(poly) + [0.05, -0.03]
    idx = build_polar_index(poly, x_t=off)
    np.testing.assert_allclose(idx.x_t, off)
    pts = gen_query_points(poly.aabb, QuerySpec(400, 5))
    np.testing.assert_array_equal(locate_polar_batch(idx, pts),
                                  locate_linear_2d_batch(poly, pts))


def test_polar_index_immutable():
    idx = build_polar_index(SQUARE)
    with pytest.raises(Exception):
        idx.edges[0] = 7
    with pytest.raises(Exception):
        idx.counts[0] = 7
