"""Linear, wedge and slab reference locators."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from convexloc import (CapExceeded, Containment, EvalCounter, build_polar_index,
                       build_sorted_slabs, build_uniform_slabs,
                       build_wedge_index, gen_convex_polygon, GenSpec2,
                       gen_query_points, QuerySpec, locate_linear_2d,
                       locate_linear_2d_batch, locate_linear_3d,
                       locate_linear_3d_batch, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch,
                       locate_uniform_slabs, locate_uniform_slabs_batch,
                       locate_wedge, locate_wedge_batch, min_signed_distance,
                       validate_polygon, validate_polyhedron)
from convexloc.baselines import near

from oracles import (crossing_number_inside, near_reference, nonfinite_rows,
                     qhull_min_signed_distance, wedge_fan_lines)

SQUARE = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = validate_polygon([(0, 0), (1, 0), (0.5, 1)])


def random_polygon(n, seed, **kw):
    return gen_convex_polygon(GenSpec2(n=n, seed=seed, **kw))


def test_linear_square_classification():
    assert locate_linear_2d(SQUARE, (0.5, 0.5)) == Containment.INSIDE
    assert locate_linear_2d(SQUARE, (1.0, 0.5)) == Containment.ON_BOUNDARY
    assert locate_linear_2d(SQUARE, (1.0 + 1e-6, 0.5)) == Containment.OUTSIDE
    # inside the eps_q band counts as boundary
    assert locate_linear_2d(SQUARE, (1.0 + 1e-10, 0.5)) == Containment.ON_BOUNDARY
    assert locate_linear_2d(SQUARE, (0.0, 0.0)) == Containment.ON_BOUNDARY


def test_linear_cube_classification():
    cube = validate_polyhedron(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
         (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
         (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)])
    assert locate_linear_3d(cube, (0.5, 0.5, 0.5)) == Containment.INSIDE
    assert locate_linear_3d(cube, (0.5, 0.5, 1.0)) == Containment.ON_BOUNDARY
    assert locate_linear_3d(cube, (0.5, 0.5, 1.5)) == Containment.OUTSIDE


def test_linear_against_independent_oracles():
    """The linear scan anchors every other comparison, so check it against
    two implementations that share none of its code: even-odd ray casting
    and qhull's plane equations."""
    rng = np.random.default_rng(99)
    for seed in (0, 1, 2):
        poly = random_polygon(33, seed, semi_axes=(1.4, 0.8), rotation=0.5)
        pts = rng.uniform(-2, 2, size=(800, 2))
        codes = locate_linear_2d_batch(poly, pts)
        oracle_d = qhull_min_signed_distance(poly.vertices, pts)
        clear = np.abs(oracle_d) > 1e-9
        np.testing.assert_array_equal(codes[clear] == 1, oracle_d[clear] > 0)
        inside = crossing_number_inside(poly.vertices, pts)
        np.testing.assert_array_equal(codes[clear] == 1, inside[clear])


def test_min_signed_distance_matches_qhull():
    poly = random_polygon(12, 5)
    pts = np.random.default_rng(1).uniform(-2, 2, size=(200, 2))
    np.testing.assert_allclose(min_signed_distance(poly, pts),
                               qhull_min_signed_distance(poly.vertices, pts),
                               atol=1e-9)


# ---------------------------------------------------------------------------
# wedge bisection
# ---------------------------------------------------------------------------

def test_wedge_square_cases():
    idx = build_wedge_index(SQUARE)
    assert locate_wedge(idx, (0.5, 0.5)) == Containment.INSIDE
    assert locate_wedge(idx, (1.0, 0.5)) == Containment.ON_BOUNDARY
    assert locate_wedge(idx, (0.0, 0.0)) == Containment.ON_BOUNDARY  # apex
    # edges 0 and 3 bound the fan; the first and last wedge list them
    for p in [(0.5, 0.0), (0.0, 0.5)]:
        c = EvalCounter()
        assert locate_wedge(idx, p, c) == Containment.ON_BOUNDARY
        assert (c.fan_evals, c.wedge_evals, c.evals) == (2, 1, 2)
    c = EvalCounter()
    assert locate_wedge(idx, (-1.0, -1.0), c) == Containment.OUTSIDE
    # angular rejection: no boundary-edge evaluation at all
    assert c.evals == 0
    assert c.fan_evals == 2


def test_wedge_bisection_count_64gon():
    """A 64-gon needs exactly ceil(log2(62)) = 6 bisection steps."""
    poly = random_polygon(64, 3, jitter=0.0)
    idx = build_wedge_index(poly)
    c = EvalCounter()
    assert locate_wedge(idx, (0.0, 0.0), c) == Containment.INSIDE
    assert c.wedge_evals == 6
    assert c.fan_evals == 2
    assert c.evals <= 2


@pytest.mark.parametrize("n", [3, 4, 5, 16, 63, 64, 512])
def test_wedge_eval_bound(n):
    poly = random_polygon(n, n)
    idx = build_wedge_index(poly)
    pts = gen_query_points(poly.aabb, QuerySpec(300, n + 1))
    bound = math.ceil(math.log2(n - 1)) + 2
    # a triangle's only wedge is first and last at once, folding both ends
    decision_bound = 3 if n == 3 else 2
    for p in pts:
        c = EvalCounter()
        locate_wedge(idx, p, c)
        assert c.fan_evals + c.wedge_evals <= bound
        assert c.evals <= decision_bound


def test_wedge_fan_lines_match_reference(corpus2d):
    """The fan lines built by core.line_halfplanes are the bits of the
    wedge's own former formula, kept in tests/oracles.py."""
    for poly, _, _ in corpus2d[0]:
        got = build_wedge_index(poly).g_planes
        assert got.tobytes() == wedge_fan_lines(poly.vertices).tobytes()


def test_near_matches_the_column_loop(corpus2d, corpus3d):
    """near, one row_norm2, gives the mask of its former column loop on the
    corpus query points at radii from eps_len to the farthest point, and on
    NaN, +-inf and 1e300 rows."""
    for shape, pts, _ in corpus2d[0] + corpus3d[0]:
        center = shape.vertices[0]
        dist = np.linalg.norm(pts - center, axis=1)
        huge = np.full((3, shape.dim), 1e300) * [[1.0], [-1.0], [0.0]]
        rows = np.concatenate([pts, nonfinite_rows(shape.dim), huge, huge + center])
        for r in (shape.tol.eps_len, *np.quantile(dist, [0.0, 0.5, 1.0]).tolist()):
            assert np.array_equal(near(pts, center, r), near_reference(pts, center, r))
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.array_equal(near(rows, center, r), near_reference(rows, center, r))


def test_wedge_matches_linear():
    for seed in range(6):
        poly = random_polygon(7 + 13 * seed, seed)
        idx = build_wedge_index(poly)
        pts = gen_query_points(poly.aabb, QuerySpec(500, seed + 50))
        np.testing.assert_array_equal(locate_wedge_batch(idx, pts),
                                      locate_linear_2d_batch(poly, pts))


def test_wedge_scalar_equals_batch():
    poly = random_polygon(19, 8)
    idx = build_wedge_index(poly)
    pts = np.vstack([gen_query_points(poly.aabb, QuerySpec(200, 9)),
                     poly.vertices, [poly.vertices[0]]])
    batch = locate_wedge_batch(idx, pts)
    scalar = [int(locate_wedge(idx, p)) for p in pts]
    np.testing.assert_array_equal(batch, scalar)


# ---------------------------------------------------------------------------
# sorted slabs
# ---------------------------------------------------------------------------

def _dy(poly):
    """Ordinate change along every edge: < 0 on the left chain, > 0 on the
    right chain, 0 for a horizontal edge."""
    y = poly.vertices[:, 1]
    return np.roll(y, -1) - y


def test_sorted_slabs_square_layout():
    idx = build_sorted_slabs(SQUARE)
    np.testing.assert_allclose(idx.ys, [0.0, 1.0])
    assert sorted(idx.bucket(0)) == [0, 1, 2, 3]


def test_sorted_slabs_triangle_layout():
    idx = build_sorted_slabs(TRIANGLE)
    np.testing.assert_allclose(idx.ys, [0.0, 1.0])
    assert sorted(idx.bucket(0)) == [0, 1, 2]


def test_sorted_slabs_chain_structure():
    """Each slab lists exactly one left and one right chain edge, each
    spanning the slab; a horizontal edge is listed only in the first slab
    (bottom edge) or the last slab (top edge)."""
    hexagon = validate_polygon([(0, 0), (1, 0), (1.5, 1), (1, 2), (0, 2), (-0.5, 1)])
    for poly in (random_polygon(41, 4), SQUARE, TRIANGLE, hexagon):
        idx = build_sorted_slabs(poly)
        v = poly.vertices
        dy = _dy(poly)
        last = len(idx.ys) - 2
        for j in range(last + 1):
            listed = idx.bucket(j)
            for chain in (listed[dy[listed] < 0], listed[dy[listed] > 0]):
                assert len(chain) == 1
                e = chain[0]
                y0, y1 = sorted([v[e, 1], v[(e + 1) % poly.n, 1]])
                assert y0 <= idx.ys[j] and idx.ys[j + 1] <= y1
            for e in listed[dy[listed] == 0]:
                assert j == (0 if v[e, 1] == idx.ys[0] else last)
        assert len(idx.edges) == 2 * (last + 1) + (dy == 0).sum()


def test_sorted_slabs_matches_linear():
    for seed in range(5):
        poly = random_polygon(6 + 17 * seed, seed + 20)
        idx = build_sorted_slabs(poly)
        pts = gen_query_points(poly.aabb, QuerySpec(500, seed + 70))
        np.testing.assert_array_equal(locate_sorted_slabs_batch(idx, pts),
                                      locate_linear_2d_batch(poly, pts))


def test_sorted_slabs_scalar_equals_batch():
    poly = random_polygon(23, 31)
    idx = build_sorted_slabs(poly)
    pts = np.vstack([gen_query_points(poly.aabb, QuerySpec(200, 32)),
                     poly.vertices])
    np.testing.assert_array_equal(locate_sorted_slabs_batch(idx, pts),
                                  [int(locate_sorted_slabs(idx, p)) for p in pts])


# A top edge that rises by 1e-10 leaves a slab that thin at the top; the
# mirrored quad leaves one at the bottom.  Each point is 0.358 outside.
THIN_SLAB_CASES = [
    pytest.param([(-1, 0), (1, 0), (0.5, 1), (-0.5, 1 + 1e-10)],
                 [(0.9, 1.0), (0.9, 1 + 1e-11)], id="top"),
    pytest.param([(-1, 1), (1, 1), (0.5, 0), (-0.5, -1e-10)], [(0.9, -1e-11)], id="bottom"),
]


def _thin_slab_codes(vertices, points, build, locate):
    poly = validate_polygon(vertices)
    pts = np.array(points, dtype=float)
    np.testing.assert_allclose(min_signed_distance(poly, pts), -0.35777, atol=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapExceeded)   # the uniform budget clamps
        return locate(build(poly), pts)


@pytest.mark.parametrize("vertices, points", THIN_SLAB_CASES)
@pytest.mark.parametrize("build, locate", [
    (lambda s: s, locate_linear_2d_batch), (build_wedge_index, locate_wedge_batch),
    (build_uniform_slabs, locate_uniform_slabs_batch), (build_polar_index, locate_polar_batch),
], ids=["linear", "wedge", "slabs-uniform", "polar"])
def test_points_beyond_a_thin_slab_are_outside(vertices, points, build, locate):
    codes = _thin_slab_codes(vertices, points, build, locate)
    assert (codes == Containment.OUTSIDE).all()


@pytest.mark.xfail(strict=True, reason=(
    "defect: a sorted y-slab lists one edge per chain, and in a slab thinner than "
    "eps_q the near-horizontal edge's line is evaluated beyond that edge's end, so "
    "points 0.358 outside are OnBoundary (ROADMAP item 3)"))
@pytest.mark.parametrize("vertices, points", THIN_SLAB_CASES)
def test_points_beyond_a_thin_sorted_slab_are_outside(vertices, points):
    codes = _thin_slab_codes(vertices, points, build_sorted_slabs, locate_sorted_slabs_batch)
    assert (codes == Containment.OUTSIDE).all()


# ---------------------------------------------------------------------------
# uniform slabs
# ---------------------------------------------------------------------------

def test_uniform_slab_arithmetic():
    idx = build_uniform_slabs(SQUARE)
    assert idx.n_slabs == 4
    assert int(idx.slab_of(0.35)) == 1
    assert int(idx.slab_of(0.0)) == 0
    assert int(idx.slab_of(1.0)) == 3  # y == y_max clamps to the last slab
    assert int(idx.slab_of(0.999999)) == 3


def _side_counts(idx, poly):
    """Per-slab numbers of listed left-chain and right-chain edges."""
    dy = _dy(poly)
    listed = [dy[idx.bucket(i)] for i in range(idx.n_slabs)]
    return (np.array([(d < 0).sum() for d in listed]),
            np.array([(d > 0).sum() for d in listed]))


def test_uniform_triangle_side_counts():
    idx = build_uniform_slabs(TRIANGLE)
    left, right = _side_counts(idx, TRIANGLE)
    assert list(left) == [1, 1, 1]
    assert list(right) == [1, 1, 1]
    assert list(idx.counts - left - right) == [1, 0, 0]


def test_uniform_edges_cover_their_slab_ranges():
    """Brute-force check: edge e is listed in slab i iff its ordinate range
    maps onto i under the same floor arithmetic."""
    poly = random_polygon(29, 77)
    idx = build_uniform_slabs(poly)
    assert idx.n_slabs == 3771
    v = poly.vertices
    listed = {(int(i), int(e)) for i in range(idx.n_slabs)
              for e in idx.bucket(i)}
    expect = set()
    for e in range(poly.n):
        y0, y1 = sorted([v[e, 1], v[(e + 1) % poly.n, 1]])
        for i in range(int(idx.slab_of(y0)), int(idx.slab_of(y1)) + 1):
            expect.add((i, e))
    assert listed == expect


def test_uniform_per_side_occupancy_invariant():
    """Per side, a slab lists at most 1 + (vertices strictly inside it)."""
    for seed in (0, 5, 9):
        poly = random_polygon(31, seed)
        idx = build_uniform_slabs(poly)
        v = poly.vertices
        vs = idx.slab_of(v[:, 1])
        strict = np.bincount(vs, minlength=idx.n_slabs)
        left, right = _side_counts(idx, poly)
        assert (left <= 1 + strict).all()
        assert (right <= 1 + strict).all()


def test_uniform_cap_warning():
    poly = validate_polygon([(0, 0), (1, 5e-10), (1.2, 0.6), (0.3, 1)])
    with pytest.warns(CapExceeded):
        idx = build_uniform_slabs(poly)
    assert idx.n_slabs == 1 << 20


def test_uniform_mirror_symmetry_keeps_default_sane():
    # regular polygons have ~1ulp ordinate pairs; those must not blow up
    # the default slab count
    poly = random_polygon(64, 0, jitter=0.0)
    idx = build_uniform_slabs(poly)
    assert idx.n_slabs < 10000


def test_uniform_matches_linear():
    for seed in range(5):
        poly = random_polygon(9 + 11 * seed, seed + 40)
        idx = build_uniform_slabs(poly)
        pts = gen_query_points(poly.aabb, QuerySpec(500, seed + 90))
        np.testing.assert_array_equal(locate_uniform_slabs_batch(idx, pts),
                                      locate_linear_2d_batch(poly, pts))


def test_uniform_scalar_equals_batch():
    poly = random_polygon(14, 2)
    idx = build_uniform_slabs(poly)
    assert idx.n_slabs == 121
    pts = np.vstack([gen_query_points(poly.aabb, QuerySpec(200, 3)),
                     poly.vertices])
    np.testing.assert_array_equal(locate_uniform_slabs_batch(idx, pts),
                                  [int(locate_uniform_slabs(idx, p)) for p in pts])


def test_batch_paths_are_thread_safe():
    poly = random_polygon(64, 13)
    idx = build_uniform_slabs(poly)
    widx = build_wedge_index(poly)
    pts = gen_query_points(poly.aabb, QuerySpec(2000, 14))
    expect_u = locate_uniform_slabs_batch(idx, pts)
    expect_w = locate_wedge_batch(widx, pts)
    with ThreadPoolExecutor(max_workers=4) as ex:
        results = list(ex.map(lambda _: locate_uniform_slabs_batch(idx, pts),
                              range(8)))
        results_w = list(ex.map(lambda _: locate_wedge_batch(widx, pts),
                                range(8)))
    for r in results:
        np.testing.assert_array_equal(r, expect_u)
    for r in results_w:
        np.testing.assert_array_equal(r, expect_w)
