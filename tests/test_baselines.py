"""Linear, wedge and slab reference locators."""

import math
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
from convexloc.buckets import LEAVES_PER_POINT

from oracles import (crossing_number_inside, crowded_ngon, near_reference, nonfinite_rows,
                     qhull_min_signed_distance, wedge_fan_lines, y_slab_of_leaf_reference)

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
    """The square's ordinates 0, 0, 1, 1 crowd the first and the last of
    its four coarse slabs, which are cut into LEAVES_PER_POINT * 2 = 16
    slabs each."""
    idx = build_uniform_slabs(SQUARE)
    assert idx.n_slabs == 34
    assert idx.leaves.leaf_base.tolist() == [0, 16, 17, 18, 34]
    assert int(idx.slab_of(0.35)) == 16
    assert int(idx.slab_of(0.0)) == 0
    assert int(idx.slab_of(-1.0)) == 0   # y <= y_min clips to the first slab
    assert int(idx.slab_of(1.0)) == 33   # y >= y_max clips to the last slab
    assert int(idx.slab_of(2.0)) == 33
    assert int(idx.slab_of(0.999999)) == 33


def _side_counts(idx, poly):
    """Per-slab numbers of listed left-chain and right-chain edges."""
    dy = _dy(poly)
    listed = [dy[idx.bucket(i)] for i in range(idx.n_slabs)]
    return (np.array([(d < 0).sum() for d in listed]),
            np.array([(d > 0).sum() for d in listed]))


def test_uniform_triangle_side_counts():
    """The two ordinates 0 crowd the first coarse slab, cut into 16: the
    horizontal bottom edge is listed in the first of those only."""
    idx = build_uniform_slabs(TRIANGLE)
    left, right = _side_counts(idx, TRIANGLE)
    assert list(left) == [1] * 18
    assert list(right) == [1] * 18
    assert list(idx.counts - left - right) == [1] + [0] * 17


def test_uniform_edges_cover_their_slab_ranges():
    """Brute-force check: edge e is listed in slab i iff its ordinate range
    maps onto i under the same slab map."""
    poly = random_polygon(29, 77)
    idx = build_uniform_slabs(poly)
    assert idx.n_slabs == 115
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
    """65,536 pairs of vertices, each 1e-3 of an edge gap apart, ask for
    1,146,311 y-slabs: clamped to SLAB_CAP equal slabs, with a warning."""
    with pytest.warns(CapExceeded, match="uniform slab count 1146311 clamped to 1048576"):
        idx = build_uniform_slabs(crowded_ngon(65536, 1e-3, 1))
    assert idx.n_slabs == 1 << 20
    assert np.array_equal(idx.leaves.leaf_base, np.arange((1 << 20) + 1))


def test_uniform_mirror_symmetry_keeps_default_sane():
    # regular polygons have ~1ulp ordinate pairs; those must not blow up
    # the default slab count
    poly = random_polygon(64, 0, jitter=0.0)
    idx = build_uniform_slabs(poly)
    assert idx.n_slabs < 10000


def _bound_shapes(corpus2d):
    """(name, polygon) of every shape the bound on default 1D tables is
    checked on: corpus2d, the crowded 64-gons, the 100:1 ellipse 4096-gon,
    the thin-slab quads and regular (jitter 0) n-gons."""
    entries, _ = corpus2d
    yield from ((f"corpus2d[{k}]", poly) for k, (poly, _, _) in enumerate(entries))
    for f in (1e-3, 1e-5, 1e-7):
        yield f"64-gon+{f}", crowded_ngon(64, f, 64)
    yield "ellipse-100-to-1", random_polygon(4096, 0, jitter=0.9, semi_axes=(100, 1))
    for case in THIN_SLAB_CASES:
        yield f"thin-{case.id}", validate_polygon(case.values[0])
    for n in (64, 1024, 16384):
        yield f"regular-{n}", random_polygon(n, 0, jitter=0.0)


def test_default_1d_tables_keep_the_leaf_bound(corpus2d):
    """Every default polar and uniform y-slab table has at most
    (LEAVES_PER_POINT + 1) * N rows, and none clamps: pytest.ini makes a
    CapExceeded an error."""
    for name, poly in _bound_shapes(corpus2d):
        for build in (build_polar_index, build_uniform_slabs):
            idx = build(poly)
            assert idx.n_slabs <= (LEAVES_PER_POINT + 1) * poly.n, (name, build.__name__)


def test_uniform_slab_map_equals_reference_bit_for_bit(corpus2d):
    """slab_of of every default uniform y-slab index gives
    y_slab_of_leaf_reference's slab bit for bit, as an array and for
    Python floats (0-d): on the ordinates of the shape's vertices and of
    200 points over its box, at its coarse-slab and leaf edges (at most
    about 2048, evenly chosen) and on either side of them, and at y_min,
    y_max and the band beyond them, which map to the first and the last
    slab."""
    split = 0
    for name, poly in _bound_shapes(corpus2d):
        idx = build_uniform_slabs(poly)
        base = idx.leaves.leaf_base
        lo, hi = float(poly.aabb.lo[1]), float(poly.aabb.hi[1])
        split += int((np.diff(base) > 1).sum())
        n, s = len(base) - 1, np.diff(base)
        coarse = np.repeat(np.arange(n), s)
        within = np.arange(base[-1]) - np.repeat(base[:-1], s)
        edges = lo + (coarse + within / np.repeat(s, s)) * ((hi - lo) / n)
        edges = edges[::len(edges) // 2048 + 1]
        eps_q = poly.tol.eps_q
        ends = np.array([lo, hi, lo - eps_q, hi + eps_q, np.nextafter(lo, -np.inf),
                         np.nextafter(hi, np.inf), lo - 1.0, hi + 1.0])
        pts = gen_query_points(poly.aabb, QuerySpec(200, 1))
        y = np.concatenate([poly.vertices[:, 1], pts[:, 1],
                            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                            ends])
        got = idx.slab_of(y)
        assert got.dtype == np.int64
        assert np.array_equal(got, y_slab_of_leaf_reference(y, base, lo, hi)), name
        for v in (*ends.tolist(), *y[:20].tolist()):
            got = idx.slab_of(v)
            assert got.shape == () and got.dtype == np.int64
            assert int(got) == int(y_slab_of_leaf_reference(v, base, lo, hi)), (name, v)
        assert idx.slab_of(ends).tolist() == [0, idx.n_slabs - 1] * 4, name
    assert split > 100


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
    assert idx.n_slabs == 41
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
