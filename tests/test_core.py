"""Geometry core: half-plane/half-space construction, evaluation, validation."""

import collections
import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexloc import (Aabb, CapExceeded, Containment, DegenerateEdge, DegenerateFace,
                       EulerViolation, GenSpec2, NonPlanarFace, NotConvex,
                       Tolerances, TooFewVertices, ValidationError, build_sorted_slabs,
                       build_uniform_slabs, build_wedge_index, centroid, classify_min,
                       gen_convex_polygon, icosphere, locate_cubemap, locate_cubemap_batch,
                       locate_linear_2d, locate_linear_2d_batch, locate_linear_3d,
                       locate_linear_3d_batch, locate_polar, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch, locate_uniform_slabs,
                       locate_uniform_slabs_batch, locate_wedge, locate_wedge_batch,
                       plane_eval, random_affine, validate_polygon, validate_polyhedron)
from convexloc.core import line_halfplanes

from oracles import (all_pairs_validate_polygon, classify_min_reference,
                     line_halfplanes_reference, loop_validate_polyhedron, prism_mesh,
                     regular_polygon)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

CUBE_V = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
          (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CUBE_F = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
          (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]


def test_halfplane_axis_edges():
    h = line_halfplanes(np.array([[0.0, 0.0], [1.0, 0.0]]),
                        np.array([[1.0, 0.0], [1.0, 1.0]]), 1e-12)
    np.testing.assert_allclose(h, [[0, 1, 0], [-1, 0, 1]], atol=1e-15)


def test_halfplane_left_side_positive():
    """The CCW interior side of p->q must evaluate positive.

    Oracle is the construction itself: midpoint displaced by +0.1*len along
    the left normal must be positive, the mirror point negative, endpoints
    zero.
    """
    rng = np.random.default_rng(42)
    p = rng.normal(size=(1000, 2)) * 10
    q = p + rng.normal(size=(1000, 2))
    keep = np.hypot(*(q - p).T) >= 1e-9
    p, q = p[keep], q[keep]
    for pi, qi, h in zip(p, q, line_halfplanes(p, q, 1e-12)):
        d = qi - pi
        ln = np.hypot(*d)
        left = np.array([-d[1], d[0]]) / ln
        mid = 0.5 * (pi + qi)
        assert plane_eval(h, mid + 0.1 * ln * left) > 0
        assert plane_eval(h, mid - 0.1 * ln * left) < 0
        assert abs(plane_eval(h, pi)) < 1e-9 * max(1, ln)
        assert abs(plane_eval(h, qi)) < 1e-9 * max(1, ln)


def test_halfplane_eval_is_metric_distance():
    # unit normal => |eval| equals the point-line distance
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q, x = rng.normal(size=(3, 2)) * 5
        if np.hypot(*(q - p)) < 1e-6:
            continue
        h = line_halfplanes(p[None], q[None], 1e-12)[0]
        d, r = q - p, x - p
        dist = abs(d[0] * r[1] - d[1] * r[0]) / np.hypot(*d)
        assert abs(abs(plane_eval(h, x)) - dist) < 1e-12 * max(1.0, dist)


def test_halfplane_scale_invariant_coefficients():
    p = np.array([[0.3, 0.4]])
    q = np.array([[1.1, 2.0]])
    h1 = line_halfplanes(p, q, 1e-12)
    h2 = line_halfplanes(p, p + 3.7 * (q - p), 1e-12)
    np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_halfplane_degenerate_edge():
    p = np.array([[1.0, 1.0]])
    for eps_len in (0.0, 1e-12):
        with pytest.raises(DegenerateEdge):
            line_halfplanes(p, p.copy(), eps_len)
    with pytest.raises(DegenerateEdge):
        line_halfplanes(p, np.array([[1.0, 1.0 + 1e-15]]), 1e-12)


@given(st.floats(-100, 100), st.floats(-100, 100),
       st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=200)
def test_halfplane_unit_normal_property(px, py, qx, qy):
    if np.hypot(qx - px, qy - py) < 1e-6:
        return
    h = line_halfplanes(np.array([[px, py]]), np.array([[qx, qy]]), 1e-12)[0]
    assert abs(np.hypot(h[0], h[1]) - 1.0) < 1e-12
    assert abs(plane_eval(h, (px, py))) < 1e-10


def test_plane_eval_arities():
    h = np.array([0.0, 1.0, 0.0])
    hs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    pts = np.array([[0.5, 2.0], [3.0, -1.0]])
    assert plane_eval(h, (0.5, 2.0)) == 2.0
    np.testing.assert_allclose(plane_eval(h, pts), [2.0, -1.0])
    np.testing.assert_allclose(plane_eval(hs, (0.5, 2.0)), [2.0, 0.5])
    np.testing.assert_allclose(plane_eval(hs, pts), [[2.0, 0.5], [-1.0, 3.0]])


def test_classify_min_band():
    eps = 1e-9
    assert classify_min(1e-6, eps) == Containment.INSIDE
    assert classify_min(0.0, eps) == Containment.ON_BOUNDARY
    assert classify_min(-eps, eps) == Containment.ON_BOUNDARY
    assert classify_min(eps, eps) == Containment.ON_BOUNDARY
    assert classify_min(-1e-6, eps) == Containment.OUTSIDE
    codes = classify_min(np.array([1e-6, 0.0, -1e-6]), eps)
    assert codes.dtype == np.int8
    assert list(codes) == [1, 0, -1]


@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_classify_min_matches_nested_where(eps):
    """The batch codes equal the nested np.where form bit for bit: on random
    distances around the band, its edges, NaN, +-inf and +-0, for float64
    and float32 input, 2-D and strided arrays and 0-d floats too."""
    rng = np.random.default_rng(5)
    edges = [eps, -eps, np.nextafter(eps, 1), np.nextafter(-eps, -1), 0.0, -0.0,
             np.nan, np.inf, -np.inf]
    m = np.concatenate([rng.normal(0.0, 3 * eps + 1e-12, 28_991), edges])
    rng.shuffle(m)
    for arr in (m, m.astype(np.float32), m.reshape(-1, 8), m[::3]):
        got = classify_min(arr, eps)
        want = classify_min_reference(arr, eps)
        assert got.dtype == want.dtype == np.int8 and got.shape == arr.shape
        assert np.array_equal(got, want)
    for v in edges:
        assert classify_min(float(v), eps) == classify_min_reference(np.float64(v), eps)


def test_centroid_examples():
    sq = validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    np.testing.assert_allclose(centroid(sq), [1.0, 1.0])
    np.testing.assert_allclose(centroid([(0, 0), (3, 0), (0, 3)]), [1.0, 1.0])


def test_centroid_strictly_interior():
    rng = np.random.default_rng(3)
    for n in (3, 5, 17, 101):
        th = np.sort(rng.uniform(0, 2 * np.pi, n))
        if np.diff(th).min() < 1e-3:
            continue
        poly = validate_polygon(np.column_stack([np.cos(th), 0.7 * np.sin(th)]))
        c = centroid(poly)
        assert plane_eval(poly.halfplanes, c).min() > poly.tol.eps_q


def test_validate_polygon_repairs_clockwise():
    ccw = validate_polygon(SQUARE)
    cw = validate_polygon(SQUARE[::-1])
    np.testing.assert_allclose(np.sort(cw.vertices, axis=0),
                               np.sort(ccw.vertices, axis=0))
    assert plane_eval(cw.halfplanes, (0.5, 0.5)).min() > 0
    # idempotent: validating already-validated vertices changes nothing
    again = validate_polygon(cw.vertices)
    np.testing.assert_array_equal(again.vertices, cw.vertices)


def test_validate_polygon_rejections():
    with pytest.raises(NotConvex):
        validate_polygon([(0, 0), (2, 0), (1, 0.1), (0, 1)])  # reflex dent
    with pytest.raises(NotConvex):
        validate_polygon([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear run
    with pytest.raises(DegenerateEdge):
        validate_polygon([(0, 0), (0, 0), (1, 0), (0, 1)])  # repeated vertex
    star = [(np.cos(a), np.sin(a)) if i % 2 == 0 else
            (0.3 * np.cos(a), 0.3 * np.sin(a))
            for i, a in enumerate(np.arange(10) * np.pi / 5)]
    with pytest.raises(NotConvex):
        validate_polygon(star)


NAN = np.nan
# (raw vertices, exception class, message) per vertex check, for the
# polygon validator; the polyhedron cases below mirror them.  Where one
# input breaks two checks, the earlier check names it.
POLYGON_VERTEX_FAULTS = [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], ValidationError,
     "polygon vertices must form an (N, 2) array"),
    ([0.0, 1.0, 2.0], ValidationError, "polygon vertices must form an (N, 2) array"),
    ([(0, 0), (1, NAN), (0, 1)], ValidationError, "polygon coordinates must be finite"),
    ([(0, 0), (np.inf, 0), (0, 1)], ValidationError, "polygon coordinates must be finite"),
    ([(0, NAN), (1, 0)], ValidationError, "polygon coordinates must be finite"),
    ([(0, 0), (1, 0)], TooFewVertices, "polygon needs >= 3 vertices, got 2"),
    ([(1, 1), (1, 1)], TooFewVertices, "polygon needs >= 3 vertices, got 2"),
    ([(1, 1)] * 3, DegenerateEdge, "all vertices coincide"),
]
POLYHEDRON_VERTEX_FAULTS = [
    ([(0, 0), (1, 0), (0, 1), (1, 1)], ValidationError,
     "polyhedron vertices must form a (V, 3) array"),
    ([0.0, 1.0, 2.0, 3.0], ValidationError, "polyhedron vertices must form a (V, 3) array"),
    (CUBE_V[:7] + [(1, 1, NAN)], ValidationError, "polyhedron coordinates must be finite"),
    (CUBE_V[:7] + [(-np.inf, 1, 1)], ValidationError, "polyhedron coordinates must be finite"),
    ([(0, 0, NAN), (1, 0, 0)], ValidationError, "polyhedron coordinates must be finite"),
    (CUBE_V[:3], TooFewVertices, "polyhedron needs >= 4 vertices, got 3"),
    ([(1, 1, 1)] * 3, TooFewVertices, "polyhedron needs >= 4 vertices, got 3"),
    ([(1, 1, 1)] * 8, DegenerateEdge, "all vertices coincide"),
]


@pytest.mark.parametrize("validate,raw,cls,message",
                         [(validate_polygon, *case) for case in POLYGON_VERTEX_FAULTS]
                         + [(lambda v: validate_polyhedron(v, CUBE_F), *case)
                            for case in POLYHEDRON_VERTEX_FAULTS])
def test_vertex_checks_name_the_first_fault(validate, raw, cls, message):
    with pytest.raises(ValidationError) as info:
        validate(raw)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_validate_polygon_rejects_multiply_wound_orders():
    pentagram = regular_polygon(5)[[0, 2, 4, 1, 3]]
    with pytest.raises(NotConvex, match="winds 2 times"):
        validate_polygon(pentagram)
    with pytest.raises(NotConvex, match="winds 3 times"):
        validate_polygon(regular_polygon(7)[(3 * np.arange(7)) % 7])
    th = np.arange(4096) * (4.0 * np.pi / 4097)   # 4096 distinct, two laps
    with pytest.raises(NotConvex, match="winds 2 times"):
        validate_polygon(np.column_stack([np.cos(th), np.sin(th)]))
    # clockwise winding twice is reversed first, then rejected the same way
    with pytest.raises(NotConvex, match="winds 2 times"):
        validate_polygon(pentagram[::-1])
    # the same 2048-gon twice over: every vertex lies on every edge
    # half-plane, so no vertex escapes, but the order winds twice
    with pytest.raises(NotConvex, match="winds 2 times"):
        validate_polygon(np.vstack([regular_polygon(2048)] * 2))


def _validation_corpus():
    """Convex polygons from the generator and, derived from them,
    reflex-dented, k-wound (stride k, gcd(k, N) = 1), reversed, scaled
    (1e-6 to 1e6) and moved (up to 1e5 diagonals from the origin) copies."""
    rng = np.random.default_rng(20261018)
    for case in range(120):
        n = int(rng.choice([3, 4, 5, 7, 8, 16, 33, 64, 128, 256]))
        axes = (1.0, float(rng.uniform(0.05, 1.0)))
        v = gen_convex_polygon(GenSpec2(n, 500 + case, semi_axes=axes,
                                        rotation=float(rng.uniform(0, 6.3)),
                                        jitter=float(rng.uniform(0, 0.9)))).vertices
        variants = [v]
        dent = v.copy()
        j = int(rng.integers(n))
        dent[j] = v.mean(axis=0) + rng.uniform(0.0, 1.0) * (v[j] - v.mean(axis=0))
        variants.append(dent)
        ks = [k for k in range(2, n - 1) if math.gcd(k, n) == 1]
        if ks:
            k = int(rng.choice(ks))
            variants.append(v[(k * np.arange(n)) % n])
        for w in variants:
            for reverse in (False, True):
                scale = 10.0 ** rng.uniform(-6.0, 6.0)
                diag = scale * Aabb.of_points(w).diagonal
                shift = diag * 10.0 ** rng.uniform(-1.0, 5.0) * rng.choice([-1, 1], 2)
                u = w[::-1] if reverse else w
                yield u * scale + shift
                yield u * scale


def _outcome(validate, raw):
    try:
        return validate(raw)
    except ValidationError as exc:
        return type(exc)


def test_validate_polygon_matches_all_pairs_reference():
    """The O(N) checks give the verdict of the all-pairs escape scan on every
    polygon of the corpus, and identical vertices and half-planes when both
    accept."""
    counts = collections.Counter()
    for raw in _validation_corpus():
        ref = _outcome(all_pairs_validate_polygon, raw)
        got = _outcome(validate_polygon, raw)
        if isinstance(ref, type):
            assert got is ref, f"reference raised {ref.__name__}, got {got}"
            counts[ref.__name__] += 1
        else:
            assert not isinstance(got, type), f"validate_polygon raised {got.__name__}"
            np.testing.assert_array_equal(got.vertices, ref[0])
            np.testing.assert_array_equal(got.halfplanes, ref[1])
            counts["valid"] += 1
    # the corpus exercises both verdicts, not only one of them
    assert counts["valid"] > 200 and counts["NotConvex"] > 200


def test_validate_polygon_is_linear_time():
    """The 65536-gon of the constant-query-time gate validates in well under
    a second (an all-pairs scan takes tens of seconds)."""
    big = gen_convex_polygon(GenSpec2(65536, 32, jitter=0.0)).vertices
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        validate_polygon(big)
        best = min(best, time.perf_counter() - t0)
    assert best < 1.0, f"validate_polygon took {best:.2f} s at N=65536"


def test_validate_polygon_immutable():
    poly = validate_polygon(SQUARE)
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 5.0
    with pytest.raises(Exception):
        poly.halfplanes[0, 0] = 5.0
    assert poly.planes is poly.halfplanes
    with pytest.raises(ValueError):
        poly.planes[0, 0] = 5.0


def test_polygon_halfplane_rows_match_edges():
    poly = validate_polygon(SQUARE)
    v = poly.vertices
    expect = line_halfplanes(v, np.roll(v, -1, axis=0), poly.tol.eps_len)
    np.testing.assert_allclose(poly.halfplanes, expect, atol=1e-15)


def test_line_halfplanes_are_column_major():
    """line_halfplanes returns its table column-major, the layout the bucket
    kernel reads, with the values of its former np.column_stack form: on
    random lines, on a polygon's edges and with one start broadcast."""
    rng = np.random.default_rng(11)
    p = rng.normal(size=(500, 2)) * 10
    q = p + rng.normal(size=(500, 2))
    v = gen_convex_polygon(GenSpec2(64, 7)).vertices
    for starts, ends in ((p, q), (v, np.roll(v, -1, axis=0)), (p[:1], q)):
        h = line_halfplanes(starts, ends, 0.0)
        assert h.flags.f_contiguous
        assert np.array_equal(h, line_halfplanes_reference(starts, ends))


def _layouts(v):
    """v as a list, a C-order array and an F-order array."""
    return {"list": np.asarray(v).tolist(), "C": np.ascontiguousarray(v),
            "F": np.asfortranarray(v)}


def test_validators_store_vertices_column_major():
    """Both validators return F-contiguous, read-only vertices, and the same
    vertices and planes bit for bit, from a list, a C-order or an F-order
    array, and from clockwise input, whose reversal keeps the layout."""
    poly_v = np.asarray(gen_convex_polygon(GenSpec2(64, 7)).vertices)
    mesh_v, faces = _affine_icosphere(1, 3)
    polygons = [validate_polygon(v) for v in _layouts(poly_v).values()]
    polygons += [validate_polygon(v[::-1]) for v in _layouts(poly_v).values()]
    # Reversed faces are repaired, to planes that may round differently.
    groups = [(polygons, poly_v)]
    for f in (faces, [face[::-1] for face in faces]):
        groups.append(([validate_polyhedron(v, f) for v in _layouts(mesh_v).values()], mesh_v))
    for shapes, want in groups:
        for shape in shapes:
            assert shape.vertices.flags.f_contiguous and not shape.vertices.flags.writeable
            assert shape.vertices.tobytes(order="A") == np.asfortranarray(want).tobytes(order="A")
            assert shape.planes.tobytes(order="A") == shapes[0].planes.tobytes(order="A")


@given(st.integers(3, 70000), st.integers(-300, 300), st.floats(-1e9, 1e9),
       st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_box_and_centroid_are_the_row_major_reductions(n, exponent, shift, seed, dim, grid):
    """Aabb.of_points and centroid reduce column by column, with the bits of
    min, max and mean(axis=0) on a C-order copy, which numpy reduces row by
    row: at scales 1e-300 to 1e300, translations up to 1e9 and 3 to 70000
    points, from either layout.  Grid points repeat coordinates and, at no
    translation, hold zeros of both signs; min and max may return either
    zero for those, so the bounds compare after adding +0.0."""
    rng = np.random.default_rng(seed)
    if grid:
        raw = rng.integers(-3, 4, size=(n, dim)).astype(float)
        raw[raw == 0.0] *= rng.choice([-1.0, 1.0], size=int((raw == 0.0).sum()))
    else:
        raw = rng.normal(size=(n, dim))
    pts = np.asfortranarray(raw * 10.0 ** exponent + shift)
    rows = np.ascontiguousarray(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        want = rows.mean(axis=0)
        for p in (pts, rows):
            box = Aabb.of_points(p)
            assert (box.lo + 0.0).tobytes() == (rows.min(axis=0) + 0.0).tobytes()
            assert (box.hi + 0.0).tobytes() == (rows.max(axis=0) + 0.0).tobytes()
            assert centroid(p).tobytes() == want.tobytes()


def test_tolerances_scale_with_diagonal():
    small = validate_polygon(np.asarray(SQUARE) * 1e-3)
    big = validate_polygon(np.asarray(SQUARE) * 1e3)
    assert small.tol.eps_q == pytest.approx(1e-9 * np.sqrt(2) * 1e-3)
    assert big.tol.eps_q == pytest.approx(1e-9 * np.sqrt(2) * 1e3)
    t = Tolerances.from_diag(2.0)
    assert (t.eps_len, t.eps_q) == (2e-12, 2e-9)


def _assert_vertices_on_boundary(shape, idx, locate, locate_batch, scalar_stride):
    """Every vertex OnBoundary in the batch call, and every scalar_stride-th
    in the scalar call."""
    v = shape.vertices
    codes = locate_batch(idx, v)
    assert (codes == Containment.ON_BOUNDARY).all(), (locate_batch.__name__, len(v))
    for p in v[::scalar_stride]:
        assert locate(idx, p) is Containment.ON_BOUNDARY, (locate.__name__, len(v), p)


def test_every_vertex_locates_on_boundary(corpus2d, corpus3d):
    """The validators' slack is the queries' band, eps_q, so every vertex
    they accept locates OnBoundary under every locator, batch and scalar.
    The scalar calls take 16 vertices of each shape; the uniform y-slabs,
    whose clamped tables take seconds to build, every tenth polygon, two
    or three of each corpus2d size."""
    entries, _ = corpus2d
    for k, (poly, _, polar_idx) in enumerate(entries):
        stride = max(1, poly.n // 16)
        methods = [(poly, locate_linear_2d, locate_linear_2d_batch),
                   (polar_idx, locate_polar, locate_polar_batch),
                   (build_wedge_index(poly), locate_wedge, locate_wedge_batch),
                   (build_sorted_slabs(poly), locate_sorted_slabs, locate_sorted_slabs_batch)]
        if k % 10 == 0:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CapExceeded)
                methods.append((build_uniform_slabs(poly), locate_uniform_slabs,
                                locate_uniform_slabs_batch))
        for idx, locate, locate_batch in methods:
            _assert_vertices_on_boundary(poly, idx, locate, locate_batch, stride)
    entries, _ = corpus3d
    for poly, _, cube_idx in entries:
        stride = max(1, len(poly.vertices) // 16)
        _assert_vertices_on_boundary(poly, poly, locate_linear_3d, locate_linear_3d_batch, stride)
        _assert_vertices_on_boundary(poly, cube_idx, locate_cubemap, locate_cubemap_batch, stride)


def test_scale_invariant_classification():
    """Same polygon at metre and millimetre scale classifies identically."""
    base = regular_polygon(17, 1.0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    big = validate_polygon(base * 1000.0)
    small = validate_polygon(base * 0.001)
    from convexloc import locate_linear_2d_batch
    np.testing.assert_array_equal(locate_linear_2d_batch(big, pts * 1000.0),
                                  locate_linear_2d_batch(small, pts * 0.001))


def test_aabb_inflated_and_contains():
    box = Aabb.of_points(np.array(SQUARE, dtype=float))
    grown = box.inflated(1.5)
    np.testing.assert_allclose(grown.lo, [-0.25, -0.25])
    np.testing.assert_allclose(grown.hi, [1.25, 1.25])
    assert bool(box.contains(np.array([0.5, 0.5])))
    assert not bool(box.contains(np.array([1.1, 0.5])))
    assert bool(box.contains(np.array([1.1, 0.5]), pad=0.2))
    assert box.diagonal == pytest.approx(np.sqrt(2))


def test_coordinate_limit():
    """Coordinates up to 1e64 in magnitude validate without any step
    overflowing, also on a 4096-gon and on the 2048-gon caps of a prism,
    whose Newell normals sum 2048 cross products.  Larger ones are refused
    before any arithmetic; the two polygons are files that
    test_bulk_reader_matches_the_line_parser found."""
    for raw in (SQUARE, regular_polygon(4096)):
        validate_polygon(np.asarray(raw, dtype=float) * 1e64)
    for v, f in ((CUBE_V, CUBE_F), prism_mesh(2048)):
        validate_polyhedron(np.asarray(v, dtype=float) * 1e64, f)
    for raw in ([(0, 0), (0, 0), (0, 1.3407807929942597e154)],
                [(0, 0), (0, 2.2628172679396184e282), (7.944490968549061e25, 0)]):
        with pytest.raises(ValidationError, match=r"polygon coordinates must be at most 1e\+64"):
            validate_polygon(raw)
    with pytest.raises(ValidationError, match=r"polyhedron coordinates must be at most 1e\+64"):
        validate_polyhedron(CUBE_V[:7] + [(1, 1, 1e80)], CUBE_F)


def test_validate_polyhedron_cube():
    cube = validate_polyhedron(CUBE_V, CUBE_F)
    assert cube.n_faces == 6
    assert plane_eval(cube.halfspaces, (0.5, 0.5, 0.5)).min() == pytest.approx(0.5)
    # every vertex sits on 3 faces
    vals = plane_eval(cube.halfspaces, cube.vertices)
    assert ((np.abs(vals) < 1e-12).sum(axis=1) == 3).all()
    assert cube.planes is cube.halfspaces and not cube.planes.flags.writeable


def test_validate_polyhedron_winding_repair():
    flipped = [tuple(reversed(f)) for f in CUBE_F]
    cube = validate_polyhedron(CUBE_V, flipped)
    assert plane_eval(cube.halfspaces, (0.5, 0.5, 0.5)).min() > 0


def test_validate_polyhedron_rejections():
    with pytest.raises(EulerViolation):
        validate_polyhedron(CUBE_V, CUBE_F[:5])  # open box
    bent_v = list(CUBE_V)
    bent_v[7] = (1, 1, 1.2)
    with pytest.raises(NonPlanarFace):
        validate_polyhedron(bent_v, CUBE_F)
    with pytest.raises(ValidationError):
        validate_polyhedron(CUBE_V, [(0, 2, 9)] + CUBE_F[1:])
    with pytest.raises(DegenerateFace):
        validate_polyhedron(CUBE_V, [(0, 2, 2)] + CUBE_F[1:])
    # octahedron with its apex pulled inside: the far pole escapes the
    # pulled faces' planes
    dent_v = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
              (0, 0, -0.5), (0, 0, -1)]
    dent_f = [(4, 0, 2), (4, 2, 1), (4, 1, 3), (4, 3, 0),
              (5, 2, 0), (5, 1, 2), (5, 3, 1), (5, 0, 3)]
    with pytest.raises(NotConvex):
        validate_polyhedron(dent_v, dent_f)


def test_validate_polyhedron_needs_four_faces():
    tet_v = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(TooFewVertices, match=r"polyhedron needs >= 4 faces, got 3"):
        validate_polyhedron(tet_v, [(0, 2, 1), (0, 1, 3), (0, 3, 2)])


def test_validate_polyhedron_rejects_non_integer_faces():
    """Float indices are not truncated; the lowest such face is named."""
    for bad in [(0.2, 2.9, 3, 1), (0.0, 2.0, 3.0, 1.0), np.array([0, 2, 3, 1.5])]:
        faces = list(CUBE_F)
        faces[2], faces[4] = bad, (0.5, 4, 6, 2)
        with pytest.raises(ValidationError, match="face 2 has non-integer"):
            validate_polyhedron(CUBE_V, faces)
    faces = [np.array(f, dtype=dtype) for f, dtype in zip(CUBE_F, (np.int32, np.uint16) * 3)]
    assert validate_polyhedron(CUBE_V, faces).n_faces == 6


def test_icosahedron_halfspaces_symmetric():
    from convexloc import icosphere
    v, f = icosphere(0)
    ico = validate_polyhedron(v, f)
    vals = plane_eval(ico.halfspaces, np.zeros(3))
    assert vals.min() > 0
    assert vals.max() - vals.min() < 1e-12


def test_tetrahedron_euler():
    tet = validate_polyhedron([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                              [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])
    assert tet.n_faces == 4
    assert plane_eval(tet.halfspaces, centroid(tet)).min() > 0


def _affine_icosphere(level, seed):
    """Raw (vertices, faces) of GenSpec3(level, seed), before validation."""
    v, f = icosphere(level)
    matrix, t = random_affine(seed)
    return v @ matrix.T + t, f


def _verdict(validate, vertices, faces):
    """(exception class, face index named in its message) or (None, None)."""
    try:
        validate(vertices, faces)
    except ValidationError as exc:
        m = re.search(r"face (\d+)", str(exc))
        return type(exc), m and int(m.group(1))
    return None, None


def test_validate_polyhedron_matches_loop_reference():
    """Batched validation gives the faces of the face-by-face reference bit
    for bit, and its half-spaces up to the rounding the centred Newell sum
    removes: the corpus3d meshes, small-shapes-style icospheres, the cube
    (also reversed) and prisms with mixed ring lengths."""
    meshes = [(CUBE_V, CUBE_F), (CUBE_V, [f[::-1] for f in CUBE_F]),
              prism_mesh(3), prism_mesh(5), prism_mesh(24)]
    meshes += [_affine_icosphere(level, 2000 + 50 * level + k)
               for level in range(4) for k in range(20)]
    meshes += [_affine_icosphere(level, seed) for level in range(4) for seed in (1, 7, 13)]
    for v, f in meshes:
        want = loop_validate_polyhedron(v, f)
        got = validate_polyhedron(v, f)
        assert got.faces == want.faces
        np.testing.assert_allclose(got.halfspaces, want.halfspaces, rtol=0, atol=1e-12)


def test_validate_polyhedron_rejects_like_loop_reference():
    """Broken meshes raise the reference's exception class for the same
    face, also with two faults on different faces, in both orders."""
    dent_v = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
              (0, 0, -0.5), (0, 0, -1)]
    dent_f = [(4, 0, 2), (4, 2, 1), (4, 1, 3), (4, 3, 0),
              (5, 2, 0), (5, 1, 2), (5, 3, 1), (5, 0, 3)]
    bent_v = list(CUBE_V)
    bent_v[7] = (1, 1, 1.2)
    # Vertex 8 is the bottom face's centre, so the vertex mean lies on the
    # diagonal plane x = y of face (0, 3, 7, 4).
    v9 = CUBE_V + [(0.5, 0.5, 0.0)]
    faults = {"out of range": (0, 2, 9), "repeated vertex": (0, 2, 2, 1),
              "two vertices": (0, 2), "nested": ((0, 1), (2, 3)),
              "collinear": (0, 8, 3), "bent quad": (0, 1, 7, 2),
              "interior on plane": (0, 3, 7, 4)}
    cases = [(CUBE_V, [fault] + CUBE_F[1:]) for fault in faults.values()]
    cases += [(v9, CUBE_F[:3] + [fault] + CUBE_F[3:]) for fault in faults.values()]
    cases += [(bent_v, CUBE_F), (dent_v, dent_f), (CUBE_V, CUBE_F[:5]),
              (CUBE_V[:3], [(0, 1, 2)]), (CUBE_V, CUBE_F + [(0, 8, 3)])]
    for a, b in itertools.permutations(faults.values(), 2):
        faces = list(CUBE_F)
        faces[1], faces[4] = a, b
        cases.append((v9, faces))
    seen = collections.Counter()
    for v, f in cases:
        want = _verdict(loop_validate_polyhedron, v, f)
        assert want[0] is not None
        assert _verdict(validate_polyhedron, v, f) == want, (v, f)
        seen[want[0].__name__] += 1
    assert set(seen) == {"ValidationError", "TooFewVertices", "DegenerateFace",
                         "NonPlanarFace", "InteriorOnPlane", "NotConvex",
                         "EulerViolation"}
