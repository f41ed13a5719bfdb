"""Geometry core: half-plane/half-space construction, evaluation, validation."""

import collections
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexloc import (Aabb, Containment, DegenerateEdge, DegenerateFace,
                       EulerViolation, GenSpec2, InteriorOnPlane, NonPlanarFace,
                       NotConvex, Tolerances, TooFewVertices, ValidationError,
                       centroid, classify_min, gen_convex_polygon,
                       halfplane_from_edge, halfspace_from_face, icosphere,
                       plane_eval, random_affine, validate_polygon,
                       validate_polyhedron)

from oracles import (all_pairs_validate_polygon, loop_validate_polyhedron,
                     prism_mesh, regular_polygon)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

CUBE_V = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
          (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CUBE_F = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
          (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]


def test_halfplane_axis_edges():
    np.testing.assert_allclose(halfplane_from_edge((0, 0), (1, 0)), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(halfplane_from_edge((1, 0), (1, 1)), [-1, 0, 1], atol=1e-15)


def test_halfplane_left_side_positive():
    """The CCW interior side of p->q must evaluate positive.

    Oracle is the construction itself: midpoint displaced by +0.1*len along
    the left normal must be positive, the mirror point negative, endpoints
    zero.
    """
    rng = np.random.default_rng(42)
    p = rng.normal(size=(1000, 2)) * 10
    q = p + rng.normal(size=(1000, 2))
    for pi, qi in zip(p, q):
        d = qi - pi
        ln = np.hypot(*d)
        if ln < 1e-9:
            continue
        left = np.array([-d[1], d[0]]) / ln
        h = halfplane_from_edge(pi, qi)
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
        h = halfplane_from_edge(p, q)
        d, r = q - p, x - p
        dist = abs(d[0] * r[1] - d[1] * r[0]) / np.hypot(*d)
        assert abs(abs(plane_eval(h, x)) - dist) < 1e-12 * max(1.0, dist)


def test_halfplane_scale_invariant_coefficients():
    h1 = halfplane_from_edge((0.3, 0.4), (1.1, 2.0))
    p = np.array([0.3, 0.4])
    q = np.array([1.1, 2.0])
    h2 = halfplane_from_edge(p, p + 3.7 * (q - p))
    np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_halfplane_degenerate_edge():
    with pytest.raises(DegenerateEdge):
        halfplane_from_edge((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(DegenerateEdge):
        halfplane_from_edge((1.0, 1.0), (1.0, 1.0 + 1e-15))


@given(st.floats(-100, 100), st.floats(-100, 100),
       st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=200)
def test_halfplane_unit_normal_property(px, py, qx, qy):
    if np.hypot(qx - px, qy - py) < 1e-6:
        return
    h = halfplane_from_edge((px, py), (qx, qy))
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


def test_halfspace_square_in_z_plane():
    ring = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    np.testing.assert_allclose(halfspace_from_face(ring, (0.5, 0.5, 1.0)),
                               [0, 0, 1, 0], atol=1e-15)
    # interior below the plane flips the normal
    np.testing.assert_allclose(halfspace_from_face(ring, (0.5, 0.5, -1.0)),
                               [0, 0, -1, 0], atol=1e-15)


def test_halfspace_rejects_bad_rings():
    with pytest.raises(DegenerateFace):
        halfspace_from_face([(0, 0, 0), (1, 0, 0), (2, 0, 0)], (0, 0, 1))
    bent = [(0, 0, 0), (1, 0, 0), (1, 1, 0.1), (0, 1, 0)]
    with pytest.raises(NonPlanarFace):
        halfspace_from_face(bent, (0.5, 0.5, 5.0))
    with pytest.raises(InteriorOnPlane):
        halfspace_from_face([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                            (0.5, 0.5, 0.0))
    triangle = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            halfspace_from_face([(bad, 0, 0)] + triangle[1:], (0, 0, 1))
        with pytest.raises(ValidationError, match="finite"):
            halfspace_from_face(triangle, (0, bad, 1))


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
    with pytest.raises(TooFewVertices):
        validate_polygon([(0, 0), (1, 0)])
    with pytest.raises(NotConvex):
        validate_polygon([(0, 0), (2, 0), (1, 0.1), (0, 1)])  # reflex dent
    with pytest.raises(NotConvex):
        validate_polygon([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear run
    with pytest.raises(DegenerateEdge):
        validate_polygon([(0, 0), (0, 0), (1, 0), (0, 1)])  # repeated vertex
    with pytest.raises(ValidationError):
        validate_polygon([(0, 0), (1, np.nan), (0, 1)])
    star = [(np.cos(a), np.sin(a)) if i % 2 == 0 else
            (0.3 * np.cos(a), 0.3 * np.sin(a))
            for i, a in enumerate(np.arange(10) * np.pi / 5)]
    with pytest.raises(NotConvex):
        validate_polygon(star)


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


def test_polygon_halfplane_rows_match_edges():
    poly = validate_polygon(SQUARE)
    for i in range(poly.n):
        expect = halfplane_from_edge(poly.vertices[i],
                                     poly.vertices[(i + 1) % poly.n])
        np.testing.assert_allclose(poly.halfplanes[i], expect, atol=1e-15)


def test_tolerances_scale_with_diagonal():
    small = validate_polygon(np.asarray(SQUARE) * 1e-3)
    big = validate_polygon(np.asarray(SQUARE) * 1e3)
    assert small.tol.eps_q == pytest.approx(1e-9 * np.sqrt(2) * 1e-3)
    assert big.tol.eps_q == pytest.approx(1e-9 * np.sqrt(2) * 1e3)
    t = Tolerances.from_diag(2.0)
    assert (t.eps_len, t.eps_plane, t.eps_q) == (2e-12, 2e-9, 2e-9)


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


def test_validate_polyhedron_cube():
    cube = validate_polyhedron(CUBE_V, CUBE_F)
    assert cube.n_faces == 6
    assert plane_eval(cube.halfspaces, (0.5, 0.5, 0.5)).min() == pytest.approx(0.5)
    # every vertex sits on 3 faces
    vals = plane_eval(cube.halfspaces, cube.vertices)
    assert ((np.abs(vals) < 1e-12).sum(axis=1) == 3).all()


def test_validate_polyhedron_winding_repair():
    flipped = [tuple(reversed(f)) for f in CUBE_F]
    cube = validate_polyhedron(CUBE_V, flipped)
    assert plane_eval(cube.halfspaces, (0.5, 0.5, 0.5)).min() > 0


def test_validate_polyhedron_rejections():
    with pytest.raises(TooFewVertices):
        validate_polyhedron(CUBE_V[:3], [(0, 1, 2)])
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
