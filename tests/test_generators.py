"""Instance generators: determinism, structure, comparison harness."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexloc import (Aabb, GenSpec2, GenSpec3, QuerySpec, SingularAffine,
                       build_polar_index, compare_methods, centroid,
                       gen_convex_polygon, gen_convex_polyhedron,
                       gen_query_points, icosphere, locate_linear_2d_batch,
                       locate_polar_batch, plane_eval, random_affine)

from oracles import dict_icosphere

SQUARE_BOX = Aabb.of_points([(0.0, 0.0), (1.0, 1.0)])


def test_polygon_determinism():
    a = gen_convex_polygon(GenSpec2(64, 7))
    b = gen_convex_polygon(GenSpec2(64, 7))
    np.testing.assert_array_equal(a.vertices, b.vertices)
    c = gen_convex_polygon(GenSpec2(64, 8))
    assert not np.array_equal(a.vertices, c.vertices)


def test_polygon_jitter_zero_is_regular():
    """jitter=0 must give seed-independent regular angles."""
    a = gen_convex_polygon(GenSpec2(4, 1, jitter=0.0))
    b = gen_convex_polygon(GenSpec2(4, 999, jitter=0.0))
    np.testing.assert_array_equal(a.vertices, b.vertices)
    expect = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    np.testing.assert_allclose(a.vertices, expect, atol=1e-12)


def test_polygon_respects_axes_and_rotation():
    poly = gen_convex_polygon(GenSpec2(128, 3, semi_axes=(2.0, 1.0)))
    r = np.linalg.norm(poly.vertices, axis=1)
    assert r.max() <= 2.0 + 1e-9
    assert r.min() >= 1.0 - 1e-9
    rot = gen_convex_polygon(GenSpec2(8, 3, jitter=0.0, rotation=np.pi / 2))
    base = gen_convex_polygon(GenSpec2(8, 3, jitter=0.0))
    # quarter turn maps (x, y) -> (-y, x)
    np.testing.assert_allclose(rot.vertices,
                               np.column_stack([-base.vertices[:, 1],
                                                base.vertices[:, 0]]),
                               atol=1e-12)


@given(st.integers(3, 300), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_polygon_angular_gap_bound(n, seed):
    """Construction guarantee: consecutive central angles stay at least
    0.1 * 2pi/n apart, so generation never needs resampling."""
    poly = gen_convex_polygon(GenSpec2(n, seed))
    v = poly.vertices
    th = np.arctan2(v[:, 1], v[:, 0])
    gaps = np.diff(np.sort(th))
    wrap = 2 * np.pi + np.min(th) - np.max(th)
    assert min(gaps.min(), wrap) >= 0.1 * (2 * np.pi / n) * (1 - 1e-9)


def test_polygon_rejects_bad_specs():
    with pytest.raises(ValueError):
        gen_convex_polygon(GenSpec2(2, 0))
    with pytest.raises(ValueError):
        gen_convex_polygon(GenSpec2(8, 0, jitter=0.95))
    with pytest.raises(ValueError):
        gen_convex_polygon(GenSpec2(8, 0, semi_axes=(0.0, 1.0)))


@pytest.mark.parametrize("make, field", [
    (lambda: gen_convex_polygon(GenSpec2(8, 0, rotation=np.inf)), "rotation"),
    (lambda: gen_convex_polygon(GenSpec2(8, 0, rotation=np.nan)), "rotation"),
    (lambda: gen_convex_polygon(GenSpec2(8, 0, semi_axes=(np.nan, 1.0))), "semi_axes"),
    (lambda: gen_convex_polygon(GenSpec2(8, 0, semi_axes=(1.0, np.inf))), "semi_axes"),
    (lambda: gen_convex_polyhedron(GenSpec3(0, 0, matrix=np.diag([np.inf, 1, 1]))), "matrix"),
    (lambda: gen_convex_polyhedron(GenSpec3(0, 0, matrix=np.full((3, 3), np.nan))), "matrix"),
    (lambda: gen_convex_polyhedron(GenSpec3(0, 0, translation=(np.nan, 0, 0))), "translation"),
], ids=["rotation-inf", "rotation-nan", "axes-nan", "axes-inf", "matrix-inf", "matrix-nan",
        "translation-nan"])
def test_non_finite_spec_fields_are_named(make, field):
    """A non-finite spec number raises the ValueError that names its field
    before any numpy arithmetic warns or a validator rejects the shape."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: gen_convex_polygon(GenSpec2(8.5, 0)), "n must be a whole number >= 3, got 8.5"),
    (lambda: icosphere(1.5), "level must be a whole number in [0, 5], got 1.5"),
    (lambda: gen_convex_polyhedron(GenSpec3(1.5, 0)),
     "level must be a whole number in [0, 5], got 1.5"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(-1, 0)), "m must be a whole number >= 0, got -1"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(2.5, 0)),
     "m must be a whole number >= 0, got 2.5"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(3, 0, inflation=np.nan)),
     "inflation must be positive and finite, got nan"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(3, 0, inflation=np.inf)),
     "inflation must be positive and finite, got inf"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(3, 0, inflation=0.0)),
     "inflation must be positive and finite, got 0.0"),
    (lambda: gen_query_points(SQUARE_BOX, QuerySpec(3, 0, inflation=-1.0)),
     "inflation must be positive and finite, got -1.0"),
], ids=["n-fraction", "icosphere-level-fraction", "spec-level-fraction", "m-negative",
        "m-fraction", "inflation-nan", "inflation-inf", "inflation-zero", "inflation-negative"])
def test_bad_spec_counts_and_inflation_are_named(make, message):
    """A fractional or negative count, or an inflation that is not a
    positive finite number, raises the ValueError that names the field and
    the value given, before numpy raises, warns or returns a bad cloud."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_an_empty_query_cloud_is_valid():
    assert gen_query_points(SQUARE_BOX, QuerySpec(0, 0)).shape == (0, 2)


def test_icosphere_counts():
    for level in range(4):
        v, f = icosphere(level)
        assert len(f) == 20 * 4 ** level
        assert len(v) == 10 * 4 ** level + 2
        assert all(len(ring) == 3 for ring in f)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        icosphere(6)


def test_icosphere_matches_the_dict_subdivision():
    """The vectorised subdivision gives the vertices, bit for bit, and the
    faces of the one-face-at-a-time reference at every level."""
    for level in range(6):
        v, f = icosphere(level)
        ref_v, ref_f = dict_icosphere(level)
        assert v.dtype == ref_v.dtype and v.shape == ref_v.shape
        assert v.tobytes() == ref_v.tobytes(), level
        assert f == ref_f, level
        assert {type(k) for face in f for k in face} == {int}


def test_polyhedron_determinism_and_validity():
    a = gen_convex_polyhedron(GenSpec3(2, 5))
    b = gen_convex_polyhedron(GenSpec3(2, 5))
    np.testing.assert_array_equal(a.vertices, b.vertices)
    assert a.n_faces == 320
    assert plane_eval(a.halfspaces, centroid(a)).min() > 0


def test_identity_polyhedron_is_unit_icosphere():
    poly = gen_convex_polyhedron(GenSpec3(1, 0, matrix=np.eye(3)))
    np.testing.assert_allclose(np.linalg.norm(poly.vertices, axis=1), 1.0,
                               atol=1e-12)


def test_translation_replaces_the_shift_of_either_map():
    """A given translation is the shift of a random_affine(seed) map as of
    an explicit matrix."""
    t = (5.0, -2.0, 0.25)
    matrix, _ = random_affine(3)
    for spec_matrix in (None, matrix):
        poly = gen_convex_polyhedron(GenSpec3(1, 3, matrix=spec_matrix, translation=t))
        np.testing.assert_array_equal(poly.vertices, icosphere(1)[0] @ matrix.T + np.asarray(t))


def test_singular_affine_rejected():
    with pytest.raises(SingularAffine):
        gen_convex_polyhedron(GenSpec3(0, 0, matrix=np.zeros((3, 3))))
    with pytest.raises(SingularAffine):
        gen_convex_polyhedron(GenSpec3(0, 0, matrix=np.diag([1.0, 1.0, -1.0])))
    flat = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(SingularAffine):
        gen_convex_polyhedron(GenSpec3(0, 0, matrix=flat))


def test_random_affine_reproducible_positive():
    m1, t1 = random_affine(17)
    m2, t2 = random_affine(17)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(t1, t2)
    for seed in range(20):
        m, _ = random_affine(seed)
        assert np.linalg.det(m) > 0
        s = np.linalg.svd(m, compute_uv=False)
        assert 0.6 - 1e-9 <= s.min() and s.max() <= 1.8 + 1e-9


def test_query_points_inflation_and_inside_fraction():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    from convexloc import Aabb, validate_polygon
    poly = validate_polygon(sq)
    pts = gen_query_points(poly.aabb, QuerySpec(10000, 3))
    assert pts.min() >= -0.25 and pts.max() <= 1.25
    inside = (locate_linear_2d_batch(poly, pts) == 1).mean()
    assert inside == pytest.approx(1 / 1.5 ** 2, abs=0.02)
    again = gen_query_points(poly.aabb, QuerySpec(10000, 3))
    np.testing.assert_array_equal(pts, again)


def test_compare_methods_clean_run():
    poly = gen_convex_polygon(GenSpec2(40, 2))
    idx = build_polar_index(poly)
    pts = gen_query_points(poly.aabb, QuerySpec(2000, 4))
    rep = compare_methods(poly, pts,
                          {"linear": lambda q: locate_linear_2d_batch(poly, q),
                           "polar": lambda q: locate_polar_batch(idx, q)})
    assert rep.clean
    assert rep.n_disagreements == 0
    assert rep.n_points == 2000
    assert rep.band == pytest.approx(2 * poly.tol.eps_q)


def test_compare_methods_needs_two_methods():
    poly = gen_convex_polygon(GenSpec2(8, 0))
    with pytest.raises(ValueError, match="need at least two methods"):
        compare_methods(poly, poly.vertices,
                        {"linear": lambda q: locate_linear_2d_batch(poly, q)})


def test_compare_methods_detects_corruption():
    """Sanity check of the harness itself: pointing one slab at the wrong
    edges must surface as counted mismatches with example records.  The
    index's frame decides all but about 1.5% of the points over the box
    without reading a slab, so the cloud holds 40000 points, of which 664
    read one."""
    poly = gen_convex_polygon(GenSpec2(40, 2))
    idx = build_polar_index(poly)
    bad = dataclasses.replace(idx, padded_edges=(idx.padded_edges + poly.n // 2) % poly.n)
    pts = gen_query_points(poly.aabb, QuerySpec(40000, 4))
    rep = compare_methods(poly, pts,
                          {"linear": lambda q: locate_linear_2d_batch(poly, q),
                           "polar": lambda q: locate_polar_batch(bad, q)})
    assert not rep.clean
    assert rep.n_mismatches > 100
    assert len(rep.examples) > 0
    idx0, point, dist, codes = rep.examples[0]
    assert abs(dist) > rep.band
    assert codes["linear"] != codes["polar"]
