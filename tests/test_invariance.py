"""The direction helpers give the same answers wherever their inputs sit
and whatever units they use, and so do the radial locators' paths.

Every input of the direction helpers is moved by up to 2^20 (about 1e6)
diagonals and scaled by 2^-20 to 2^20 (about 1e-6 to 1e6).  The coordinates
are dyadic with few significant bits and the scales are powers of two, so
moving and scaling are exact in floating point and the helpers see the same
differences p - x_t: an answer that changes comes from a tolerance rule, not
from rounding.

The radial locators are checked under similarity transforms that round:
the batch codes must equal the reference's and the scalar path's wherever
the shape sits and whatever its units."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexloc import (Aabb, CapExceeded, Containment, GenSpec2, NotConvex, QuerySpec,
                       ValidationError, ZeroDirection, boundary_param, build_cubemap_index,
                       build_polar_index, cubemap_cell, gen_convex_polygon, gen_query_points,
                       project_face_conservative, validate_polygon, validate_polyhedron)
from convexloc.buckets import locate_radial, locate_radial_batch

from oracles import (annulus_point, frame_points, frame_shapes, locate_radial_batch_reference,
                     nonfinite_rows, sliver_shapes)

TINY = 2.0 ** -24          # about 6e-8 of a unit diagonal

X_T3 = np.array([0.5, 0.25, 0.75])
DIRECTIONS3 = [(0.25, 0.125, 1.0), (-0.75, 0.5, 0.375), (0.5, -0.5, 0.5),
               (0.0, -0.125, 0.0), (TINY, 0.0, 0.0), (-TINY, TINY / 2, TINY),
               (0.0, 0.0, 0.0)]

BOX = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
X_T2 = np.array([0.5, 0.5])
# Each ray leaves the box at a dyadic point, so u is exact too.
DIRECTIONS2 = [(0.5, 0.125), (-0.25, -0.5), (0.0, 1.0), (-0.5, 0.0),
               (TINY, TINY / 4), (0.0, 0.0)]

RINGS = [
    # The top of the unit cube, seen from its centre.
    (np.array([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float),
     np.array([0.5, 0.5, 0.5])),
    # A triangle seen on three cube faces.
    (np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float),
     np.array([0.125, 0.125, 0.125])),
    # A triangle that passes TINY above x_t: seen on the +Z face too.
    (np.array([(-1, -1, TINY), (1, -0.5, TINY), (0, 1, TINY)]),
     np.array([0.0, 0.0, 0.0])),
]

moves = st.tuples(*[st.integers(-2 ** 20, 2 ** 20)] * 3)
scales = st.integers(-20, 20)


def _cell(x_t, p):
    try:
        return cubemap_cell(x_t, 4, p)
    except ZeroDirection:
        return "ZeroDirection"


def _param(lo, hi, x_t, p, scale):
    """u in units of the unscaled box, or ZeroDirection."""
    try:
        return boundary_param(Aabb(lo, hi), x_t, p) / scale
    except ZeroDirection:
        return "ZeroDirection"


@given(moves, scales)
@settings(max_examples=100, deadline=None)
def test_cubemap_cell_is_invariant(move, exp):
    scale = 2.0 ** exp
    x_t = (X_T3 + move) * scale
    for d in DIRECTIONS3:
        assert _cell(x_t, x_t + np.multiply(d, scale)) == _cell(X_T3, X_T3 + d), d


@given(moves, scales)
@settings(max_examples=100, deadline=None)
def test_boundary_param_is_invariant(move, exp):
    scale = 2.0 ** exp
    move = np.array(move[:2], dtype=float)
    lo, hi = ((c + move) * scale for c in BOX)
    x_t = (X_T2 + move) * scale
    for d in DIRECTIONS2:
        assert (_param(lo, hi, x_t, x_t + np.multiply(d, scale), scale)
                == _param(*BOX, X_T2, X_T2 + d, 1.0)), d


@given(moves, scales)
@settings(max_examples=50, deadline=None)
def test_project_face_conservative_is_invariant(move, exp):
    scale = 2.0 ** exp
    for ring, x_t in RINGS:
        assert (project_face_conservative((ring + move) * scale, (x_t + move) * scale, 4)
                == project_face_conservative(ring, x_t, 4))


@pytest.mark.parametrize("x_t", [(0.0, 0.0, 0.0), (1e6, 1e6, 1e6)])
def test_short_direction_far_from_the_origin(x_t):
    """A 1e-7 direction has a cell at the origin and at 1e6 alike."""
    p = np.add(x_t, (1e-7, 0.0, 0.0))
    assert cubemap_cell(x_t, 4, p) == (0, 2, 2)


def _rotation(dim, angles):
    """A proper rotation: by angles[0] in 2D, Rz Ry Rz by the three in 3D."""
    c, s = np.cos(angles), np.sin(angles)
    if dim == 2:
        return np.array([[c[0], -s[0]], [s[0], c[0]]])
    rz = [np.array([[c[k], -s[k], 0.0], [s[k], c[k], 0.0], [0.0, 0.0, 1.0]]) for k in (0, 2)]
    ry = np.array([[c[1], 0.0, s[1]], [0.0, 1.0, 0.0], [-s[1], 0.0, c[1]]])
    return rz[0] @ ry @ rz[1]


def _similar(shape, exp, move, angles):
    """The shape scaled by 10**exp, rotated, then moved by move diagonals
    of the scaled shape along the axes, validated again."""
    scale = 10.0 ** exp
    v = shape.vertices @ (scale * _rotation(shape.dim, angles)).T
    v += np.asarray(move[:shape.dim]) * (shape.aabb.diagonal * scale)
    if shape.dim == 2:
        return validate_polygon(v)
    return validate_polyhedron(v, shape.faces)


def _check_similar(shape, exp, move, turn, seed):
    """Under a similarity transform of the shape, the batch codes equal the
    reference's and the scalar path's on points over the box, at both
    bounds of the frame and in its annulus; non-finite and 1e300
    coordinates are Outside on both paths, and neither path warns.  A shape
    that no longer validates is a defect of the validators, not of the
    locators (test_sliver_validates_far_from_the_origin)."""
    try:
        shape = _similar(shape, exp, move, turn)
    except ValidationError:
        assume(False)
    with warnings.catch_warnings():
        # A polar budget may clamp; test_polar checks that warning.
        warnings.simplefilter("ignore", CapExceeded)
        idx = (build_polar_index if shape.dim == 2 else build_cubemap_index)(shape)
    radii = (math.sqrt(idx.inner2), math.sqrt(idx.outer2))
    huge = np.repeat(idx.x_t[None, :], 2 * shape.dim + 1, axis=0)
    for k in range(shape.dim):
        huge[2 * k, k], huge[2 * k + 1, k] = 1e300, -1e300
    huge[-1] = 1e300
    bad = np.concatenate([nonfinite_rows(shape.dim), huge])
    pts = np.concatenate(
        [gen_query_points(shape.aabb, QuerySpec(300, seed))]
        + [frame_points(idx, r * f, 20, seed, "vertices")[:60] for r in radii
           for f in (1.0 - 1e-9, 1.0 + 1e-9)]
        + [[annulus_point(idx, v) for v in shape.vertices[:20]], bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = locate_radial_batch(idx, pts)
        scalar = [int(locate_radial(idx, p)) for p in pts]
    assert np.array_equal(got, locate_radial_batch_reference(idx, pts))
    assert scalar == got.tolist()
    assert (got[-len(bad):] == Containment.OUTSIDE).all()


angles = st.floats(0.0, 2.0 * math.pi)
similarities = dict(exp=st.floats(-6.0, 6.0), move=st.tuples(*[st.floats(-1e5, 1e5)] * 3),
                    turn=st.tuples(angles, angles, angles), seed=st.integers(0, 2 ** 16))


@pytest.mark.parametrize("name", list(frame_shapes()) + list(sliver_shapes()))
@given(**similarities)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_named_shape_codes_do_not_depend_on_position(name, exp, move, turn, seed):
    """_check_similar on the named frame shapes and the slivers: scaled by
    1e-6 to 1e6, rotated, and moved by up to 1e5 diagonals."""
    _check_similar((frame_shapes() | sliver_shapes())[name], exp, move, turn, seed)


@given(data=st.data(), **similarities)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_corpus_codes_do_not_depend_on_position(corpus2d, corpus3d, data, exp, move, turn, seed):
    """_check_similar on a shape of corpus2d or corpus3d."""
    shape, _, _ = data.draw(st.sampled_from(corpus2d[0] + corpus3d[0]))
    _check_similar(shape, exp, move, turn, seed)


def test_sliver_validates_far_from_the_origin():
    """The sliver triangle scaled by 10**1.5, turned by 4 radians and moved
    by (9526, 4761) diagonals still validates.  3e5 from the origin, a
    shoelace area of absolute coordinates rounds by more than the area and
    reverses the counter-clockwise vertices; validate_polygon sums it on
    the vertices less the first."""
    _similar(sliver_shapes()["sliver-triangle"], 1.5, (9526.0, 4761.0, 0.0), (4.0, 0.0, 0.0))


@pytest.mark.xfail(strict=True, raises=NotConvex, reason=(
    "position defect: edge planes are computed and evaluated at absolute "
    "coordinates, and 3e7 from the origin their rounding puts a vertex more "
    "than eps_q outside an edge half-plane (no local origin yet)"))
def test_polygon_validates_far_from_the_origin():
    """The generator's 64-gon moved by 3e7 along both axes validates.  Moves
    of 1e6 and 1e7 do; this one reaches validate_polygon's escape check."""
    validate_polygon(gen_convex_polygon(GenSpec2(64, 0)).vertices + 3e7)
