"""The direction helpers give the same answers wherever their inputs sit
and whatever units they use.

Every input is moved by up to 2^20 (about 1e6) diagonals and scaled by
2^-20 to 2^20 (about 1e-6 to 1e6).  The coordinates are dyadic with few
significant bits and the scales are powers of two, so moving and scaling
are exact in floating point and the helpers see the same differences
p - x_t: an answer that changes comes from a tolerance rule, not from
rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexloc import (Aabb, ZeroDirection, boundary_param, cubemap_cell,
                       project_face_conservative)

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
