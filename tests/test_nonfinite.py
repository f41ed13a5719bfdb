"""A query with a non-finite coordinate is Outside in every method, scalar
and batch, and never raises or warns."""

import warnings

import numpy as np
import pytest

from convexloc import (Containment, GenSpec2, GenSpec3, build_cubemap_index,
                       build_polar_index, build_sorted_slabs,
                       build_uniform_slabs, build_wedge_index, centroid,
                       gen_convex_polygon, gen_convex_polyhedron,
                       locate_cubemap, locate_cubemap_batch, locate_linear_2d,
                       locate_linear_2d_batch, locate_linear_3d,
                       locate_linear_3d_batch, locate_polar, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch,
                       locate_uniform_slabs, locate_uniform_slabs_batch,
                       locate_wedge, locate_wedge_batch, validate_polygon,
                       validate_polyhedron)

# method -> (dimension, build(shape) -> index, scalar locate, batch locate)
METHODS = {
    "linear-2d": (2, lambda s: s, locate_linear_2d, locate_linear_2d_batch),
    "wedge": (2, build_wedge_index, locate_wedge, locate_wedge_batch),
    "slabs-sorted": (2, build_sorted_slabs, locate_sorted_slabs, locate_sorted_slabs_batch),
    "slabs-uniform": (2, build_uniform_slabs, locate_uniform_slabs,
                      locate_uniform_slabs_batch),
    "polar": (2, build_polar_index, locate_polar, locate_polar_batch),
    "linear-3d": (3, lambda s: s, locate_linear_3d, locate_linear_3d_batch),
    "cubemap": (3, build_cubemap_index, locate_cubemap, locate_cubemap_batch),
}
CASES = [(m, k, v) for m, (dim, *_) in METHODS.items()
         for k in range(dim) for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture(scope="module")
def shapes():
    return {2: gen_convex_polygon(GenSpec2(n=32, seed=4)),
            3: gen_convex_polyhedron(GenSpec3(level=1, seed=4))}


def _case(shapes, method, coord, value):
    """(index, a point off x_t but well inside, that point with one
    coordinate replaced by value, scalar locate, batch locate)."""
    dim, build, locate, locate_batch = METHODS[method]
    shape = shapes[dim]
    inner = 0.7 * centroid(shape) + 0.3 * shape.vertices[0]
    bad = inner.copy()
    bad[coord] = value
    return build(shape), inner, bad, locate, locate_batch


@pytest.mark.parametrize("method,coord,value", CASES)
def test_non_finite_scalar_is_outside(shapes, method, coord, value):
    idx, inner, bad, locate, _ = _case(shapes, method, coord, value)
    assert locate(idx, bad) == Containment.OUTSIDE
    assert locate(idx, inner) == Containment.INSIDE


@pytest.mark.parametrize("method,coord,value", CASES)
def test_non_finite_batch_is_outside(shapes, method, coord, value):
    idx, inner, bad, _, locate_batch = _case(shapes, method, coord, value)
    codes = locate_batch(idx, np.array([bad, inner, bad]))
    assert codes.tolist() == [Containment.OUTSIDE, Containment.INSIDE,
                              Containment.OUTSIDE]


# Axis-parallel edges and faces have a zero plane coefficient, where an
# infinite coordinate gives 0 * inf; inf - inf appears when two coordinates
# are infinite.
UNIT = {
    2: lambda: validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    3: lambda: validate_polyhedron(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
         (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
         (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]),
}
INF, NAN = np.inf, np.nan
BAD_POINTS = {
    2: [(INF, 0.5), (-INF, 0.5), (0.5, INF), (NAN, 0.5), (INF, -INF),
        (-INF, INF), (INF, NAN), (NAN, -INF), (INF, INF), (NAN, NAN)],
    3: [(INF, 0.5, 0.5), (0.5, -INF, 0.5), (0.5, 0.5, INF), (INF, -INF, 0.0),
        (INF, NAN, 0.5), (-INF, 0.5, INF), (NAN, INF, -INF), (INF, INF, INF)],
}


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_on_unit_square_and_cube(method):
    dim, build, locate, locate_batch = METHODS[method]
    idx = build(UNIT[dim]())
    bad = np.array(BAD_POINTS[dim])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        codes = locate_batch(idx, np.vstack([bad, [0.3] * dim]))
        scalar = [locate(idx, p) for p in bad]
    assert codes.tolist() == [Containment.OUTSIDE] * len(bad) + [Containment.INSIDE]
    assert scalar == [Containment.OUTSIDE] * len(bad)
