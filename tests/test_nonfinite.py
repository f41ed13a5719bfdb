"""A query with a non-finite coordinate is Outside in every method, scalar
and batch, costs no evaluation, and never raises or warns.  The direction
helpers find no direction to or from a non-finite point, and the face
projection rejects non-finite input."""

import warnings

import numpy as np
import pytest

from convexloc import (Aabb, Containment, EvalCounter, GenSpec2, GenSpec3,
                       ZeroDirection, boundary_param,
                       build_cubemap_index, build_polar_index, build_sorted_slabs,
                       build_uniform_slabs, build_wedge_index, cubemap_cell,
                       gen_convex_polygon, gen_convex_polyhedron,
                       locate_cubemap, locate_cubemap_batch, locate_linear_2d,
                       locate_linear_2d_batch, locate_linear_3d,
                       locate_linear_3d_batch, locate_polar, locate_polar_batch,
                       locate_sorted_slabs, locate_sorted_slabs_batch,
                       locate_uniform_slabs, locate_uniform_slabs_batch,
                       locate_wedge, locate_wedge_batch,
                       project_face_conservative, validate_polygon,
                       validate_polyhedron)

from oracles import annulus_point, reaches_planes

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
RADIAL = {2: build_polar_index, 3: build_cubemap_index}
CASES = [(m, k, v) for m, (dim, *_) in METHODS.items()
         for k in range(dim) for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture(scope="module")
def shapes():
    return {2: gen_convex_polygon(GenSpec2(n=32, seed=4)),
            3: gen_convex_polyhedron(GenSpec3(level=1, seed=4))}


def _case(shapes, method, coord, value):
    """(index, a point well inside that the radial indexes evaluate planes
    for, that point with one coordinate replaced by value, scalar locate,
    batch locate).  The point lies on the ray from x_t to vertex 0, in the
    annulus of the radial index's frame (oracles.annulus_point)."""
    dim, build, locate, locate_batch = METHODS[method]
    shape = shapes[dim]
    radial = RADIAL[dim](shape)
    inner = annulus_point(radial, shape.vertices[0])
    assert reaches_planes(radial, [inner])[0]
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


COUNTED = ("linear-2d", "wedge", "polar", "linear-3d", "cubemap")


@pytest.mark.parametrize("method,coord,value", [c for c in CASES if c[0] in COUNTED])
def test_non_finite_scalar_costs_no_evaluation(shapes, method, coord, value):
    idx, inner, bad, locate, _ = _case(shapes, method, coord, value)
    counter = EvalCounter()
    locate(idx, bad, counter)
    assert counter.total() == 0
    assert locate(idx, inner, counter) == Containment.INSIDE
    assert counter.total() > 0


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


@pytest.mark.parametrize("eps_len", [0.0, 1e-12])
@pytest.mark.parametrize("coord", [0, 1])
def test_nan_direction_is_zero_direction(eps_len, coord):
    """No direction leads to or from a point with a NaN or infinite
    coordinate, also when two of its coordinates are infinite."""
    box = Aabb(np.zeros(2), np.ones(2))
    for dim, direction in ((2, lambda x_t, p: boundary_param(box, x_t, p, eps_len)),
                           (3, lambda x_t, p: cubemap_cell(x_t, 4, p, eps_len))):
        good = [0.5] * dim
        for value in (NAN, INF, -INF):
            bad = list(good)
            bad[coord] = value
            bads = [bad]
            for other in (INF, -INF):
                bads.append(list(bad))
                bads[-1][1 - coord] = other
            for bad in bads:
                for x_t, p in ((good, bad), (bad, good)):
                    with pytest.raises(ZeroDirection):
                        direction(x_t, p)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_projection_rejects_non_finite_input(value):
    ring = np.array([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float)
    x_t = np.array([0.5, 0.5, 0.5])
    bad_ring = ring.copy()
    bad_ring[1, 2] = value
    with pytest.raises(ValueError, match="ring vertex 1 is not finite"):
        project_face_conservative(bad_ring, x_t, 4)
    bad_x_t = x_t.copy()
    bad_x_t[0] = value
    with pytest.raises(ValueError, match="x_t is not finite"):
        project_face_conservative(ring, bad_x_t, 4)
