"""Session-scoped shape corpora shared by the acceptance tests.

Each fixture returns (entries, setup_seconds).  The setup time is recorded
so tests with end-to-end runtime budgets can count corpus generation and
index construction honestly instead of hiding them in fixture setup.
"""

import time

import pytest

from convexloc import (GenSpec2, GenSpec3, QuerySpec, build_cubemap_index,
                       build_polar_index, gen_convex_polygon,
                       gen_convex_polyhedron, gen_query_points)

# Ellipse semi-axes cycled over the corpus; aspect ratios stay modest so the
# default slab budget stays far below SLAB_CAP.
CORPUS_AXES = ((1.0, 1.0), (1.3, 0.9), (1.5, 1.0), (0.8, 1.2))
SIZES_2D = (8, 64, 512, 4096)
SHAPES_PER_SIZE = 25
LEVELS_3D = (0, 1, 2, 3)
SEEDS_PER_LEVEL = 20
POINTS_PER_SHAPE = 1000


@pytest.fixture(scope="session")
def corpus2d():
    """100 ellipse-based polygons, each with a query cloud and polar index."""
    t0 = time.perf_counter()
    entries = []
    i = 0
    for si, n in enumerate(SIZES_2D):
        for k in range(SHAPES_PER_SIZE):
            spec = GenSpec2(n=n, seed=1000 + 100 * si + k,
                            semi_axes=CORPUS_AXES[i % 4], rotation=0.137 * i)
            poly = gen_convex_polygon(spec)
            pts = gen_query_points(poly.aabb,
                                   QuerySpec(POINTS_PER_SHAPE, 5000 + i))
            entries.append((poly, pts, build_polar_index(poly)))
            i += 1
    return entries, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus3d():
    """80 affinely deformed icospheres (refinement levels 0..3, 20 random
    affine maps each), with query clouds and cube-map indexes."""
    t0 = time.perf_counter()
    entries = []
    i = 0
    for level in LEVELS_3D:
        for k in range(SEEDS_PER_LEVEL):
            poly = gen_convex_polyhedron(
                GenSpec3(level=level, seed=2000 + 50 * level + k))
            pts = gen_query_points(poly.aabb,
                                   QuerySpec(POINTS_PER_SHAPE, 7000 + i))
            entries.append((poly, pts, build_cubemap_index(poly)))
            i += 1
    return entries, time.perf_counter() - t0
