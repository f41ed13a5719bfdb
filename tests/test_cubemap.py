"""Cube-map direction index: cell mapping, conservative projection, queries."""

import numpy as np
import pytest

from convexloc import (CapExceeded, Containment, EvalCounter, GenSpec3, QuerySpec,
                       ZeroDirection,
                       build_cubemap_index, centroid, compare_methods, cubemap_cell,
                       gen_convex_polyhedron, gen_query_points, icosphere,
                       locate_cubemap, locate_cubemap_batch,
                       locate_linear_3d_batch, project_face_conservative,
                       validate_polyhedron)
from convexloc.cubemap import default_cubemap_resolution, flat_cell

from oracles import brute_exit_edges, loop_build_cubemap_index, prism_mesh

CUBE = validate_polyhedron(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
     (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
     (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)])

TOP_RING = np.array([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float)


def test_cell_mapping_examples():
    assert cubemap_cell((0, 0, 0), 4, (0.2, 0.1, 1.0)) == (4, 2, 2)   # +Z
    assert cubemap_cell((0, 0, 0), 4, (-3.0, 0.0, 0.0)) == (1, 2, 2)  # -X
    # exact tie goes to the X axis first
    face, i, j = cubemap_cell((0, 0, 0), 4, (1.0, 1.0, 1.0))
    assert face == 0
    assert (i, j) == (3, 3)
    assert cubemap_cell((0, 0, 0), 1, (0.3, -9.0, 2.0)) == (3, 0, 0)  # -Y


def test_cell_mapping_zero_direction():
    with pytest.raises(ZeroDirection):
        cubemap_cell((1.0, 2.0, 3.0), 4, (1.0, 2.0, 3.0))


def test_cell_indices_clamped():
    face, i, j = cubemap_cell((0, 0, 0), 8, (1.0, 1.0 - 1e-12, 0.0))
    assert face == 0 and i == 7
    face, i, j = cubemap_cell((0, 0, 0), 8, (1.0, -1.0, 0.0))
    assert i == 0 or i == 7  # boundary value, clamped into range


def test_projection_single_face_r1():
    cells = project_face_conservative(TOP_RING, (0.5, 0.5, 0.5), 1)
    assert cells == [(4, 0, 0)]


def test_projection_single_face_r2():
    cells = sorted(project_face_conservative(TOP_RING, (0.5, 0.5, 0.5), 2))
    assert cells == [(4, 0, 0), (4, 0, 1), (4, 1, 0), (4, 1, 1)]


def test_projection_drops_edge_on_slivers():
    """Seen from the cube center, the top face is edge-on to the +X frustum;
    its footprint there is degenerate and must not be emitted."""
    cells = project_face_conservative(TOP_RING, (0.5, 0.5, 0.5), 4)
    assert {c[0] for c in cells} == {4}


def test_cube_cells_list_exactly_one_face():
    idx = build_cubemap_index(CUBE, resolution=4)
    assert idx.max_occupancy == 1
    assert int(idx.counts.min()) == 1
    # cube-map face f must everywhere list the cube face whose outward
    # normal points the same way
    normals = CUBE.halfspaces[:, :3]
    for f in range(6):
        axis, sign = f // 2, (1.0 if f % 2 == 0 else -1.0)
        for i in range(4):
            for j in range(4):
                (k,) = idx.bucket(flat_cell(f, i, j, idx.resolution))
                assert normals[k][axis] * sign == pytest.approx(-1.0)


def test_resolution_default_formula():
    assert default_cubemap_resolution(320) == 15
    assert default_cubemap_resolution(6) == 4      # floor
    with pytest.warns(CapExceeded):
        assert default_cubemap_resolution(10 ** 9) == 1024  # cap
    ico = gen_convex_polyhedron(GenSpec3(2, 31))
    assert build_cubemap_index(ico).resolution == 15


def test_refining_resolution_nests():
    """Halving cell indices maps the cell set at 2R into the set at R."""
    ico = gen_convex_polyhedron(GenSpec3(1, 8))
    x_t = centroid(ico)
    for ring_idx in (0, 17, 53):
        ring = ico.vertices[list(ico.faces[ring_idx])]
        coarse = set(project_face_conservative(ring, x_t, 8))
        fine = project_face_conservative(ring, x_t, 16)
        assert {(f, i // 2, j // 2) for f, i, j in fine} <= coarse


PRISM = validate_polyhedron(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
    [(0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)])


def _csr(idx):
    return (idx.offsets.tobytes(), idx.faces_flat.tobytes(), idx.counts.tobytes(),
            idx.max_occupancy, idx.mean_occupancy)


def test_build_matches_loop_reference(corpus3d):
    """The batched build lists the cells of the face-by-face reference, bit
    for bit: every corpus3d shape, the cube and a mixed prism."""
    entries, _ = corpus3d
    for poly, _, idx in entries:
        assert _csr(idx) == _csr(loop_build_cubemap_index(poly))
    for poly in (CUBE, PRISM):
        for res in (None, 1, 4, 7):
            assert (_csr(build_cubemap_index(poly, resolution=res))
                    == _csr(loop_build_cubemap_index(poly, resolution=res)))


def test_build_matches_loop_reference_with_wide_caps():
    """Two 2048-gon caps among 2048 quads: each ring length is clipped in
    its own batch, so the caps do not widen the quads' arrays, and the CSR
    is still the reference's bit for bit."""
    poly = validate_polyhedron(*prism_mesh(2048))
    assert sorted({len(f) for f in poly.faces}) == [4, 2048]
    for res in (None, 1):
        assert (_csr(build_cubemap_index(poly, resolution=res))
                == _csr(loop_build_cubemap_index(poly, resolution=res)))


def test_projection_needs_positive_margin():
    for eps_len in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError, match="eps_len"):
            project_face_conservative(TOP_RING, (0.5, 0.5, 0.5), 4, eps_len=eps_len)


@pytest.mark.parametrize("resolution", [None, 1])
def test_project_face_is_the_build_for_one_face(corpus3d, resolution):
    """project_face_conservative lists exactly the cells in which the built
    index lists the face, for every face of three corpus3d shapes."""
    entries, _ = corpus3d
    for poly, _, _ in (entries[25], entries[45], entries[65]):
        idx = build_cubemap_index(poly, resolution=resolution)
        r = idx.resolution
        listed = [set() for _ in range(poly.n_faces)]
        cells = np.repeat(np.arange(len(idx.counts)), idx.counts)
        for cell, k in zip(cells.tolist(), idx.faces_flat.tolist()):
            listed[k].add(cell)
        for k, ring in enumerate(poly.faces):
            got = [(f * r + i) * r + j for f, i, j in project_face_conservative(
                poly.vertices[list(ring)], idx.x_t, r, eps_len=poly.tol.eps_len)]
            assert len(got) == len(set(got))
            assert set(got) == listed[k]


def test_every_face_listed_somewhere():
    ico = gen_convex_polyhedron(GenSpec3(2, 44))
    idx = build_cubemap_index(ico)
    assert set(np.unique(idx.faces_flat)) == set(range(ico.n_faces))


def test_first_hit_face_always_listed():
    """Superset property against brute-force smallest positive ray parameter."""
    rng = np.random.default_rng(77)
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for spec in (GenSpec3(0, 5), GenSpec3(1, 6), GenSpec3(2, 7)):
        poly = gen_convex_polyhedron(spec)
        idx = build_cubemap_index(poly)
        hit = brute_exit_edges(poly.halfspaces, idx.x_t, dirs)
        res = idx.resolution
        for k in range(len(dirs)):
            f, i, j = cubemap_cell(idx.x_t, res, idx.x_t + dirs[k])
            assert hit[k] in idx.bucket(flat_cell(f, i, j, res))


def test_locate_cube_cases():
    idx = build_cubemap_index(CUBE, resolution=4)
    assert locate_cubemap(idx, (0.5, 0.5, 0.5)) == Containment.INSIDE
    assert locate_cubemap(idx, (0.5, 0.5, 1.0)) == Containment.ON_BOUNDARY
    assert locate_cubemap(idx, (0.5, 0.5, 1.5)) == Containment.OUTSIDE
    c = EvalCounter()
    assert locate_cubemap(idx, (9.0, 9.0, 9.0), c) == Containment.OUTSIDE
    assert c.evals == 0
    c = EvalCounter()
    locate_cubemap(idx, (0.25, 0.75, 0.1), c)
    assert c.evals <= idx.max_occupancy


def test_cubemap_matches_linear():
    for seed, level in ((0, 0), (1, 1), (2, 2), (3, 3)):
        poly = gen_convex_polyhedron(GenSpec3(level, seed + 100))
        idx = build_cubemap_index(poly)
        pts = gen_query_points(poly.aabb, QuerySpec(1500, seed))
        np.testing.assert_array_equal(locate_cubemap_batch(idx, pts),
                                      locate_linear_3d_batch(poly, pts))


@pytest.mark.parametrize("offset", [3e3, 1e5, 1e6])
def test_translated_icosphere_validates_and_locates(offset):
    """A level-2 icosphere (diagonal ~4) far from the origin validates, and
    its cube-map codes match the linear scan off the tolerance band."""
    v, f = icosphere(2)
    poly = validate_polyhedron(v + offset, f)
    idx = build_cubemap_index(poly)
    pts = np.vstack([gen_query_points(poly.aabb, QuerySpec(4000, 21)), poly.vertices])
    report = compare_methods(poly, pts, {
        "linear": lambda p: locate_linear_3d_batch(poly, p),
        "cubemap": lambda p: locate_cubemap_batch(idx, p)})
    assert report.clean, report.examples
