"""Constant-time 3D point location via cube-map direction cells.

Directions from a strictly interior reference point x_t are classified onto
the six faces of an axis-aligned cube centered at x_t, each face split into
resolution x resolution square cells.  Every polyhedron face is projected
onto the cube faces it is visible on and listed in every cell its footprint
can touch; a query then maps its direction to one cell with a handful of
arithmetic operations and evaluates only that cell's candidate faces.

The projection is conservative: each clipped footprint is covered by the
full rectangle of cells spanning its (s, t) extent, padded by a small
constant.  Footprints whose clipped area vanishes are dropped; any direction
through such a sliver lies on the shared edge of adjacent faces, and the
neighbouring face that shares that edge has a non-degenerate footprint
there, so the deciding boundary plane is still listed.

The index is a buckets.BucketTable, one bucket per cell, around the x_t of
buckets.reference_point.  It maps queries to their cells (bucket_of, and
bucket_of_floats for one point in floats); locate_cubemap and
locate_cubemap_batch are buckets.locate_radial and locate_radial_batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buckets import (BucketTable, RadialIndex, clamp_budget, locate_radial,
                      locate_radial_batch, reference_point, run_expand, whole_budget)
from .core import (Aabb, ConvexPolyhedron, Tolerances, ZeroDirection, query_point, query_points,
                   ring_groups)

FACE_NAMES = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")
RES_CAP = 1024
RES_PER_FACE = 4.0         # target cells per polyhedron face
_RECT_PAD = 1e-9           # cell-cover padding in (s, t) units
_AREA_DROP = 1e-15         # clipped footprints below this area are slivers

# For dominant axis a, the (u, v) axes forming the face coordinates.
_UV = ((1, 2), (0, 2), (0, 1))


def _cell_of(s: float, resolution: int) -> int:
    i = math.floor((s + 1.0) * 0.5 * resolution)
    return 0 if i < 0 else resolution - 1 if i >= resolution else i


def flat_cell(face, i, j, resolution: int):
    """Bucket id of cube-map cell (face, i, j), for ints or int arrays."""
    return (face * resolution + i) * resolution + j


def cubemap_cell(x_t, resolution: int, p, eps_len: float = 0.0):
    """Cube-map cell (face, i, j) of the direction x_t -> p.

    face 0..5 means +X, -X, +Y, -Y, +Z, -Z; the dominant axis is the largest
    absolute component, ties resolved in X, Y, Z order.  i indexes the first
    remaining axis (ascending), j the second, each by floor((s+1)/2 * R)
    clamped to [0, R-1], R a whole number >= 1 (else ValueError).  Raises
    ZeroDirection when p is no farther than eps_len from x_t or a coordinate
    of either is not finite.
    """
    resolution = whole_budget("cube-map resolution", resolution)
    return _direction_cell([float(b) for b in x_t], resolution, query_point(p, 3), eps_len)


def _direction_cell(x_t, resolution: int, q: list, eps_len: float):
    """cubemap_cell with x_t and the point q as floats."""
    d = [a - b for a, b in zip(q, x_t)]
    if not eps_len < math.hypot(*d) < math.inf:
        raise ZeroDirection("no finite direction from the reference point to the query")
    ad = [abs(c) for c in d]
    axis = ad.index(max(ad))
    face = 2 * axis + (1 if d[axis] < 0.0 else 0)
    ua, va = _UV[axis]
    return (face, _cell_of(d[ua] / ad[axis], resolution),
            _cell_of(d[va] / ad[axis], resolution))


def _cells(s, resolution: int) -> np.ndarray:
    """Batch _cell_of: the cell index of every face coordinate in s."""
    return np.clip(np.floor((s + 1.0) * 0.5 * resolution), 0,
                   resolution - 1).astype(np.int64)


def _clip(pts: np.ndarray, counts: np.ndarray, f: np.ndarray):
    """One Sutherland-Hodgman pass over every row: keep the f >= 0 side.

    Row r of pts (M, W, 3) is a ring of counts[r] vertices, f (M, W) its
    clip function.  Vertex k of a ring emits itself when f >= 0 and the
    crossing point of the edge k -> k+1 when the edge changes side, in that
    order; returns the clipped (pts, counts), rows as wide as needed.
    """
    m, w = f.shape
    col = np.arange(w)
    nxt = np.where(col + 1 < counts[:, None], col + 1, 0)
    inside = f >= 0.0
    valid = col < counts[:, None]
    keep = valid & inside
    cross = valid & (inside != inside[np.arange(m)[:, None], nxt])
    emit = keep.astype(np.int64) + cross
    pos = np.cumsum(emit, axis=1) - emit
    counts = emit.sum(axis=1)
    out = np.zeros((m, int(counts.max(initial=0)), 3))
    rows, cols = np.nonzero(keep)
    out[rows, pos[rows, cols]] = pts[rows, cols]
    rows, cols = np.nonzero(cross)
    ends = nxt[rows, cols]
    fa, fb = f[rows, cols], f[rows, ends]
    t = (fa / (fa - fb))[:, None]
    pa, pb = pts[rows, cols], pts[rows, ends]
    out[rows, pos[rows, cols] + keep[rows, cols]] = pa + t * (pb - pa)
    return out, counts


def _footprints(rel: np.ndarray, resolution: int, eps_len: float):
    """Cube-map cells the faces can decide queries for.

    rel (F, k, 3) holds F face rings of k vertices each, relative to x_t.
    Every (cube face, ring) pair is clipped against the cube face's frustum
    in one batch, with the arithmetic of a per-ring loop.  Returns (ring
    index, cube face, i, j) arrays, cube-face-major and in ring order within
    a cube face, each footprint's cells i-major.
    """
    n, k = rel.shape[:2]
    cube = np.repeat(np.arange(6), n)
    owner = np.tile(np.arange(n), 6)
    # Columns permuted to (dominant axis, u, v) of each cube face.
    pts = np.concatenate([rel[:, :, [a, *_UV[a]]] for a in (0, 0, 1, 1, 2, 2)])
    sigma = np.where(cube % 2 == 0, 1.0, -1.0)
    cnt = np.full(6 * n, k)
    for coeff_u, coeff_v, off in ((0.0, 0.0, -eps_len), (-1.0, 0.0, 0.0),
                                  (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                                  (0.0, 1.0, 0.0)):
        f = (sigma[:, None] * pts[:, :, 0] + coeff_u * pts[:, :, 1]
             + coeff_v * pts[:, :, 2] + off)
        pts, cnt = _clip(pts, cnt, f)
        live = cnt >= 3
        pts, cnt, sigma, cube, owner = pts[live], cnt[live], sigma[live], cube[live], owner[live]
    valid = np.arange(pts.shape[1]) < cnt[:, None]
    # The clip leaves every vertex at least eps_len in front of the apex;
    # padding divides by 1 and is never read.
    dom = np.where(valid, sigma[:, None] * pts[:, :, 0], 1.0)
    s, t = pts[:, :, 1] / dom, pts[:, :, 2] / dom
    rows = np.arange(len(pts))
    area2 = np.zeros(len(pts))
    for c in range(pts.shape[1]):
        nc = np.where(c + 1 < cnt, c + 1, 0)
        area2 = np.where(valid[:, c], area2 + (s[:, c] * t[rows, nc] - s[rows, nc] * t[:, c]),
                         area2)
    kept = ~(np.abs(area2) < 2.0 * _AREA_DROP)
    valid = valid[kept]

    def cover(x):
        """First and last cell of each kept footprint's padded extent in x."""
        lo = np.where(valid, x[kept], np.inf).min(axis=1, initial=np.inf)
        hi = np.where(valid, x[kept], -np.inf).max(axis=1, initial=-np.inf)
        return _cells(lo - _RECT_PAD, resolution), _cells(hi + _RECT_PAD, resolution)

    (i0, i1), (j0, j1) = cover(s), cover(t)
    nj = j1 - j0 + 1
    size = (i1 - i0 + 1) * nj
    within = run_expand(np.zeros_like(size), size)
    rep = np.repeat(np.arange(len(size)), size)
    return (owner[kept][rep], cube[kept][rep], i0[rep] + within // nj[rep],
            j0[rep] + within % nj[rep])


def project_face_conservative(face_vertices, x_t, resolution: int,
                              eps_len: float | None = None):
    """Cube-map cells that the face can decide queries for, as (face, i, j).

    The face ring is clipped against each cube-face frustum (apex x_t); the
    surviving part is projected to (s, t) face coordinates and covered by the
    rectangle of cells spanning its extent, padded by a small constant.  The
    clip keeps a margin eps_len > 0 in front of the apex, so projection
    never divides by zero; by default eps_len is that of the Tolerances of
    the box around the ring and x_t.  A batch of one of the index build.
    Raises ValueError naming a non-finite ring vertex or x_t, or a
    resolution that is not a whole number >= 1.
    """
    resolution = whole_budget("cube-map resolution", resolution)
    ring = np.asarray(face_vertices, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    bad = np.flatnonzero(~np.isfinite(ring).all(axis=1))
    if len(bad):
        raise ValueError(f"face ring vertex {bad[0]} is not finite")
    if not np.isfinite(x_t).all():
        raise ValueError("x_t is not finite")
    if eps_len is None:
        eps_len = Tolerances.from_diag(Aabb.of_points(np.vstack([ring, x_t])).diagonal).eps_len
    if not eps_len > 0.0:
        raise ValueError(f"eps_len must be positive, got {eps_len!r}")
    _, face, i, j = _footprints((ring - x_t)[None], resolution, eps_len)
    return list(zip(face.tolist(), i.tolist(), j.tolist()))


@dataclass(frozen=True)
class CubeMapIndex3(RadialIndex):
    """Cube-map cell index of the polyhedron poly around reference point x_t.

    Cell (face, i, j) is bucket flat_cell(face, i, j, resolution), which
    lists its candidate polyhedron face indices.
    """

    resolution: int

    faces_flat = BucketTable.edges

    @property
    def padded_faces(self) -> np.ndarray:
        return self.padded_edges

    def bucket_of(self, points) -> np.ndarray:
        """Flat cell ids of the directions x_t -> points[k] for an (n, 3)
        array (batch cubemap_cell); callers must mask zero directions."""
        res = self.resolution
        uv = np.asarray(_UV, dtype=np.int64)
        d = query_points(points, 3) - self.x_t
        axis = np.argmax(np.abs(d), axis=1)
        rows = np.arange(len(d))
        dom = np.abs(d[rows, axis])
        face = 2 * axis + (d[rows, axis] < 0.0)
        i = _cells(d[rows, uv[axis, 0]] / dom, res)
        j = _cells(d[rows, uv[axis, 1]] / dom, res)
        return flat_cell(face, i, j, res)

    def bucket_of_floats(self, q: list) -> int:
        """Flat cell id of the direction x_t -> q for q three floats, found
        as bucket_of finds it; raises ZeroDirection as cubemap_cell does."""
        res = self.resolution
        return flat_cell(*_direction_cell(self.x_t_floats, res, q, self.poly.tol.eps_len), res)


def default_cubemap_resolution(n_faces: int) -> int:
    want = int(math.ceil(math.sqrt(RES_PER_FACE * n_faces / 6.0)))
    return max(4, clamp_budget("cube-map resolution", want, RES_CAP))


def build_cubemap_index(poly: ConvexPolyhedron) -> CubeMapIndex3:
    """Build the cube-map index at default_cubemap_resolution(poly.n_faces);
    O(F + cells) for bounded footprints.

    Raises ReferenceNotInterior when the vertex mean is not strictly inside.
    """
    x_t = reference_point(poly)
    resolution = default_cubemap_resolution(poly.n_faces)

    # One batch per ring length; the table lists each cell's faces in ring
    # order, as a face-by-face build would.
    parts = []
    for ids, idx in ring_groups(poly.faces):
        owner, face, i, j = _footprints(poly.vertices[idx] - x_t, resolution,
                                        poly.tol.eps_len)
        parts.append((ids[owner], flat_cell(face, i, j, resolution)))
    face_ids, cell_ids = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((face_ids, cell_ids))
    return CubeMapIndex3.pack(cell_ids[order], face_ids[order], 6 * resolution * resolution,
                              poly=poly, x_t=x_t, resolution=resolution)


locate_cubemap = locate_radial
locate_cubemap_batch = locate_radial_batch
