"""Constant-time 3D point location via cube-map direction cells.

Directions from a strictly interior reference point x_t are classified onto
the six faces of an axis-aligned cube centered at x_t, each face split into
resolution x resolution square cells.  Every polyhedron face is projected
onto the cube faces it is visible on and listed in every cell its footprint
can touch; a query then maps its direction to one cell with a handful of
arithmetic operations and evaluates only that cell's candidate faces.

The projection is conservative, and exact up to a small padding: each
clipped footprint is covered row by row (conservative rasterization, as in
Hasselgren, Akenine-Moller & Ohlsson, GPU Gems 2, 2005).  Every cell row
its padded s-extent reaches lists the cells of the footprint's t-extent
within the row's band, the band and the extent each padded by a small
constant.  Footprints whose clipped area vanishes are dropped; any
direction through such a sliver lies on the shared edge of adjacent faces,
and the neighbouring face that shares that edge has a non-degenerate
footprint there, so the deciding boundary plane is still listed.

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
_COVER_PAD = 1e-9          # cell-cover padding in (s, t) units
_AREA_DROP = 1e-15         # clipped footprints below this area are slivers

# For dominant axis a, the (u, v) axes forming the face coordinates.
_UV = ((1, 2), (0, 2), (0, 1))
# (dominant axis, u, v) and the sign of the dominant axis of each cube face.
_AXES = np.array([(0, 1, 2), (0, 1, 2), (1, 0, 2), (1, 0, 2), (2, 0, 1), (2, 0, 1)])
_SIGN = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


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
    """One Sutherland-Hodgman pass over every ring: keep the f >= 0 side.

    pts (3, W, M) holds M rings vertex-major, pts[:, k, r] vertex k of ring
    r, which has counts[r] vertices; f (W, M) is their clip function.
    Vertex k of a ring emits itself when f >= 0 and the crossing point of
    the edge k -> k+1 when the edge changes side, in that order.  A ring
    wholly on one side keeps all its vertices or none, so only the rings
    the plane cuts are rewritten.  Returns the (pts, counts) of the rings
    left with any vertex, as wide as needed with padding that is never
    read, and the indices of those rings.
    """
    w, m = f.shape
    vert = np.arange(w)[:, None]
    inside = f >= 0.0
    n_in = (inside & (vert < counts)).sum(axis=0)
    cut = ((n_in > 0) & (n_in < counts)).nonzero()[0]
    c, ins = counts[cut], inside[:, cut]
    valid = vert < c
    keep = valid & ins
    cross = valid & (ins != np.where(vert + 1 < c, np.concatenate([ins[1:], ins[:1]]), ins[:1]))
    emit = keep.astype(np.int64) + cross
    pos = np.cumsum(emit, axis=0) - emit
    n_in[cut] = emit.sum(axis=0)
    live = n_in > 0
    col = (np.cumsum(live) - 1)[cut]        # output column of each cut ring
    live = live.nonzero()[0]
    width = int(n_in.max(initial=0))
    out = np.zeros((3, width, len(live)))
    out[:, :w] = pts[:, :width, live]
    k, r = np.nonzero(keep)
    out[:, pos[k, r], col[r]] = pts[:, k, cut[r]]
    k, r = np.nonzero(cross)
    ends, g = np.where(k + 1 < c[r], k + 1, 0), cut[r]
    fa, fb = f[k, g], f[ends, g]
    t = fa / (fa - fb)
    pa, pb = pts[:, k, g], pts[:, ends, g]
    out[:, pos[k, r] + keep[k, r], col[r]] = pa + t * (pb - pa)
    return out, n_in[live], live


def _footprints(rel: np.ndarray, resolution: int, eps_len: float):
    """Cube-map cells the faces can decide queries for.

    rel (F, k, 3) holds F face rings of k vertices each, relative to x_t.
    Every (cube face, ring) pair is clipped against the cube face's frustum
    in one batch, with the arithmetic of a per-ring loop, and each kept
    footprint is covered row by row: each cell row its padded s-extent
    reaches lists the padded t-extent of the footprint within the row's
    padded band.  Returns (ring index, cube face, i, j) arrays,
    cube-face-major and in ring order within a cube face, each footprint's
    cells i-major.
    """
    n, k = rel.shape[:2]
    # Coordinates (dominant axis, u, v) on each cube face, vertex-major so
    # that every per-ring step runs along the long axis; ring r of the
    # batch is face ring r % n on cube face r // n.
    pts = rel.T[_AXES].transpose(1, 2, 0, 3).reshape(3, k, 6 * n)
    ids = np.arange(6 * n)
    sigma = np.repeat(_SIGN, n)
    cnt = np.full(6 * n, k)
    for coeff_u, coeff_v, off in ((0.0, 0.0, -eps_len), (-1.0, 0.0, 0.0),
                                  (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                                  (0.0, 1.0, 0.0)):
        f = sigma * pts[0] + coeff_u * pts[1] + coeff_v * pts[2] + off
        pts, cnt, live = _clip(pts, cnt, f)
        sigma, ids = sigma[live], ids[live]
    m = len(ids)
    vert = np.arange(pts.shape[1])[:, None]
    valid = vert < cnt
    # The clip leaves every vertex at least eps_len in front of the apex;
    # padding divides by 1 and is never read.
    st = pts[1:] / np.where(valid, sigma * pts[0], 1.0)
    stn = st[:, np.where(vert + 1 < cnt, vert + 1, 0), np.arange(m)]
    # Twice the signed area, summed vertex by vertex in ring order.
    area2 = np.cumsum(st[0] * stn[1] - stn[0] * st[1], axis=0)[cnt - 1, np.arange(m)]
    kept = ~(np.abs(area2) < 2.0 * _AREA_DROP)
    st, stn, valid, ids = st[:, :, kept], stn[:, :, kept], valid[:, kept], ids[kept]

    # One (footprint, row) pair per row of the padded s-extent.
    i0, i1 = _cells(np.array([np.where(valid, st[0], np.inf).min(axis=0, initial=np.inf)
                              - _COVER_PAD,
                              np.where(valid, st[0], -np.inf).max(axis=0, initial=-np.inf)
                              + _COVER_PAD]), resolution)
    rows = i1 - i0 + 1
    # Each ring edge a -> b (sa, ta) -> (sb, tb) meets the rows its s-span
    # reaches; a margin of two pads keeps every row whose band holds a or
    # whose band lines cross the edge, however those round.
    fp = np.flatnonzero(valid) % len(ids)
    sa, ta, sb, tb = np.concatenate([st[:, valid], stn[:, valid]])
    r0, r1 = _cells(np.array([np.minimum(sa, sb) - 2.0 * _COVER_PAD,
                              np.maximum(sa, sb) + 2.0 * _COVER_PAD]), resolution)
    r0, r1 = np.maximum(r0, i0[fp]), np.minimum(r1, i1[fp])
    edge = np.repeat(np.arange(len(sa)), r1 - r0 + 1)
    row = run_expand(r0, r1 - r0 + 1)
    pair = np.repeat((np.cumsum(rows) - rows - i0)[fp], r1 - r0 + 1) + row
    # Row i's band, padded; the first and last rows are unbounded, as
    # _cells clamps into them.
    lines = -1.0 + 2.0 * np.arange(resolution + 1) / resolution
    band = np.array([lines[:-1] - _COVER_PAD, lines[1:] + _COVER_PAD])
    band[0, 0], band[1, -1] = -np.inf, np.inf
    band = band[:, row]
    sa, ta, sb, tb = sa[edge], ta[edge], sb[edge], tb[edge]
    # A pair's t-extent spans vertex a where the band holds it and the
    # edge's crossings with the two band lines.
    cross = (sa - band) * (sb - band) < 0.0
    hits = np.concatenate([ta[None], ta + np.divide(band - sa, sb - sa, out=np.zeros(cross.shape),
                                                    where=cross) * (tb - ta)])
    use = np.concatenate([((sa >= band[0]) & (sa <= band[1]))[None], cross])
    lo = np.full(int(rows.sum()), np.inf)
    hi = np.full(len(lo), -np.inf)
    np.minimum.at(lo, pair, np.where(use, hits, np.inf).min(axis=0))
    np.maximum.at(hi, pair, np.where(use, hits, -np.inf).max(axis=0))
    j0, j1 = _cells(np.array([lo - 2.0 * _COVER_PAD, hi + 2.0 * _COVER_PAD]), resolution)
    # _cells can round a footprint's padded s-extent into a row whose band
    # it misses by an ulp; that row finds no point and lists no cell.
    size = np.maximum(j1 - j0 + 1, 0)
    ring = np.repeat(np.repeat(ids, rows), size)
    return ring % n, ring // n, np.repeat(run_expand(i0, rows), size), run_expand(j0, size)


def project_face_conservative(face_vertices, x_t, resolution: int,
                              eps_len: float | None = None):
    """Cube-map cells that the face can decide queries for, as (face, i, j).

    The face ring is clipped against each cube-face frustum (apex x_t); the
    surviving part is projected to (s, t) face coordinates and covered row
    by row: each cell row its padded s-extent reaches lists the cells of
    its t-extent within the row's padded band, padded in turn.  The clip
    keeps a margin eps_len > 0 in front of the apex, so projection never
    divides by zero; by default eps_len is that of the Tolerances of the
    box around the ring and x_t.  A batch of one of the index build.
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
