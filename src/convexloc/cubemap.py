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

Queries go through buckets.locate_radial (one point, in floats) and
buckets.locate_radial_batch; this module supplies only a query's cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buckets import (clamp_budget, csr_sort, locate_radial, locate_radial_batch,
                      padded_table)
from .core import (Containment, ConvexPolyhedron, EvalCounter,
                   ReferenceNotInterior, ZeroDirection, centroid, default_scale,
                   plane_eval)

FACE_NAMES = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")
RES_CAP = 1024
RES_PER_FACE = 4.0         # target cells per polyhedron face
_RECT_PAD = 1e-9           # cell-cover padding in (s, t) units
_AREA_DROP = 1e-15         # clipped footprints below this area are slivers

# For dominant axis a, the (u, v) axes forming the face coordinates.
_UV = ((1, 2), (0, 2), (0, 1))


def _cell_of(s: float, resolution: int) -> int:
    return min(max(int(math.floor((s + 1.0) * 0.5 * resolution)), 0), resolution - 1)


def cubemap_cell(x_t, resolution: int, p, eps_len: float | None = None):
    """Cube-map cell (face, i, j) of the direction x_t -> p.

    face 0..5 means +X, -X, +Y, -Y, +Z, -Z; the dominant axis is the largest
    absolute component, ties resolved in X, Y, Z order.  i indexes the first
    remaining axis (ascending), j the second, each by floor((s+1)/2 * R)
    clamped to [0, R-1].  Raises ZeroDirection when p ~ x_t.
    """
    if eps_len is None:
        eps_len = 1e-12 * default_scale(x_t, p)
    d = [float(a) - float(b) for a, b in zip(p, x_t)]
    if math.hypot(*d) < eps_len:
        raise ZeroDirection("query coincides with the reference point")
    ad = [abs(c) for c in d]
    axis = ad.index(max(ad))
    face = 2 * axis + (1 if d[axis] < 0.0 else 0)
    ua, va = _UV[axis]
    return (face, _cell_of(d[ua] / ad[axis], resolution),
            _cell_of(d[va] / ad[axis], resolution))


def _clip_halfspace(pts, fvals):
    """One Sutherland-Hodgman pass: keep the fvals >= 0 side."""
    out = []
    n = len(pts)
    for k in range(n):
        a, b = k, (k + 1) % n
        fa, fb = fvals[a], fvals[b]
        if fa >= 0.0:
            out.append(pts[a])
        if (fa >= 0.0) != (fb >= 0.0):
            t = fa / (fa - fb)
            pa, pb = pts[a], pts[b]
            out.append((pa[0] + t * (pb[0] - pa[0]),
                        pa[1] + t * (pb[1] - pa[1]),
                        pa[2] + t * (pb[2] - pa[2])))
    return out


def project_face_conservative(face_vertices, x_t, resolution: int,
                              eps_len: float | None = None):
    """Cube-map cells that the face can decide queries for, as (face, i, j).

    The face ring is clipped against each cube-face frustum (apex x_t); the
    surviving part is projected to (s, t) face coordinates and covered by the
    rectangle of cells spanning its extent, padded by a small constant.  The
    clip keeps a margin eps_len in front of the apex, so projection never
    divides by zero.
    """
    ring = np.asarray(face_vertices, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    if eps_len is None:
        eps_len = 1e-12 * default_scale(ring, x_t)
    base = [tuple(q) for q in (ring - x_t)]
    cells = []
    for face in range(6):
        axis = face >> 1
        sigma = 1.0 if face % 2 == 0 else -1.0
        ua, va = _UV[axis]
        pts = base
        for coeff_u, coeff_v, off in ((0.0, 0.0, -eps_len), (-1.0, 0.0, 0.0),
                                      (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                                      (0.0, 1.0, 0.0)):
            fvals = [sigma * q[axis] + coeff_u * q[ua] + coeff_v * q[va] + off
                     for q in pts]
            pts = _clip_halfspace(pts, fvals)
            if len(pts) < 3:
                break
        if len(pts) < 3:
            continue
        proj = [(q[ua] / (sigma * q[axis]), q[va] / (sigma * q[axis])) for q in pts]
        area2 = 0.0
        for k in range(len(proj)):
            s1, t1 = proj[k]
            s2, t2 = proj[(k + 1) % len(proj)]
            area2 += s1 * t2 - s2 * t1
        if abs(area2) < 2.0 * _AREA_DROP:
            continue
        ss = [q[0] for q in proj]
        tt = [q[1] for q in proj]
        i0 = _cell_of(min(ss) - _RECT_PAD, resolution)
        i1 = _cell_of(max(ss) + _RECT_PAD, resolution)
        j0 = _cell_of(min(tt) - _RECT_PAD, resolution)
        j1 = _cell_of(max(tt) + _RECT_PAD, resolution)
        cells += [(face, i, j)
                  for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
    return cells


@dataclass(frozen=True)
class CubeMapIndex3:
    """Cube-map cell index around reference point x_t.

    Cells are flattened as (face * resolution + i) * resolution + j; edges of
    the CSR arrays hold candidate polyhedron face indices per cell.
    """

    poly: ConvexPolyhedron
    x_t: np.ndarray
    resolution: int
    offsets: np.ndarray
    faces_flat: np.ndarray
    counts: np.ndarray
    max_occupancy: int
    mean_occupancy: float

    def cell_faces(self, face: int, i: int, j: int) -> np.ndarray:
        flat = (face * self.resolution + i) * self.resolution + j
        return self.faces_flat[self.offsets[flat]:self.offsets[flat + 1]]

    def cell_of(self, points) -> np.ndarray:
        """Flat cell ids of the directions x_t -> points[k] for an (n, 3)
        array (batch cubemap_cell); callers must mask zero directions."""
        res = self.resolution
        uv = np.asarray(_UV, dtype=np.int64)
        d = np.asarray(points, dtype=float) - self.x_t
        axis = np.argmax(np.abs(d), axis=1)
        rows = np.arange(len(d))
        dom = np.abs(d[rows, axis])
        face = 2 * axis + (d[rows, axis] < 0.0)
        i = np.clip(np.floor((d[rows, uv[axis, 0]] / dom + 1.0) * 0.5 * res), 0, res - 1)
        j = np.clip(np.floor((d[rows, uv[axis, 1]] / dom + 1.0) * 0.5 * res), 0, res - 1)
        return (face * res + i.astype(np.int64)) * res + j.astype(np.int64)

    @cached_property
    def padded_faces(self) -> np.ndarray:
        return padded_table(self.offsets, self.faces_flat, self.counts)


def default_cubemap_resolution(n_faces: int) -> int:
    want = int(math.ceil(math.sqrt(RES_PER_FACE * n_faces / 6.0)))
    return max(4, clamp_budget("cube-map resolution", want, RES_CAP))


def build_cubemap_index(poly: ConvexPolyhedron, resolution: int | None = None,
                        x_t=None) -> CubeMapIndex3:
    """Build the cube-map index; O(F + cells) for bounded footprints.

    Raises ReferenceNotInterior when x_t is not strictly inside.
    """
    if x_t is None:
        x_t = centroid(poly)
    x_t = np.array(x_t, dtype=float)
    if float(plane_eval(poly.halfspaces, x_t).min()) <= poly.tol.eps_q:
        raise ReferenceNotInterior("reference point must be strictly inside")

    if resolution is None:
        resolution = default_cubemap_resolution(poly.n_faces)
    resolution = clamp_budget("cube-map resolution", resolution, RES_CAP)

    cell_ids = []
    face_ids = []
    for k, ring in enumerate(poly.faces):
        for face, i, j in project_face_conservative(
                poly.vertices[list(ring)], x_t, resolution, eps_len=poly.tol.eps_len):
            cell_ids.append((face * resolution + i) * resolution + j)
            face_ids.append(k)
    n_cells = 6 * resolution * resolution
    offsets, faces_flat, counts = csr_sort(np.asarray(cell_ids, dtype=np.int64),
                                           np.asarray(face_ids, dtype=np.int64),
                                           n_cells)
    if int(counts.min()) < 1:
        raise AssertionError("cube-map construction produced an empty cell")

    for arr in (offsets, faces_flat, counts, x_t):
        arr.setflags(write=False)
    return CubeMapIndex3(poly=poly, x_t=x_t, resolution=resolution,
                         offsets=offsets, faces_flat=faces_flat, counts=counts,
                         max_occupancy=int(counts.max()),
                         mean_occupancy=float(counts.mean()))


def locate_cubemap(idx: CubeMapIndex3, p, counter: EvalCounter | None = None) -> Containment:
    """O(1) query: direction cell lookup, then the cell's candidate faces;
    buckets.locate_radial applies the policy."""
    def cell_faces(q):
        return idx.cell_faces(*cubemap_cell(idx.x_t, idx.resolution, q,
                                            eps_len=idx.poly.tol.eps_len))
    return locate_radial(idx.poly, idx.poly.halfspaces, idx.x_t, p, cell_faces, counter)


def locate_cubemap_batch(idx: CubeMapIndex3, points) -> np.ndarray:
    """Batch form of locate_cubemap: int8 Containment codes, one per point."""
    return locate_radial_batch(idx.poly, idx.poly.halfspaces, idx.x_t,
                               idx.padded_faces, points, idx.cell_of)
