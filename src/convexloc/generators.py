"""Deterministic test-instance generators and cross-method comparison.

Polygons are sampled on ellipses with jittered-grid angles: vertex j gets
angle (j + jitter*(U_j - 0.5)) * 2*pi/n with U_j uniform in [0, 1).  With
jitter <= 0.9 consecutive angles stay at least 0.1 * 2*pi/n apart by
construction, so generation always terminates and never produces degenerate
edges; jitter = 0 yields exact regular angles, which several tests use as a
fixed-geometry hook.

Polyhedra are affinely mapped icospheres (subdivided icosahedra), giving
strictly convex triangle meshes of 20 * 4**level faces.

All randomness flows through numpy's PCG64 so identical specs reproduce
identical shapes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .core import (Aabb, ConvexPolygon, ConvexPolyhedron, SingularAffine,
                   min_signed_distance, query_points, validate_polygon, validate_polyhedron)

MAX_ICOSPHERE_LEVEL = 5
MAX_EXAMPLES = 16          # mismatches a MismatchReport lists
# Ellipse semi-axes cycled over verification corpora.
CORPUS_AXES = ((1.0, 1.0), (1.3, 0.9), (1.5, 1.0), (0.8, 1.2))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _whole(name: str, value, lo: int, hi: float = np.inf) -> int:
    """value as an int; raises a ValueError naming name and value unless it
    is an integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= hi:
        bound = f">= {lo}" if hi == np.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be a whole number {bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GenSpec2:
    """Recipe for one random convex polygon (ellipse with jittered angles)."""

    n: int
    seed: int
    semi_axes: tuple = (1.0, 1.0)
    rotation: float = 0.0
    jitter: float = 0.9


def gen_convex_polygon(spec: GenSpec2) -> ConvexPolygon:
    n = _whole("n", spec.n, 3)
    if not 0.0 <= spec.jitter <= 0.9:
        raise ValueError("jitter must lie in [0, 0.9] to bound angular gaps")
    if len(spec.semi_axes) != 2:
        raise ValueError("polygon generator needs exactly two semi-axes")
    a, b = float(spec.semi_axes[0]), float(spec.semi_axes[1])
    if not (0.0 < a < np.inf and 0.0 < b < np.inf):
        raise ValueError(f"semi_axes must be positive and finite, got {spec.semi_axes!r}")
    if not np.isfinite(spec.rotation):
        raise ValueError(f"rotation must be finite, got {spec.rotation!r}")
    u = _rng(spec.seed).random(n)
    theta = (np.arange(n) + spec.jitter * (u - 0.5)) * (2.0 * np.pi / n)
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    c, s = np.cos(spec.rotation), np.sin(spec.rotation)
    pts = pts @ np.array([[c, s], [-s, c]])
    return validate_polygon(pts)


# ---------------------------------------------------------------------------
# icospheres and affine maps
# ---------------------------------------------------------------------------

def _base_icosahedron():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
                  (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
                  (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)], dtype=float)
    v /= np.linalg.norm(v, axis=1)[:, None]
    f = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
         (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
         (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
         (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    return v, f


_ICOSPHERE_CACHE: dict[int, tuple[np.ndarray, list]] = {}


def icosphere(level: int):
    """Unit-sphere triangle mesh with 20 * 4**level faces; memoized."""
    level = _whole("level", level, 0, MAX_ICOSPHERE_LEVEL)
    if level in _ICOSPHERE_CACHE:
        return _ICOSPHERE_CACHE[level]
    if level == 0:
        v, f = _base_icosahedron()
    else:
        v_prev, f_prev = icosphere(level - 1)
        n = len(v_prev)
        # Edges (a, b), (b, c), (c, a) of every face, face by face; the k-th
        # distinct edge in that order gets the new vertex n + k.
        ends = np.sort(np.stack([f_prev, np.roll(f_prev, -1, axis=1)], axis=-1).reshape(-1, 2))
        _, first, inverse = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        i, j = ends[first[order]].T
        m = 0.5 * (v_prev[i] + v_prev[j])
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]   # np.linalg.norm's, bit for bit
        v = np.concatenate([v_prev, m])
        # Columns a, b, c, ab, bc, ca: each face splits into (a, ab, ca),
        # (b, bc, ab), (c, ca, bc) and (ab, bc, ca).
        abc = np.column_stack([f_prev, n + np.argsort(order)[inverse].reshape(-1, 3)])
        f = abc[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3).tolist()
    v.setflags(write=False)
    _ICOSPHERE_CACHE[level] = (v, tuple(tuple(face) for face in f))
    return _ICOSPHERE_CACHE[level]


def random_affine(seed: int):
    """Well-conditioned random 3D affine map: rotation * scale * rotation
    plus translation, determinant always positive.  Returns (matrix, t)."""
    rng = _rng(seed)

    def rotation() -> np.ndarray:
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        return q

    q1 = rotation()
    scales = rng.uniform(0.6, 1.8, size=3)
    q2 = rotation()
    t = rng.uniform(-0.5, 0.5, size=3)
    return q1 @ np.diag(scales) @ q2, t


@dataclass(frozen=True)
class GenSpec3:
    """Recipe for one random convex polyhedron (affinely mapped icosphere).

    With matrix None a random_affine(seed) map is drawn; an explicit matrix
    must have positive determinant (relative to its scale).
    """

    level: int
    seed: int
    matrix: np.ndarray | None = None
    translation: np.ndarray | None = None


def gen_convex_polyhedron(spec: GenSpec3) -> ConvexPolyhedron:
    base_v, base_f = icosphere(spec.level)
    matrix, translation = (random_affine(spec.seed) if spec.matrix is None
                           else (np.asarray(spec.matrix, dtype=float), np.zeros(3)))
    if spec.translation is not None:
        translation = np.asarray(spec.translation, dtype=float)
    for name, value in (("matrix", matrix), ("translation", translation)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    det = float(np.linalg.det(matrix))
    scale = float(np.linalg.norm(matrix)) / np.sqrt(3.0)
    if det <= 1e-12 * scale ** 3:
        raise SingularAffine(f"affine map needs positive determinant, got {det:g}")
    return validate_polyhedron(base_v @ matrix.T + translation, base_f)


# ---------------------------------------------------------------------------
# query point clouds and method comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuerySpec:
    """Uniform query cloud over the shape's bounding box inflated about its
    center; inflation 1.5 puts roughly 1/1.5**dim of points inside."""

    m: int
    seed: int
    inflation: float = 1.5


def gen_query_points(aabb: Aabb, spec: QuerySpec) -> np.ndarray:
    m = _whole("m", spec.m, 0)
    if not 0.0 < spec.inflation < np.inf:
        raise ValueError(f"inflation must be positive and finite, got {spec.inflation!r}")
    box = aabb.inflated(spec.inflation)
    dim = len(box.lo)
    pts = box.lo + _rng(spec.seed).random((m, dim)) * (box.hi - box.lo)
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class MismatchReport:
    """Outcome of running several batch locators over one point cloud.

    A disagreement is any point where some method's code differs from the
    first method's; it counts as a mismatch only when the point lies clearly
    off the boundary (|minimal signed distance| > band, band = 2 * eps_q),
    because inside the band either answer is defensible.
    """

    n_points: int
    n_disagreements: int
    n_mismatches: int
    band: float
    examples: tuple = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return self.n_mismatches == 0


def compare_methods(shape, points, methods: dict[str, Callable]) -> MismatchReport:
    pts = query_points(points, shape.dim)
    names = tuple(methods)
    if len(names) < 2:
        raise ValueError("need at least two methods to compare")
    codes = {name: np.asarray(methods[name](pts), dtype=np.int8) for name in names}
    ref = codes[names[0]]
    disagree = np.zeros(len(pts), dtype=bool)
    for name in names[1:]:
        disagree |= codes[name] != ref
    band = 2.0 * shape.tol.eps_q
    n_disagreements = int(disagree.sum())
    if n_disagreements:
        oracle = min_signed_distance(shape, pts)
        counted = disagree & (np.abs(oracle) > band)
    else:
        counted = disagree
    idx = np.flatnonzero(counted)
    examples = tuple(
        (int(i), tuple(float(c) for c in pts[i]), float(oracle[i]),
         {name: int(codes[name][i]) for name in names})
        for i in idx[:MAX_EXAMPLES])
    return MismatchReport(n_points=len(pts), n_disagreements=n_disagreements,
                          n_mismatches=int(counted.sum()),
                          band=band, examples=examples)
