"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own half-plane machinery wherever the
library result is the thing under test: the crossing-number test works on
raw coordinates, and the qhull oracle gets its plane equations from
scipy.spatial.ConvexHull.
"""

import numpy as np
from scipy.spatial import ConvexHull

from convexloc import (Aabb, DegenerateEdge, NotConvex, Tolerances,
                       TooFewVertices, ValidationError)


def crossing_number_inside(vertices, points):
    """Strict even-odd ray-cast containment, independent of half-planes.

    Boundary points are undefined here; callers must only use it on points
    clearly off the boundary.
    """
    v = np.asarray(vertices, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(invalid="ignore", divide="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


def qhull_min_signed_distance(vertices, points):
    """Minimal signed distance to the hull boundary via scipy's qhull.

    qhull equations are outward unit normals with offset, negative inside;
    negating gives the same inside-positive convention the library uses.
    """
    hull = ConvexHull(np.asarray(vertices, dtype=float))
    eq = hull.equations
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = pts @ eq[:, :-1].T + eq[:, -1]
    return -vals.max(axis=1)


def all_pairs_validate_polygon(vertices):
    """Reference polygon validator: the same checks as
    convexloc.validate_polygon up to the turn test, then every edge
    half-plane evaluated at every vertex (O(N^2)), which also rejects
    multiply-wound vertex orders.  Returns (vertices, halfplanes) or raises
    the same ValidationError subclass the library should."""
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError("polygon vertices must form an (N, 2) array")
    if not np.isfinite(v).all():
        raise ValidationError("polygon coordinates must be finite")
    if len(v) < 3:
        raise TooFewVertices(f"polygon needs >= 3 vertices, got {len(v)}")
    diag = Aabb.of_points(v).diagonal
    if diag == 0.0:
        raise DegenerateEdge("all vertices coincide")
    tol = Tolerances.from_diag(diag)
    x, y = v[:, 0], v[:, 1]
    if float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) < 0.0:
        v = v[::-1].copy()
    d = np.roll(v, -1, axis=0) - v
    length = np.hypot(d[:, 0], d[:, 1])
    if (length < tol.eps_len).any() or (length == 0.0).any():
        raise DegenerateEdge("near-zero edge length")
    a = -d[:, 1] / length
    b = d[:, 0] / length
    halfplanes = np.column_stack([a, b, -(a * v[:, 0] + b * v[:, 1])])
    crosses = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    elen = np.linalg.norm(d, axis=1)
    if not (crosses > tol.eps_len * (elen + np.roll(elen, -1))).all():
        raise NotConvex("non-convex or collinear turn")
    if (v @ halfplanes[:, :2].T + halfplanes[:, 2]).min() < -tol.eps_plane:
        raise NotConvex("vertex escapes an edge half-plane beyond tolerance")
    return v, halfplanes


def brute_exit_edges(halfplanes, x_t, dirs, eps=1e-15, chunk=8192):
    """Index of the boundary edge/face each ray x_t + t*d exits through.

    For inward unit-normal planes (n, c): t_i = eval(plane_i, x_t) / (-n.d)
    over planes with n.d < 0; the exit is the smallest positive t.  An exact
    tie at a shared vertex/edge may resolve to either incident element; both
    belong to the same angular cell, so superset checks are unaffected.
    Chunked so dirs x planes never materialises as one huge matrix.
    """
    planes = np.asarray(halfplanes, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    dim = dirs.shape[1]
    f0 = planes[:, :dim] @ x_t + planes[:, dim]
    best = np.empty(len(dirs), dtype=np.int64)
    for lo in range(0, len(dirs), chunk):
        d = dirs[lo:lo + chunk]
        denom = d @ planes[:, :dim].T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom < -eps, f0[None, :] / -denom, np.inf)
        best[lo:lo + len(d)] = np.argmin(t, axis=1)
    return best


def regular_polygon(n, radius=1.0):
    th = np.arange(n) * (2.0 * np.pi / n)
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


def policy_edge_points(shape, x_t):
    """Points on the edges of the direction-bucket query policy: exactly
    eps_q and 2*eps_q beyond each bounding-box face (moved out from x_t and
    from the vertex that attains the face), x_t itself, and x_t +- eps_len/2
    and x_t +- eps_len along each axis."""
    tol, lo, hi = shape.tol, shape.aabb.lo, shape.aabb.hi
    x_t = np.asarray(x_t, dtype=float)
    out = [x_t]
    for k in range(len(x_t)):
        for face, side, vertex in ((hi[k], 1.0, shape.vertices[:, k].argmax()),
                                   (lo[k], -1.0, shape.vertices[:, k].argmin())):
            for base in (x_t, shape.vertices[vertex]):
                for f in (1.0, 2.0):
                    p = np.array(base, dtype=float)
                    p[k] = face + side * f * tol.eps_q
                    out.append(p)
        for step in (0.5, -0.5, 1.0, -1.0):
            p = x_t.copy()
            p[k] += step * tol.eps_len
            out.append(p)
    return np.array(out)


def reaches_planes(shape, x_t, points):
    """Mask of the points a direction-bucket locator must evaluate planes
    for: inside the bounding box grown by eps_q and farther than eps_len
    from x_t."""
    pts = np.asarray(points, dtype=float)
    pad = shape.tol.eps_q
    inbox = ((pts >= shape.aabb.lo - pad) & (pts <= shape.aabb.hi + pad)).all(axis=1)
    return inbox & (np.linalg.norm(pts - x_t, axis=1) > shape.tol.eps_len)
