"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own half-plane machinery wherever the
library result is the thing under test: the crossing-number test works on
raw coordinates, and the qhull oracle gets its plane equations from
scipy.spatial.ConvexHull.  The loop_* references are the polyhedron
validator and cube-map builder written face by face in Python loops, the
form the batched library code must reproduce; csr_pack is the bucket-table
packing in two passes, a CSR sort and then a padding pass, which
buckets.BucketTable.pack does in one; wedge_fan_lines is the wedge
builder's own former fan-line formula on line_halfplanes_reference, the
line planes as np.column_stack built them, and dict_icosphere the
icosphere subdivision one face at a time.  bucketed_min_reference,
boundary_param_batch_reference and locate_radial_batch_reference are the
batch query path as it was before the bucket kernel worked on table
columns: whole-row gathers, a row minimum and boolean row compression;
classify_min_reference is the batch classification as nested np.where,
slab_of_reference the polar slab map as floor and modulo, and
near_reference the near-x_t mask as a loop over the columns.
frame_matrix rebuilds a radial index's frame matrix L from its floats,
frame_radius2 is its r^2 as one matrix product and a row sum,
radius2_reference the batch r^2 as it was unrolled for 2D and 3D, and
reaches_planes the rule for which points must reach the planes;
frame_points, least_plane, frame_shapes and sliver_shapes serve the tests
of the frame's two bounds.
"""

import functools
import math

import numpy as np
from scipy.spatial import ConvexHull

from convexloc import (Aabb, Containment, ConvexPolyhedron, CubeMapIndex3, DegenerateEdge,
                       DegenerateFace, EulerViolation, GenSpec2, GenSpec3, InteriorOnPlane,
                       NonPlanarFace, NotConvex, ParseError, ReferenceNotInterior,
                       Tolerances, TooFewVertices, ValidationError, centroid,
                       gen_convex_polygon, gen_convex_polyhedron, icosphere, plane_eval,
                       validate_polygon, validate_polyhedron)
from convexloc.buckets import clamp_budget
from convexloc.cubemap import RES_CAP, default_cubemap_resolution


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


def _loop_face_plane(ring, interior, eps_len, eps_plane, eps_q):
    """One face's unit-normal plane oriented toward interior, computed ring
    by ring (Newell normal in absolute coordinates); (coeffs, flipped)."""
    nxt = np.roll(ring, -1, axis=0)
    n = np.cross(ring, nxt).sum(axis=0)
    norm = float(np.linalg.norm(n))
    perimeter = float(np.linalg.norm(nxt - ring, axis=1).sum())
    if norm <= 2.0 * eps_len * max(perimeter, 1e-300):
        raise DegenerateFace("face vertices are collinear")
    n = n / norm
    d = -float(n @ ring.mean(axis=0))
    dev = np.abs(ring @ n + d)
    if float(dev.max()) > eps_plane:
        raise NonPlanarFace(f"face deviates from its plane by {dev.max():g}")
    side = float(interior @ n + d)
    if abs(side) < eps_q:
        raise InteriorOnPlane("interior reference point lies on the face plane")
    if side < 0.0:
        return np.array([-n[0], -n[1], -n[2], -d]), True
    return np.array([n[0], n[1], n[2], d]), False


def loop_validate_polyhedron(vertices, faces):
    """Reference polyhedron validator: the same checks as
    convexloc.validate_polyhedron, one face at a time in Python loops, then
    every vertex against every face plane.  Returns a ConvexPolyhedron or
    raises the ValidationError subclass, naming the face, that the library
    should."""
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValidationError("polyhedron vertices must form a (V, 3) array")
    if not np.isfinite(v).all():
        raise ValidationError("polyhedron coordinates must be finite")
    if len(v) < 4:
        raise TooFewVertices(f"polyhedron needs >= 4 vertices, got {len(v)}")
    aabb = Aabb.of_points(v)
    if aabb.diagonal == 0.0:
        raise DegenerateEdge("all vertices coincide")
    tol = Tolerances.from_diag(aabb.diagonal)
    interior = v.mean(axis=0)
    rings = []
    for k, face in enumerate(faces):
        ring = np.asarray(face, dtype=np.int64)
        if ring.ndim != 1 or len(ring) < 3:
            raise TooFewVertices(f"face {k} has fewer than 3 vertices")
        if (ring < 0).any() or (ring >= len(v)).any():
            raise ValidationError(f"face {k} references a vertex out of range")
        if len(np.unique(ring)) != len(ring):
            raise DegenerateFace(f"face {k} repeats a vertex")
        rings.append(ring)
    if len(rings) < 4:
        raise TooFewVertices(f"polyhedron needs >= 4 faces, got {len(rings)}")
    halfspaces = np.empty((len(rings), 4))
    oriented = []
    for k, ring in enumerate(rings):
        try:
            coeffs, flipped = _loop_face_plane(v[ring], interior, tol.eps_len,
                                               tol.eps_plane, tol.eps_q)
        except ValidationError as exc:
            raise type(exc)(f"face {k}: {exc}") from None
        halfspaces[k] = coeffs
        oriented.append(tuple(int(i) for i in (ring[::-1] if flipped else ring)))
    if (v @ halfspaces[:, :3].T + halfspaces[:, 3]).min() < -tol.eps_plane:
        raise NotConvex("a vertex lies outside a face plane beyond tolerance")
    edges = set()
    for ring in oriented:
        for i, j in zip(ring, ring[1:] + ring[:1]):
            edges.add((i, j) if i < j else (j, i))
    euler = len(v) - len(edges) + len(oriented)
    if euler != 2:
        raise EulerViolation(f"V - E + F = {euler}, expected 2")
    return ConvexPolyhedron(vertices=v, faces=tuple(oriented),
                            halfspaces=halfspaces, aabb=aabb, tol=tol)


_UV = ((1, 2), (0, 2), (0, 1))


def _loop_cell_of(s, resolution):
    return min(max(int(math.floor((s + 1.0) * 0.5 * resolution)), 0), resolution - 1)


def _loop_clip(pts, fvals):
    """One Sutherland-Hodgman pass over a list of points: keep fvals >= 0."""
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


def loop_project_face(ring, x_t, resolution, eps_len):
    """Cube-map cells (face, i, j) of one face ring, clipped vertex by
    vertex in Python floats against each cube-face frustum."""
    base = [tuple(q) for q in (np.asarray(ring, dtype=float) - x_t)]
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
            pts = _loop_clip(pts, fvals)
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
        if abs(area2) < 2.0 * 1e-15:
            continue
        ss = [q[0] for q in proj]
        tt = [q[1] for q in proj]
        i0 = _loop_cell_of(min(ss) - 1e-9, resolution)
        i1 = _loop_cell_of(max(ss) + 1e-9, resolution)
        j0 = _loop_cell_of(min(tt) - 1e-9, resolution)
        j1 = _loop_cell_of(max(tt) + 1e-9, resolution)
        cells += [(face, i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
    return cells


def loop_build_cubemap_index(poly, resolution=None):
    """Reference cube-map builder around the vertex mean: loop_project_face
    on every face in turn, then the CSR packing of
    convexloc.build_cubemap_index."""
    x_t = centroid(poly)
    if float(plane_eval(poly.halfspaces, x_t).min()) <= poly.tol.eps_q:
        raise ReferenceNotInterior("reference point must be strictly inside")
    if resolution is None:
        resolution = default_cubemap_resolution(poly.n_faces)
    resolution = clamp_budget("cube-map resolution", resolution, RES_CAP)
    cell_ids, face_ids = [], []
    for k, ring in enumerate(poly.faces):
        for face, i, j in loop_project_face(poly.vertices[list(ring)], x_t, resolution,
                                            poly.tol.eps_len):
            cell_ids.append((face * resolution + i) * resolution + j)
            face_ids.append(k)
    _, _, counts, padded = csr_pack(np.asarray(cell_ids, dtype=np.int64),
                                    np.asarray(face_ids, dtype=np.int64),
                                    6 * resolution * resolution)
    return CubeMapIndex3(poly=poly, x_t=x_t, resolution=resolution,
                         padded_edges=padded, counts=counts)


def csr_pack(bucket_ids, item_ids, n_buckets):
    """(offsets, edges, counts, padded_edges) of the (bucket, item) pairs:
    the CSR lists, items kept in input order within a bucket, and then the
    (n_buckets, max count) table whose short rows repeat their first entry."""
    counts = np.bincount(bucket_ids, minlength=n_buckets)
    offsets = np.empty(n_buckets + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(bucket_ids, kind="stable")
    edges, counts = item_ids[order].astype(np.int32), counts.astype(np.int32)
    occ, first = int(counts.max()), offsets[:-1]
    padded = np.repeat(edges[first], occ).reshape(n_buckets, occ)
    rows = np.repeat(np.arange(n_buckets, dtype=np.int64), counts)
    cols = np.arange(len(edges), dtype=np.int64) - np.repeat(first, counts)
    padded[rows, cols] = edges
    return offsets, edges, counts, padded


def runs_pairs(first, runs, n_buckets):
    """(bucket_ids, item_ids) listing item e in the runs[e] buckets from
    first[e] on, wrapping past the last bucket to bucket 0."""
    buckets = [np.arange(f, f + r, dtype=np.int64) for f, r in zip(first.tolist(), runs.tolist())]
    return (np.concatenate(buckets) % n_buckets,
            np.repeat(np.arange(len(first), dtype=np.int64), runs))


def wedge_fan_lines(vertices):
    """Fan lines of a wedge index, row i the unit-normal line through
    vertices[0] and vertices[i] (row 0 NaN padding), in the formula the
    wedge builder used before it shared core.line_halfplanes."""
    v = np.asarray(vertices, dtype=float)
    g = np.full((len(v), 3), np.nan)
    g[1:] = line_halfplanes_reference(v[:1], v[1:])
    return g


def line_halfplanes_reference(starts, ends):
    """core.line_halfplanes without its length check, as an np.column_stack
    of the three coefficient columns (a C-ordered array)."""
    d = ends - starts
    length = np.hypot(d[:, 0], d[:, 1])
    a = -d[:, 1] / length
    b = d[:, 0] / length
    c = -(a * starts[:, 0] + b * starts[:, 1])
    return np.column_stack([a, b, c])


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


def dict_icosphere(level):
    """generators.icosphere as it subdivided before it was vectorised: one
    face at a time, a dict from each edge to its midpoint's index, and
    np.linalg.norm per new vertex."""
    if level == 0:
        return icosphere(0)
    v_prev, f_prev = dict_icosphere(level - 1)
    verts = [tuple(q) for q in v_prev]
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        k = midpoint.get(key)
        if k is None:
            m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
            m /= np.linalg.norm(m)
            k = len(verts)
            verts.append(tuple(m))
            midpoint[key] = k
        return k

    f = []
    for a, b, c in f_prev:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        f.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.asarray(verts), tuple(f)


def regular_polygon(n, radius=1.0):
    th = np.arange(n) * (2.0 * np.pi / n)
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


def prism_mesh(k):
    """Raw (vertices, faces) of a k-gon prism: two k-gon caps and k quads;
    the bottom cap is wound inward, so validation reverses it."""
    ring = regular_polygon(k)
    v = np.vstack([np.column_stack([ring, np.zeros(k)]),
                   np.column_stack([ring, np.ones(k)])])
    f = [tuple(range(k)), tuple(range(k, 2 * k))]
    f += [(i, (i + 1) % k, k + (i + 1) % k, k + i) for i in range(k)]
    return v, f


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


def nonfinite_rows(dim):
    """Points with one NaN, +inf or -inf coordinate, each axis in turn."""
    bad = np.zeros((3 * dim, dim))
    for k in range(dim):
        bad[3 * k:3 * k + 3, k] = (np.nan, np.inf, -np.inf)
    return bad


def point_types(pts):
    """The points as each type a scalar locator takes, by name: (the batch
    of that type, its rows).  Tuples of Python floats, float64 and float32
    numpy rows, and int64 numpy rows of the finite points, truncated."""
    finite = pts[np.isfinite(pts).all(axis=1)].astype(np.int64)
    single = pts.astype(np.float32)
    return {"tuple": (pts, [tuple(r) for r in pts.tolist()]), "float64": (pts, list(pts)),
            "float32": (single, list(single)), "int": (finite, list(finite))}


def frame_matrix(idx):
    """A radial index's frame matrix L, lower triangular, rebuilt from
    L_floats, its lower triangle column by column."""
    return lower_matrix(idx.L_floats, len(idx.x_t))


def lower_matrix(columns, dim):
    """The lower triangular dim x dim matrix whose lower triangle, column by
    column, is columns: the layout of L_floats."""
    L = np.zeros((dim, dim))
    L.T[np.triu_indices(dim)] = columns
    return L


def covariance_frame_reference(v):
    """buckets.covariance_frame written out in Python floats: the reversed
    Cholesky factor U of C = v^T v / len(v) row by row from the last, then
    U^-1 by back substitution; (L_floats, U as a list of rows), or NaNs
    when a pivot is not positive."""
    c = (v.T @ v / len(v)).tolist()
    n = len(c)
    u = [[0.0] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(i, -1, -1):
            s = c[j][i] - sum(u[j][k] * u[i][k] for k in range(i + 1, n))
            if j < i:
                u[j][i] = s / u[i][i]
            elif s > 0.0:
                u[i][i] = math.sqrt(s)
            else:
                return (math.nan,) * (n * (n + 1) // 2), [[math.nan] * n] * n
    x = [[0.0] * n for _ in range(n)]
    for i in reversed(range(n)):
        x[i][i] = 1.0 / u[i][i]
        for j in range(i + 1, n):
            x[i][j] = -sum(u[i][k] * x[k][j] for k in range(i + 1, j + 1)) / u[i][i]
    return tuple(x[k][j] for k in range(n) for j in range(k, n)), u


def frame_radius2(idx, points):
    """r^2 = |L^T (q - x_t)|^2 in a radial index's frame, as one matrix
    product and a row sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = (np.asarray(points, dtype=float) - idx.x_t) @ frame_matrix(idx)
        return (y * y).sum(axis=1)


def radius2_reference(idx, pts):
    """RadialIndex.radius2 as it was written for 2D and 3D apart, each
    unrolled over the entries of L_floats."""
    if len(idx.x_t_floats) == 2:
        (tx, ty), (a, b, c) = idx.x_t_floats, idx.L_floats
        u = pts[:, 0] - tx
        w = pts[:, 1] - ty
        u *= a
        u += w * b
        w *= c
        u *= u
    else:
        (tx, ty, tz), (a, b, c, e, f, g) = idx.x_t_floats, idx.L_floats
        u = pts[:, 0] - tx
        v = pts[:, 1] - ty
        w = pts[:, 2] - tz
        u *= a
        u += v * b
        u += w * c
        v *= e
        v += w * f
        w *= g
        u *= u
        v *= v
        u += v
    w *= w
    u += w
    return u


def reaches_planes(idx, points):
    """Mask of the points a direction-bucket locator must evaluate planes
    for: inside the bounding box grown by eps_q and in the annulus
    inner2 < r^2 <= outer2 of the index's frame."""
    pts = np.asarray(points, dtype=float)
    shape = idx.poly
    pad = shape.tol.eps_q
    inbox = ((pts >= shape.aabb.lo - pad) & (pts <= shape.aabb.hi + pad)).all(axis=1)
    r2 = frame_radius2(idx, pts)
    return inbox & (r2 > idx.inner2) & (r2 <= idx.outer2)


def annulus_point(idx, vertex):
    """The point of the ray from x_t to a vertex of the shape whose r lies
    midway between the index's inner bound and the vertex's r: strictly
    inside the shape, and in the annulus."""
    t = 0.5 * (math.sqrt(idx.inner2 / frame_radius2(idx, [vertex])[0]) + 1.0)
    return idx.x_t + t * (np.asarray(vertex, dtype=float) - idx.x_t)


def frame_points(idx, r, n, seed, towards):
    """Points at r in the frame of a radial index: n in random directions,
    then one per plane where the ellipse of that r comes nearest to it
    (towards="planes") or one on the ray to each vertex (towards="vertices")."""
    shape = idx.poly
    L = frame_matrix(idx)
    inverse = np.linalg.inv(L)
    extra = (-(shape.planes[:, :shape.dim] @ inverse.T) if towards == "planes"
             else (shape.vertices - idx.x_t) @ L)
    u = np.concatenate([np.random.default_rng(seed).normal(size=(n, shape.dim)), extra])
    u /= np.linalg.norm(u, axis=1)[:, None]
    return idx.x_t + (r * u) @ inverse


def least_plane(shape, points, chunk=128):
    """Least plane_eval over all of the shape's planes at each point, a
    chunk of points at a time."""
    return np.concatenate([plane_eval(shape.planes, points[k:k + chunk]).min(axis=1)
                           for k in range(0, len(points), chunk)])


@functools.cache
def frame_shapes():
    """Named shapes for the frame of the radial indexes, name -> validated
    shape: the polar-batch 16384-gon, angular shapes, 100:1 4096-gons plain
    and rotated, affine icospheres and a level-4 icosphere flattened to
    z x 0.01, then each of them moved by 1e3 along every axis."""
    v4, f4 = icosphere(4)
    shapes = {
        "polar-batch": gen_convex_polygon(GenSpec2(16384, 1, jitter=0.9,
                                                   semi_axes=(1.5, 1.0))),
        "triangle": validate_polygon([(0, 0), (1, 0), (0.5, 1)]),
        "square": validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
        "GenSpec2(8,3)": gen_convex_polygon(GenSpec2(8, 3)),
        "100to1": gen_convex_polygon(GenSpec2(4096, 1, semi_axes=(100.0, 1.0))),
        "100to1-rotated": gen_convex_polygon(GenSpec2(4096, 1, semi_axes=(100.0, 1.0),
                                                      rotation=0.3)),
        "GenSpec3(0,1)": gen_convex_polyhedron(GenSpec3(0, 1)),
        "GenSpec3(4,1)": gen_convex_polyhedron(GenSpec3(4, 1)),
        "icosphere4-flat": validate_polyhedron(v4 * (1.0, 1.0, 0.01), f4),
    }
    return shapes | {f"{name}-at-1e3": moved(shape, 1e3) for name, shape in shapes.items()}


def sliver_shapes():
    """Named slivers, whose vertex mean lies less than 2*eps_q inside a
    plane: a triangle of height 4.5e-9 and a tetrahedron of height 1e-8."""
    return {"sliver-triangle": validate_polygon([(0, 0), (1, 0), (0.5, 4.5e-9)]),
            "sliver-tetrahedron": validate_polyhedron(
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 1e-8)],
                [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])}


def moved(shape, offset):
    """The shape translated by offset along every axis, validated again."""
    if shape.dim == 2:
        return validate_polygon(shape.vertices + offset)
    return validate_polyhedron(shape.vertices + offset, shape.faces)


def bucketed_min_reference(planes, table, bucket_ids, q):
    """buckets.bucketed_min by whole rows: gather every listed plane of each
    point's bucket, evaluate them all, take the row minimum."""
    hc = planes[table.padded_edges[bucket_ids]]
    dim = q.shape[1]
    vals = hc[..., 0] * q[:, None, 0]
    for k in range(1, dim):
        vals += hc[..., k] * q[:, None, k]
    vals += hc[..., dim]
    return vals.min(axis=1)


def boundary_param_batch_reference(box, x_t, points):
    """polar.boundary_param_batch with a nested np.where per axis."""
    x_t = np.asarray(x_t, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, 0] - x_t[0]
    dy = pts[:, 1] - x_t[1]
    lox, loy = float(box.lo[0]), float(box.lo[1])
    hix, hiy = float(box.hi[0]), float(box.hi[1])
    w = hix - lox
    h = hiy - loy
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(dx > 0.0, (hix - x_t[0]) / dx,
                      np.where(dx < 0.0, (lox - x_t[0]) / dx, np.inf))
        ty = np.where(dy > 0.0, (hiy - x_t[1]) / dy,
                      np.where(dy < 0.0, (loy - x_t[1]) / dy, np.inf))
        vertical = tx <= ty
        ey = np.clip(x_t[1] + tx * dy, loy, hiy)
        ex = np.clip(x_t[0] + ty * dx, lox, hix)
    u = np.where(vertical,
                 np.where(dx > 0.0, ey - loy, h + w + (hiy - ey)),
                 np.where(dy > 0.0, h + (hix - ex), 2.0 * h + w + (ex - lox)))
    total = 2.0 * (w + h)
    return np.where(u >= total, u - total, u)


def slab_of_reference(u, n_slabs, perimeter):
    """polar's slab map as floor and %: the slab of each u in [0, perimeter)."""
    i = np.floor(np.asarray(u, dtype=float) * (n_slabs / perimeter))
    return i.astype(np.int64) % n_slabs


def classify_min_reference(m, eps_q):
    """core.classify_min of an array, one nested np.where per element."""
    return np.where(m > eps_q, np.int8(Containment.INSIDE),
                    np.where(m >= -eps_q, np.int8(Containment.ON_BOUNDARY),
                             np.int8(Containment.OUTSIDE))).astype(np.int8, copy=False)


def near_reference(points, center, r):
    """baselines.near summed in a loop over the columns, squared by **."""
    dist2 = (points[:, 0] - center[0]) ** 2
    for k in range(1, points.shape[1]):
        dist2 += (points[:, k] - center[k]) ** 2
    return dist2 <= r ** 2


def locate_radial_batch_reference(idx, points):
    """buckets.locate_radial_batch with boolean row compression,
    bucketed_min_reference and classify_min_reference."""
    shape = idx.poly
    eps_q = shape.tol.eps_q
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.int8(Containment.OUTSIDE))
    inbox = shape.aabb.contains(pts, pad=eps_q)
    sub = pts[inbox]
    far = ~near_reference(sub, idx.x_t, shape.tol.eps_len)
    codes = np.full(len(sub), np.int8(Containment.INSIDE))
    q = sub[far]
    codes[far] = classify_min_reference(
        bucketed_min_reference(shape.planes, idx, idx.bucket_of(q), q), eps_q)
    out[inbox] = codes
    return out


def line_read_rows(path, width=None):
    """io's coordinate-row reader done line by line with float(), as every
    file was read before the bulk np.loadtxt pass."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if width is None:
                width = len(parts)
                if width not in (2, 3):
                    raise ParseError(f"{path}:{lineno}: expected 2 or 3 columns, "
                                     f"got {len(parts)}")
            if len(parts) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns, "
                                 f"got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {' '.join(parts)}") from None
            if not all(map(math.isfinite, row)):
                raise ParseError(f"{path}:{lineno}: non-finite coordinate")
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no coordinate rows found")
    return np.asarray(rows, dtype=float)
