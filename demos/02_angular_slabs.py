"""A look inside the polar slab index.

Every direction from the interior reference point x_t maps to a parameter u
on the inflated bounding box boundary (counter-clockwise arc length from the
corner (x_max, y_min)).  Cutting [0, U) into equal slabs and listing each
edge in every slab its angular interval touches gives an index whose slab
lists stay tiny: a query evaluates only its own slab's edges.
"""

import numpy as np

from convexloc import (GenSpec2, boundary_param, build_polar_index,
                       gen_convex_polygon)


def first_exit_edge(halfplanes, x_t, d):
    """Brute force: smallest positive ray parameter over all edge lines."""
    f0 = halfplanes[:, :2] @ x_t + halfplanes[:, 2]
    denom = halfplanes[:, :2] @ d
    with np.errstate(divide="ignore"):
        t = np.where(denom < -1e-15, f0 / -denom, np.inf)
    return int(np.argmin(t))


def main():
    poly = gen_convex_polygon(GenSpec2(n=12, seed=3))
    idx = build_polar_index(poly, n_slabs=24)

    print(f"box perimeter U = {idx.perimeter:.4f}, {idx.n_slabs} slabs, "
          f"x_t = ({idx.x_t[0]:.4f}, {idx.x_t[1]:.4f})\n")

    print("vertex -> boundary parameter u (must be strictly increasing mod U):")
    for j, v in enumerate(poly.vertices):
        u = boundary_param(idx.box, idx.x_t, v)
        print(f"  v{j:<2} u = {u:7.4f}  slab {int(idx.slab_of(u))}")

    print("\nslab occupancy:")
    for i in range(idx.n_slabs):
        edges = idx.bucket(i)
        print(f"  slab {i:2}: edges {[int(e) for e in edges]}")
    print(f"\nmax occupancy {idx.max_occupancy}, mean {idx.mean_occupancy:.2f}")

    # Superset property: shoot rays in many directions; the edge each ray
    # exits through is always in the list of the slab the ray maps to.
    th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    bad = 0
    for d in dirs:
        e = first_exit_edge(poly.halfplanes, idx.x_t, d)
        u = boundary_param(idx.box, idx.x_t, idx.x_t + d)
        if e not in idx.bucket(int(idx.slab_of(u))):
            bad += 1
    print(f"\n720-direction sweep: {bad} exit edges missing from their slab "
          f"(expected 0)")


if __name__ == "__main__":
    main()
