"""Command line interface.

Subcommands:

- gen: write a generated polygon (text) or polyhedron (OBJ) to a file;
- locate: classify points from a file against a shape file;
- verify: cross-check all methods on a generated corpus, exit 1 on mismatch;
- bench: time builds and queries, emit CSV.

Exit codes: 0 success, 1 verification found mismatches, 2 usage, parse or
validation errors.  Errors and warnings (such as CapExceeded) go to stderr
as one `convexloc: error: ...` or `convexloc: warning: ...` line each.

Only the modules that every subcommand needs are imported with this one;
gen, verify and bench import the generators themselves, and make_locator
imports the one index module of its method.  So a `locate` loads neither
the generators nor the index modules that it does not run.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .bench import METHODS_2D, METHODS_3D, bench_one, make_locator, records_to_csv
from .core import Containment, ValidationError
from .io import (ParseError, load_shape, parse_points_file, write_obj_file,
                 write_polygon_file)

_CODE_NAMES = {int(Containment.OUTSIDE): "Outside",
               int(Containment.ON_BOUNDARY): "OnBoundary",
               int(Containment.INSIDE): "Inside"}


def _csv_ints(text: str):
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _csv_floats(text: str):
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    return vals


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, whose arguments are added by its arguments
    function when it first parses.  argparse parses a subcommand's
    arguments, --help and usage errors included, only when that subcommand
    is invoked, so a run adds the arguments of one subcommand, not four."""

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            self._arguments(self)
            self._arguments = None
        return super().parse_known_args(args, namespace)


def _gen_arguments(g: argparse.ArgumentParser) -> None:
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--polygon", action="store_true")
    kind.add_argument("--icosphere", action="store_true")
    g.add_argument("-n", type=int, default=8, help="polygon vertex count")
    g.add_argument("--level", type=int, default=1, help="icosphere subdivision level")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--axes", type=_csv_floats, default=[1.0, 1.0],
                   help="polygon semi-axes a,b")
    g.add_argument("--rotation", type=float, default=0.0)
    g.add_argument("--jitter", type=float, default=0.9)
    g.add_argument("--identity", action="store_true",
                   help="icosphere: skip the random affine map")
    g.add_argument("--out", required=True)


def _locate_arguments(lo: argparse.ArgumentParser) -> None:
    lo.add_argument("--shape", required=True,
                    help="shape file (.obj = polyhedron, otherwise polygon)")
    lo.add_argument("--points", required=True, help="text file of query points")
    lo.add_argument("--method", default=None,
                    help="|".join(sorted(set(METHODS_2D + METHODS_3D))))
    lo.add_argument("--out", default=None, help="write results here instead of stdout")


def _verify_arguments(ve: argparse.ArgumentParser) -> None:
    ve.add_argument("--dim", choices=["2", "3", "both"], default="both")
    ve.add_argument("--sizes", type=_csv_ints, default=[8, 64, 512],
                    help="2D polygon vertex counts")
    ve.add_argument("--levels", type=_csv_ints, default=[0, 1, 2],
                    help="3D icosphere levels")
    ve.add_argument("--shape-seeds", type=int, default=3,
                    help="shapes per size/level")
    ve.add_argument("--points", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=0)


def _bench_arguments(be: argparse.ArgumentParser) -> None:
    be.add_argument("--dim", choices=["2", "3"], required=True)
    be.add_argument("--methods", default=None,
                    help="comma-separated; default: all for the dimension")
    be.add_argument("--sizes", type=_csv_ints, default=[64, 1024, 16384])
    be.add_argument("--levels", type=_csv_ints, default=[0, 1, 2, 3])
    be.add_argument("--points", type=int, default=100000)
    be.add_argument("--reps", type=int, default=3)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    """The convexloc parser; each subcommand's arguments are added when it
    is invoked (_Subcommand)."""
    ap = argparse.ArgumentParser(prog="convexloc",
                                 description="constant-time convex point location")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_Subcommand)
    sub.add_parser("gen", help="generate a shape file", arguments=_gen_arguments)
    sub.add_parser("locate", help="classify points against a shape",
                   arguments=_locate_arguments)
    sub.add_parser("verify", help="cross-check methods on a generated corpus",
                   arguments=_verify_arguments)
    sub.add_parser("bench", help="time builds and queries, emit CSV", arguments=_bench_arguments)
    return ap


def _emit(text: str, out) -> None:
    """Write text to the file named out, or to stdout when out is None."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    import numpy as np

    from .generators import GenSpec2, GenSpec3, gen_convex_polygon, gen_convex_polyhedron

    if args.polygon:
        poly = gen_convex_polygon(GenSpec2(n=args.n, seed=args.seed,
                                           semi_axes=tuple(args.axes),
                                           rotation=args.rotation,
                                           jitter=args.jitter))
        write_polygon_file(args.out, poly)
    else:
        spec = GenSpec3(level=args.level, seed=args.seed,
                        matrix=np.eye(3) if args.identity else None)
        write_obj_file(args.out, gen_convex_polyhedron(spec))
    return 0


def cmd_locate(args) -> int:
    shape = load_shape(args.shape)
    pts = parse_points_file(args.points)
    method = args.method or ("polar" if shape.dim == 2 else "cubemap")
    codes = make_locator(shape, method)()[0](pts)
    lines = [f"{i} {_CODE_NAMES[c]}" for i, c in enumerate(codes.tolist())]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .generators import (CORPUS_AXES, GenSpec2, GenSpec3, QuerySpec, compare_methods,
                             gen_convex_polygon, gen_convex_polyhedron, gen_query_points)

    if args.points < 1:
        raise ValueError("verify needs at least one query point per shape")
    jobs = []   # (shape, label, methods)
    if args.dim in ("2", "both"):
        for n in args.sizes:
            for s in range(args.shape_seeds):
                k = len(jobs)
                spec = GenSpec2(n=n, seed=args.seed + 101 * k + s,
                                semi_axes=CORPUS_AXES[k % len(CORPUS_AXES)],
                                rotation=0.3 * k)
                jobs.append((gen_convex_polygon(spec), f"polygon n={n} seed={spec.seed}",
                             METHODS_2D))
    if args.dim in ("3", "both"):
        for level in args.levels:
            for s in range(args.shape_seeds):
                spec = GenSpec3(level=level, seed=args.seed + 977 * len(jobs) + s)
                jobs.append((gen_convex_polyhedron(spec),
                             f"polyhedron level={level} seed={spec.seed}", METHODS_3D))
    if not jobs:
        raise ValueError("verify would check no shape")

    total_mismatches = 0
    for k, (shape, label, methods) in enumerate(jobs):
        pts = gen_query_points(shape.aabb, QuerySpec(args.points, args.seed + k))
        rep = compare_methods(shape, pts, {m: make_locator(shape, m)()[0] for m in methods})
        total_mismatches += rep.n_mismatches
        status = "ok" if rep.n_mismatches == 0 else f"{rep.n_mismatches} MISMATCHES"
        print(f"{label}: {rep.n_points} points x {len(methods)} methods: {status}")
        for ex in rep.examples[:4]:
            print(f"  point {ex[1]} distance {ex[2]:.3e} codes {ex[3]}")
    print(f"verified {len(jobs)} shapes, {total_mismatches} mismatches")
    return 1 if total_mismatches else 0


def cmd_bench(args) -> int:
    from .generators import (GenSpec2, GenSpec3, QuerySpec, gen_convex_polygon,
                             gen_convex_polyhedron, gen_query_points)

    if not (args.sizes if args.dim == "2" else args.levels):
        raise ValueError("bench would time no shape")
    methods = ((METHODS_2D if args.dim == "2" else METHODS_3D) if args.methods is None
               else [m for m in args.methods.split(",") if m])
    if not methods:
        raise ValueError("bench would time no method")
    if args.dim == "2":
        shapes = (gen_convex_polygon(GenSpec2(n=n, seed=args.seed, jitter=0.0))
                  for n in args.sizes)
    else:
        shapes = (gen_convex_polyhedron(GenSpec3(level=level, seed=args.seed))
                  for level in args.levels)
    records = []
    for shape in shapes:
        pts = gen_query_points(shape.aabb, QuerySpec(args.points, args.seed + 1))
        reference = make_locator(shape, "linear")()[0](pts)
        records += [bench_one(shape, m, pts, reference, reps=args.reps) for m in methods]
    _emit(records_to_csv(records), args.out)
    if args.out:
        print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning without the library path and source line."""
    print(f"convexloc: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"gen": cmd_gen, "locate": cmd_locate, "verify": cmd_verify, "bench": cmd_bench}
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return commands[args.cmd](args)
        except (ParseError, ValidationError, ValueError, OSError) as exc:
            print(f"convexloc: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
