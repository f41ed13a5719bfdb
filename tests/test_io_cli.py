"""File formats and the command line interface."""

import gzip
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexloc import (Containment, GenSpec2, GenSpec3, ParseError, gen_convex_polygon,
                       gen_convex_polyhedron, load_shape, parse_obj_file,
                       parse_points_file, parse_polygon_file, validate_polygon,
                       write_obj_file, write_points_file, write_polygon_file)
from convexloc import baselines, polar
from convexloc.bench import CSV_HEADER, METHODS_2D, METHODS_3D, BenchRecord, make_locator
from convexloc import cli
from convexloc.cli import main

from oracles import crowded_ngon, line_read_rows

ROOT = Path(__file__).resolve().parent.parent


def test_polygon_file_round_trip(tmp_path):
    poly = gen_convex_polygon(GenSpec2(17, 3, semi_axes=(1.31, 0.77),
                                       rotation=0.4))
    path = tmp_path / "poly.txt"
    write_polygon_file(path, poly)
    back = parse_polygon_file(path)
    np.testing.assert_array_equal(back.vertices, poly.vertices)


def test_polygon_file_text(tmp_path):
    """A header line, then one '%.17g' row per vertex, counter-clockwise."""
    path = tmp_path / "poly.txt"
    write_polygon_file(path, validate_polygon([(-2.5e-7, 0), (1.0 / 3.0, 1), (1, 0.1)]))
    assert path.read_bytes() == (b"# convex polygon, 3 vertices, one 'x y' row per line\n"
                                 b"1 0.10000000000000001\n"
                                 b"0.33333333333333331 1\n"
                                 b"-2.4999999999999999e-07 0\n")


def test_polygon_file_comments_and_blanks(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("# header\n\n 0 0  # origin\n1 0\n\n0.5 1\n")
    poly = parse_polygon_file(path)
    assert poly.n == 3


@pytest.mark.parametrize("body,fragment", [
    ("0 0\n1 0 3\n0 1\n", ":2:"),
    ("0 0\n1 zebra\n0 1\n", ":2:"),
    ("0 0\n1 inf\n0 1\n", ":2:"),
    ("# nothing here\n", "no coordinate rows"),
])
def test_polygon_file_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match=fragment):
        parse_polygon_file(path)


def test_points_file_round_trip(tmp_path):
    pts = np.random.default_rng(0).normal(size=(40, 3))
    path = tmp_path / "pts.txt"
    write_points_file(path, pts)
    np.testing.assert_array_equal(parse_points_file(path), pts)


def test_obj_round_trip(tmp_path):
    poly = gen_convex_polyhedron(GenSpec3(1, 9))
    path = tmp_path / "shape.obj"
    write_obj_file(path, poly)
    back = parse_obj_file(path)
    np.testing.assert_array_equal(back.vertices, poly.vertices)
    assert back.faces == poly.faces


def test_obj_accepts_slash_refs_and_ignored_directives(tmp_path):
    path = tmp_path / "tet.obj"
    path.write_text(
        "o tet\nusemtl none\ns off\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "vn 0 0 1\nvt 0 0\n"
        "f 1/1/1 3/2/1 2/3/1\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
    tet = parse_obj_file(path)
    assert tet.n_faces == 4


@pytest.mark.parametrize("body,fragment", [
    ("v 0 0\nf 1 2 3\n", "exactly 3"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 0 1 2\n", "1-based"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf -1 2 3\n", "1-based"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\nf 1 2 3\nf 2 3 1\nf 3 1 2\n",
     "references vertex 9"),
    ("v 0 0 0\nf 1 2\n", "at least 3"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 x 3\n", "bad vertex index 'x'"),
    ("# no vertices\nf 1 2 3\n", "no vertices found"),
    ("warp 1 2\n", "unsupported directive"),
])
def test_obj_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(ParseError, match=fragment):
        parse_obj_file(path)


def test_load_shape_dispatches_on_extension(tmp_path):
    poly2 = gen_convex_polygon(GenSpec2(8, 1))
    poly3 = gen_convex_polyhedron(GenSpec3(0, 1))
    p2, p3 = tmp_path / "s.txt", tmp_path / "s.obj"
    write_polygon_file(p2, poly2)
    write_obj_file(p3, poly3)
    assert load_shape(p2).vertices.shape[1] == 2
    assert load_shape(p3).vertices.shape[1] == 3


# Tokens float() and np.loadtxt read differently, or that neither reads.
ODD_TOKENS = ["1_000", "\u0661.\u0665", "nan", "-inf", "1e400", "1e-400", "+.5", "5.",
              "-0", "0x10", "zebra", "1,5"]
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10 ** 6, 10 ** 6).map(str), st.sampled_from(ODD_TOKENS))


@st.composite
def coordinate_text(draw):
    """A coordinate file: rows mostly of one width, with odd tokens,
    non-breaking spaces, trailing comments, comment-only and blank lines."""
    width = draw(st.integers(1, 4))
    sep = st.sampled_from([" ", "\t", "\u00a0", "  "])
    lines = []
    for kind in draw(st.lists(st.sampled_from("rrrrrc b"), max_size=8)):
        if kind == "r":
            n = draw(st.one_of(st.just(width), st.integers(1, 4)))
            parts = draw(st.lists(NUMBERS, min_size=n, max_size=n))
            lines.append(draw(sep).join(parts) + draw(st.sampled_from(["", " # note"])))
        elif kind == "c":
            lines.append("# only a comment")
        else:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _outcome(read, path):
    """(shape, dtype, bytes) of what read(path) returns, or its error."""
    try:
        rows = read(path)
    except ValueError as err:
        return type(err).__name__, str(err)
    rows = getattr(rows, "vertices", rows)
    return rows.shape, rows.dtype.str, rows.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=coordinate_text())
@example(text="1_000 2\n3 4\n")
@example(text="\u0661.\u0665 2\n")
@example(text="1\u00a02\n3\u00a04 # note\n")
@example(text="nan 1\n")
@example(text="1e400 1\n")
@example(text="1 2\n3\n")
@example(text="# only a comment\n\n \n")
@example(text="")
def test_bulk_reader_matches_the_line_parser(tmp_path_factory, text):
    """The bulk np.loadtxt pass returns the line parser's array bit for
    bit, and a file it cannot take gets the line parser's ParseError."""
    path = tmp_path_factory.getbasetemp() / "rows.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(parse_points_file, path) == _outcome(line_read_rows, path)
    assert (_outcome(parse_polygon_file, path)
            == _outcome(lambda p: validate_polygon(line_read_rows(p, width=2)), path))


@pytest.mark.parametrize("read", [parse_points_file, parse_polygon_file])
def test_rows_are_read_from_the_named_file_only(tmp_path, read):
    """A missing file is the builtin open()'s FileNotFoundError even when a
    compressed sibling exists, and a .gz file is read as text, not
    decompressed."""
    missing = tmp_path / "pts.txt"
    with gzip.open(tmp_path / "pts.txt.gz", "wt") as fh:
        fh.write("0 0\n1 0\n0 1\n")
    with pytest.raises(FileNotFoundError) as err:
        read(missing)
    assert str(err.value) == f"[Errno 2] No such file or directory: {str(missing)!r}"
    with pytest.raises(UnicodeDecodeError):
        read(tmp_path / "pts.txt.gz")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text, expect", [
    ("0.5 0.25\n1 2\n", np.array([[0.5, 0.25], [1.0, 2.0]])),
    ("0.5 0.25\n1_000 2\n", np.array([[0.5, 0.25], [1000.0, 2.0]])),
    ("0.5 0.25\nzebra 2\n", ParseError),
])
def test_rows_are_read_from_a_pipe(tmp_path, text, expect):
    """A named pipe is read once: the per-line parser still runs on it
    without opening it a second time (which would wait for a writer that
    has gone)."""
    fifo = tmp_path / "pts.fifo"
    os.mkfifo(fifo)
    outcome = []

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    def read():
        try:
            outcome.append(parse_points_file(fifo))
        except ParseError as err:
            outcome.append(err)

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert len(outcome) == 1, "the reader did not finish"
    if expect is ParseError:
        assert isinstance(outcome[0], ParseError)
        assert str(outcome[0]).endswith("pts.fifo:2: not a number: zebra 2")
    else:
        assert np.array_equal(outcome[0], expect)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_gen_polygon_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "--polygon", "-n", "16", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["gen", "--polygon", "-n", "16", "--seed", "5",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert parse_polygon_file(out1).n == 16


def test_cli_gen_icosphere(tmp_path):
    out = tmp_path / "ico.obj"
    assert main(["gen", "--icosphere", "--level", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    assert parse_obj_file(out).n_faces == 80


def test_cli_locate_all_methods_agree(tmp_path, capsys):
    shape = tmp_path / "poly.txt"
    pts = tmp_path / "pts.txt"
    main(["gen", "--polygon", "-n", "32", "--seed", "3", "--out", str(shape)])
    poly = parse_polygon_file(shape)
    from convexloc import QuerySpec, gen_query_points
    write_points_file(pts, gen_query_points(poly.aabb, QuerySpec(50, 4)))
    outputs = []
    for method in ("linear", "wedge", "slabs-sorted", "slabs-uniform", "polar"):
        assert main(["locate", "--shape", str(shape), "--points", str(pts),
                     "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    lines = outputs[0].strip().splitlines()
    assert len(lines) == 50
    assert lines[0].split()[0] == "0"
    assert set(w for line in lines for w in line.split()[1:]) <= {
        "Inside", "OnBoundary", "Outside"}


def test_cli_locate_3d_and_out_file(tmp_path):
    shape = tmp_path / "ico.obj"
    pts = tmp_path / "pts.txt"
    out = tmp_path / "res.txt"
    main(["gen", "--icosphere", "--level", "0", "--seed", "1",
          "--out", str(shape)])
    poly = parse_obj_file(shape)
    from convexloc import QuerySpec, gen_query_points
    write_points_file(pts, gen_query_points(poly.aabb, QuerySpec(20, 2)))
    assert main(["locate", "--shape", str(shape), "--points", str(pts),
                 "--method", "cubemap", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 20


def test_cli_locate_center_is_inside(tmp_path, capsys):
    shape = tmp_path / "sq.txt"
    shape.write_text("0 0\n1 0\n1 1\n0 1\n")
    pts = tmp_path / "c.txt"
    pts.write_text("0.5 0.5\n")
    assert main(["locate", "--shape", str(shape), "--points", str(pts)]) == 0
    assert capsys.readouterr().out == "0 Inside\n"


@pytest.mark.parametrize("argv", [
    ["locate", "--shape", "/nonexistent", "--points", "/nonexistent"],
    ["locate", "--shape", "/nonexistent"],
    ["gen", "--polygon", "-n", "2", "--seed", "0", "--out", "/tmp/x.txt"],
    ["gen", "--polygon", "--axes", "2", "--out", "/tmp/x.txt"],
    ["gen", "--polygon", "--axes", "1,2,3", "--out", "/tmp/x.txt"],
    ["bench", "--dim", "2", "--sizes", "8", "--points", "0"],
    ["verify", "--dim", "2", "--sizes", "8", "--shape-seeds", "1", "--points", "0"],
    ["verify", "--dim", "2", "--shape-seeds", "0"],
    ["verify", "--dim", "3", "--levels", ","],
    ["frobnicate"],
    [],
    ["bench", "--dim", "2", "--sizes", "8", "--reps", "0"],
])
def test_cli_error_exit_codes(argv, capsys, tmp_path):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--dim", "2", "--sizes", "8,x"], "not a comma-separated int list: '8,x'"),
    (["gen", "--polygon", "--axes", "1,y", "--out", "p.txt"],
     "not a comma-separated float list: '1,y'"),
])
def test_cli_rejects_malformed_lists(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


class _EagerSubcommand(cli._Subcommand):
    """A subcommand parser that adds its arguments when it is made, as
    build_parser did for every subcommand before they were added lazily."""

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, arguments=None, **kwargs)
        arguments(self)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["frobnicate"], ["-x"], ["-", "locate"], ["--bogus", "gen"],
    ["gen", "--help"], ["locate", "--help"], ["verify", "--help"], ["bench", "--help"],
    ["locate", "-h", "--shape"], ["bench", "--dim", "2", "--help"],
    ["gen"], ["gen", "--polygon"], ["gen", "--polygon", "--icosphere", "--out", "x"],
    ["gen", "--polygon", "-n", "x", "--out", "y"], ["gen", "locate"],
    ["locate"], ["locate", "--shape", "a"], ["locate", "--shape", "a", "--points", "b", "-q"],
    ["verify", "--dim", "4"], ["verify", "--sizes", "a,b"], ["bench"], ["bench", "--dim", "5"],
])
def test_cli_help_and_usage_errors_match_the_eager_parser(argv, monkeypatch, capsys):
    """Every --help and usage error prints the bytes, and exits with the
    code, of the parser that adds all four subcommands' arguments up
    front."""
    monkeypatch.setenv("COLUMNS", "80")
    got = main(list(argv)), capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "_Subcommand", _EagerSubcommand)
        want = main(list(argv)), capsys.readouterr()
    assert got == want


def test_cli_adds_only_the_invoked_subcommands_arguments():
    """Parsing `locate` adds its four arguments to -h; the other
    subcommands keep -h alone."""
    parser = cli.build_parser()
    parser.parse_args(["locate", "--shape", "a", "--points", "b"])
    subparsers = parser._subparsers._group_actions[0].choices
    assert {name: len(sub._actions) for name, sub in subparsers.items()} == {
        "gen": 1, "locate": 5, "verify": 1, "bench": 1}


def test_make_locator_rejects_an_unknown_shape_type():
    with pytest.raises(ValueError, match="unsupported shape type ndarray"):
        make_locator(np.zeros((3, 2)), "linear")


@pytest.mark.parametrize("argv, what", [(["--dim", "2", "--sizes", ""], "shape"),
                                        (["--dim", "3", "--levels", ""], "shape"),
                                        (["--dim", "2", "--sizes", "8", "--methods", ""], "method"),
                                        (["--dim", "3", "--levels", "0", "--methods", ","],
                                         "method")])
def test_cli_bench_of_no_shape_exits_2(argv, what, capsys):
    """bench with no size, level or method writes no CSV and exits 2, as
    verify does."""
    assert main(["bench", *argv, "--points", "10", "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"convexloc: error: bench would time no {what}\n"


@pytest.mark.parametrize("argv, field", [(["--rotation", "inf"], "rotation"),
                                         (["--axes", "nan,1"], "semi_axes")])
def test_cli_gen_of_a_non_finite_spec_exits_2(argv, field, capsys, tmp_path):
    """A non-finite generator number is one error line naming its field,
    with no numpy warning before it."""
    out = tmp_path / "p.txt"
    assert main(["gen", "--polygon", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"convexloc: error: {field} must be")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_missing_file_error_text(tmp_path, capsys):
    missing = tmp_path / "shape.txt"
    (tmp_path / "shape.txt.gz").write_bytes(gzip.compress(b"0 0\n1 0\n0 1\n"))
    assert main(["locate", "--shape", str(missing), "--points", str(missing)]) == 2
    assert capsys.readouterr().err == ("convexloc: error: [Errno 2] No such file or "
                                       f"directory: {str(missing)!r}\n")


def test_cli_locate_dimension_mismatch(tmp_path, capsys):
    shape = tmp_path / "sq.txt"
    shape.write_text("0 0\n1 0\n1 1\n0 1\n")
    pts = tmp_path / "p3.txt"
    pts.write_text("0.5 0.5 0.5\n")
    assert main(["locate", "--shape", str(shape), "--points", str(pts)]) == 2
    assert "2D" in capsys.readouterr().err
    assert main(["locate", "--shape", str(shape), "--points", str(shape),
                 "--method", "cubemap"]) == 2
    capsys.readouterr()


def test_cli_prints_each_warning_as_one_line(tmp_path):
    """A slab count clamped to SLAB_CAP reaches stderr as one
    `convexloc: warning:` line, with no library path or source line, from
    locate with the uniform y-slabs and with the polar slabs; their exit
    codes and stdout are unchanged.  The shape is 65,536 pairs of vertices,
    each 1e-3 of an edge gap apart.  main prints the warnings of every
    subcommand through the same hook, and no shape that verify makes
    clamps."""
    shape, points = tmp_path / "poly.txt", tmp_path / "pts.txt"
    write_polygon_file(shape, crowded_ngon(65536, 1e-3, 1))
    points.write_text("0 0\n9 9\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {"slabs-uniform": "uniform slab count 1146311", "polar": "polar slab count 1112192"}
    for method, count in runs.items():
        argv = ("locate", "--shape", str(shape), "--points", str(points), "--method", method)
        run = subprocess.run([sys.executable, "-m", "convexloc.cli", *argv], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (0, "0 Inside\n1 Outside\n"), argv
        assert run.stderr == f"convexloc: warning: {count} clamped to 1048576\n", argv


def test_cli_verify_small_corpus(capsys):
    rc = main(["verify", "--sizes", "8,16", "--levels", "0",
               "--shape-seeds", "1", "--points", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 mismatches" in out


def test_bench_csv_bytes():
    """CSV_HEADER and csv_row derive from BenchRecord's fields; these
    literals catch a field that is reordered or renamed."""
    assert CSV_HEADER == "method,N,M,build_ns,mean_query_ns,p99_query_ns,max_occupancy,mismatches"
    assert BenchRecord("polar", 64, 2000, 1, 2, 3, 2, 0).csv_row() == "polar,64,2000,1,2,3,2,0"


def test_cli_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--dim", "2", "--methods", "linear,polar",
               "--sizes", "16,64", "--points", "2000", "--reps", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        method, n, m, build, mean, p99, occ, mism = line.split(",")
        assert method in ("linear", "polar")
        assert int(n) in (16, 64) and int(m) == 2000
        assert int(build) >= 0 and int(mean) > 0 and int(p99) > 0
        assert int(mism) == 0
    capsys.readouterr()


def test_cli_bench_stdout(capsys):
    rc = main(["bench", "--dim", "3", "--methods", "linear,cubemap",
               "--levels", "0", "--points", "1000", "--reps", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("argv", [["--dim", "2", "--sizes", "16"],
                                  ["--dim", "3", "--levels", "0"]])
def test_cli_bench_reports_occupancy_of_every_bucketed_method(argv, capsys):
    assert main(["bench", *argv, "--points", "500", "--reps", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    occupancy = {row[0]: int(row[6]) for row in rows}
    assert set(occupancy) == set(METHODS_2D if argv[1] == "2" else METHODS_3D)
    assert all(occ >= 1 for method, occ in occupancy.items() if method != "linear"), occupancy


def test_cli_bench_counts_a_wrong_method(monkeypatch, capsys):
    monkeypatch.setattr(polar, "locate_polar_batch",
                        lambda idx, pts: np.full(len(pts), Containment.INSIDE, dtype=np.int8))
    assert main(["bench", "--dim", "2", "--methods", "linear,polar", "--sizes", "16",
                 "--points", "500", "--reps", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    mismatches = {row[0]: int(row[7]) for row in rows}
    assert mismatches["linear"] == 0
    assert mismatches["polar"] > 0


def test_cli_verify_prints_a_wrong_method(monkeypatch, capsys):
    """verify reports a method that disagrees with the others, prints up to
    four examples, and exits 1."""
    monkeypatch.setattr(polar, "locate_polar_batch",
                        lambda idx, pts: np.full(len(pts), Containment.INSIDE, dtype=np.int8))
    assert main(["verify", "--dim", "2", "--sizes", "8", "--shape-seeds", "1",
                 "--points", "200"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "MISMATCHES" in lines[0]
    examples = lines[1:-1]
    assert 1 <= len(examples) <= 4
    for line in examples:
        assert re.fullmatch(r"  point \(.+\) distance \S+ codes \{.*'polar': 1\}", line), line
    assert lines[-1].startswith("verified 1 shapes, ") and not lines[-1].endswith(" 0 mismatches")


@pytest.mark.parametrize("argv, dim, shapes", [
    (["--dim", "2", "--methods", "wedge,polar", "--sizes", "16,64"], 2, 2),
    (["--dim", "3", "--methods", "cubemap", "--levels", "0"], 3, 1),
])
def test_cli_bench_scans_each_shape_once(argv, dim, shapes, monkeypatch, capsys):
    """Every method of a shape is checked against one linear scan."""
    n_points = 2000
    full_scans = []
    name = f"locate_linear_{dim}d_batch"
    locate_linear = getattr(baselines, name)

    def counting(idx, pts):
        full_scans.append(len(pts) == n_points)
        return locate_linear(idx, pts)
    monkeypatch.setattr(baselines, name, counting)
    assert main(["bench", *argv, "--points", str(n_points), "--reps", "1"]) == 0
    capsys.readouterr()
    assert sum(full_scans) == shapes
