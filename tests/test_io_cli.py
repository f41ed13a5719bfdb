"""File formats and the command line interface."""

import numpy as np
import pytest

from convexloc import (GenSpec2, GenSpec3, ParseError, gen_convex_polygon,
                       gen_convex_polyhedron, load_shape, parse_obj_file,
                       parse_points_file, parse_polygon_file, write_obj_file,
                       write_points_file, write_polygon_file)
from convexloc.bench import CSV_HEADER, METHODS_2D, METHODS_3D
from convexloc.cli import main


def test_polygon_file_round_trip(tmp_path):
    poly = gen_convex_polygon(GenSpec2(17, 3, semi_axes=(1.31, 0.77),
                                       rotation=0.4))
    path = tmp_path / "poly.txt"
    write_polygon_file(path, poly)
    back = parse_polygon_file(path)
    np.testing.assert_array_equal(back.vertices, poly.vertices)


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
])
def test_cli_error_exit_codes(argv, capsys, tmp_path):
    assert main(argv) == 2
    capsys.readouterr()


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


def test_cli_verify_small_corpus(capsys):
    rc = main(["verify", "--sizes", "8,16", "--levels", "0",
               "--shape-seeds", "1", "--points", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 mismatches" in out


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
