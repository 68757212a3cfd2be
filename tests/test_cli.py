"""CLI behaviour: frozen outputs, exit codes, schedule handling."""

import hashlib
import math
import random

import pytest

from ripscollapse import persistence
from ripscollapse.cli import EXIT_CAP, EXIT_DATA, EXIT_OK, EXIT_USAGE, main

TABLE_COMPLEX = "1 2\n1 4\n0 1 3\n3 4\n4 5\n"

UNIT_SQUARE_POINTS = "0 0\n1 0\n1 1\n0 1\n"

SQUARE_PD = "0 0.5 1.0\n0 0.5 1.0\n0 0.5 1.0\n0 0.5 inf\n1 1.0 1.5\n"

SQUARE_TOWER = (
    "# tower 1\n"
    "i 0.5 0\ni 0.5 1\ni 0.5 2\ni 0.5 3\n"
    "i 1.0 0 1\ni 1.0 0 3\ni 1.0 1 2\ni 1.0 2 3\n"
    "c 1.5 1 0\nc 1.5 2 0\nc 1.5 3 0\n"
)

SQUARE_STATS = (
    "grade,v_before,m_before,d_before,v_after,m_after,d_after\n"
    "0.5,4,4,0,4,4,0\n"
    "1.0,4,4,1,4,4,1\n"
    "1.5,4,1,3,1,1,0\n"
)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(UNIT_SQUARE_POINTS)
    return str(path)


def test_core_command(tmp_path, capsys):
    src = tmp_path / "complex.txt"
    src.write_text(TABLE_COMPLEX)
    ret = tmp_path / "retraction.txt"
    trace = tmp_path / "trace.txt"
    rc = main(
        [
            "core",
            "--input",
            str(src),
            "--out-retraction",
            str(ret),
            "--out-trace",
            str(trace),
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "1 4\n1 3\n3 4\n"
    assert ret.read_text() == "0 1\n1 1\n2 1\n3 3\n4 4\n5 4\n"
    assert trace.read_text().splitlines()[0] == "r 0 1"


def test_core_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
    assert main(["core", "--input", "-"]) == EXIT_OK
    assert capsys.readouterr().out == "0\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n2 2\n"))
    assert main(["core", "--input", "-"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: line 2: duplicate vertex 2 in simplex\n"


def test_pipeline_writes_all_artifacts(tmp_path, square_file, capsys):
    pd = tmp_path / "pd.txt"
    tower = tmp_path / "tower.txt"
    stats = tmp_path / "stats.csv"
    rc = main(
        [
            "pipeline",
            "--input",
            square_file,
            "--start",
            "0.5",
            "--step",
            "0.5",
            "--end",
            "1.5",
            "--out-pd",
            str(pd),
            "--out-tower",
            str(tower),
            "--out-stats",
            str(stats),
        ]
    )
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert captured.out == ""
    assert captured.err.startswith("collapse-max ")
    assert pd.read_text() == SQUARE_PD
    assert tower.read_text() == SQUARE_TOWER
    assert stats.read_text() == SQUARE_STATS


def test_pipeline_diagram_defaults_to_stdout(square_file, capsys):
    rc = main(
        ["pipeline", "--input", square_file, "--start", "0.5", "--step", "0.5", "--end", "1.5"]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == SQUARE_PD


def test_pipeline_accepts_distance_matrix(tmp_path, capsys):
    dist = tmp_path / "dist.txt"
    s = "1.4142135623730951"
    dist.write_text(f"1.0\n{s} 1.0\n1.0 {s} 1.0\n")
    rc = main(
        [
            "pipeline",
            "--input",
            str(dist),
            "--format",
            "distmat",
            "--start",
            "0.5",
            "--step",
            "0.5",
            "--end",
            "1.5",
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == SQUARE_PD


def test_pipeline_grades_file(tmp_path, square_file, capsys):
    grades = tmp_path / "grades.txt"
    grades.write_text("# thresholds\n0.5 1.0\n1.5\n")
    rc = main(["pipeline", "--input", square_file, "--grades", str(grades)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == SQUARE_PD


def test_pipeline_no_collapse(square_file, tmp_path, capsys):
    tower = tmp_path / "tower.txt"
    rc = main(
        [
            "pipeline",
            "--input",
            square_file,
            "--no-collapse",
            "--start",
            "0.5",
            "--step",
            "0.5",
            "--end",
            "1.5",
            "--out-tower",
            str(tower),
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == SQUARE_PD
    lines = tower.read_text().splitlines()
    assert lines[0] == "# tower 1"
    assert len(lines) == 16 and all(l.startswith("i ") for l in lines[1:])


def test_workers_do_not_change_output_bytes(tmp_path, square_file):
    outputs = []
    for workers in ("1", "2", "8"):
        pd = tmp_path / f"pd{workers}.txt"
        tower = tmp_path / f"tower{workers}.txt"
        stats = tmp_path / f"stats{workers}.csv"
        rc = main(
            [
                "pipeline",
                "--input",
                square_file,
                "--start",
                "0.25",
                "--step",
                "0.25",
                "--end",
                "1.5",
                "--workers",
                workers,
                "--out-pd",
                str(pd),
                "--out-tower",
                str(tower),
                "--out-stats",
                str(stats),
            ]
        )
        assert rc == EXIT_OK
        outputs.append((pd.read_bytes(), tower.read_bytes(), stats.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_compare_command(square_file, capsys):
    rc = main(
        ["compare", "--input", square_file, "--start", "0.5", "--step", "0.5", "--end", "1.5"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim 0: equal, bottleneck 0.0"
    assert out[1] == "dim 1: equal, bottleneck 0.0"
    assert out[2] == "equal in dims 0,1"


def test_usage_errors_exit_1(square_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", square_file])
    assert exc.value.code == EXIT_USAGE
    grades = tmp_path / "grades.txt"
    grades.write_text("0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "pipeline",
                "--input",
                square_file,
                "--grades",
                str(grades),
                "--start",
                "0.5",
            ]
        )
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "pipeline",
                "--input",
                square_file,
                "--start",
                "0.5",
                "--step",
                "0.5",
                "--end",
                "1.5",
                "--workers",
                "0",
            ]
        )
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    for command in ("pipeline", "compare"):
        for cap in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(
                    [command, "--input", square_file, "--start", "0.5", "--step", "0.5"]
                    + ["--end", "1.5", "--cap", cap]
                )
            assert exc.value.code == EXIT_USAGE
            assert "--cap must be at least 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, square_file, capsys):
    rc = main(
        [
            "pipeline",
            "--input",
            str(tmp_path / "missing.txt"),
            "--start",
            "0.5",
            "--step",
            "0.5",
            "--end",
            "1.5",
        ]
    )
    assert rc == EXIT_DATA
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 oops\n")
    rc = main(
        ["pipeline", "--input", str(bad), "--start", "0.5", "--step", "0.5", "--end", "1.5"]
    )
    assert rc == EXIT_DATA
    empty_grades = tmp_path / "none.txt"
    empty_grades.write_text("# nothing\n")
    rc = main(["pipeline", "--input", square_file, "--grades", str(empty_grades)])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_grade_exit_2(tmp_path, square_file, capsys, bad):
    grades = tmp_path / "grades.txt"
    grades.write_text(f"0.5\n{bad}\n")
    rc = main(["pipeline", "--input", square_file, "--grades", str(grades)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "finite" in err
    assert "line 2" in err
    assert "Traceback" not in err


def test_grade_count_overflow_exit_2(square_file, capsys):
    # a count that overflows, and a finite one over the 10**6 limit
    for step, end in (("5e-324", "1e300"), ("1e-12", "1")):
        rc = main(
            ["pipeline", "--input", square_file, "--start", "0", "--step", step, "--end", end]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "too many grades" in err
        assert "Traceback" not in err


def test_repeated_schedule_grade_exit_2(square_file, capsys):
    # the schedule's first two grades are both 1e16; every command rejects
    # it before building a graph, the uncollapsed path included
    sched = ["--start", "1e16", "--step", "1", "--end", "10000000000000004"]
    for command in (["pipeline"], ["pipeline", "--no-collapse"], ["compare"]):
        rc = main([*command, "--input", square_file, *sched])
        assert rc == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: snapshot grades must be strictly increasing\n"


def test_cap_exit_3(tmp_path, capsys):
    line = tmp_path / "line.txt"
    line.write_text("".join(f"{i} 0\n" for i in range(12)))
    rc = main(
        [
            "pipeline",
            "--input",
            str(line),
            "--no-collapse",
            "--start",
            "20",
            "--step",
            "1",
            "--end",
            "20",
            "--cap",
            "1000",
        ]
    )
    assert rc == EXIT_CAP
    assert "raise --cap" in capsys.readouterr().err


def test_reduction_memory_guard_exit_3(square_file, monkeypatch, capsys):
    monkeypatch.setattr(persistence, "_MAX_BLOCK_BYTES", 0)
    rc = main(
        ["pipeline", "--input", square_file, "--start", "0.5", "--step", "0.5", "--end", "1.5"]
    )
    assert rc == EXIT_CAP
    err = capsys.readouterr().err
    assert "memory guard" in err
    assert "Traceback" not in err


# sha256 of the artifacts at commit 3421828, before the tower kept only its
# contractions: a tower, diagram or stats change must be argued and logged
CIRCLE_DIGESTS = {
    ("pipeline", "pd"): "2e1fe518b3e503656444637e47f4b5528fe5bcabec4365aa2eb3175b9f875085",
    ("pipeline", "tower"): "ef8551a4d4b197864f4710c96bc96a38c95f24ffa319633f8125e5ad732cbd8d",
    ("pipeline", "stats"): "eb23add47d3fcdb344254840bfe7f2c5c29376114959a56b6391ea1973bf5942",
    ("no-collapse", "pd"): "2e1fe518b3e503656444637e47f4b5528fe5bcabec4365aa2eb3175b9f875085",
    ("no-collapse", "tower"): "f44a0ef16665618112590e2fe3f82a9b2c3a53bb3473b76cd5ec294ddcda231a",
    ("no-collapse", "stats"): "8d9ad5384b297f451f51373881345a07b47b3bb244b2339be2dda5f7623ff380",
    ("compare", "stdout"): "2121454a5b50238748c57ae02233d9afc1e76cc379c77afcf8b99f92a8624601",
}


def test_artifacts_are_byte_identical(tmp_path, capsys):
    # 60 points on a noisy unit circle, written to 9 decimals so that the
    # input bytes do not depend on the platform's sin and cos
    rng = random.Random(16)
    lines = []
    for _ in range(60):
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = 1.0 + rng.uniform(-0.05, 0.05)
        lines.append(f"{r * math.cos(a):.9f} {r * math.sin(a):.9f}\n")
    cloud = tmp_path / "circle.txt"
    cloud.write_text("".join(lines))
    base = ["--input", str(cloud), "--start", "0.1", "--step", "0.05", "--end", "0.6"]

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    got = {}
    for mode, extra in (("pipeline", []), ("no-collapse", ["--no-collapse"])):
        paths = {kind: tmp_path / f"{mode}.{kind}" for kind in ("pd", "tower", "stats")}
        rc = main(
            ["pipeline", *base, *extra]
            + ["--out-pd", str(paths["pd"]), "--out-tower", str(paths["tower"])]
            + ["--out-stats", str(paths["stats"])]
        )
        assert rc == EXIT_OK
        for kind, path in paths.items():
            got[mode, kind] = digest(path.read_bytes())
    capsys.readouterr()
    assert main(["compare", *base]) == EXIT_OK
    got["compare", "stdout"] = digest(capsys.readouterr().out.encode())
    assert got == CIRCLE_DIGESTS
