"""Text formats: hand-written fixtures, error positions and exact writer output."""

import math

import numpy as np
import pytest

from ripscollapse.errors import FormatError
from ripscollapse.io_formats import (
    parse_complex,
    parse_distmat,
    parse_grades,
    parse_points,
    write_complex,
    write_diagram,
    write_tower,
)
from ripscollapse.persistence import PersistenceDiagram
from ripscollapse.tower import Contract, Include


def test_parse_points_basic():
    X = parse_points("# corners\n0 0\n1.5 0\n\n0 2.25\n")
    assert X.tolist() == [[0.0, 0.0], [1.5, 0.0], [0.0, 2.25]]


def test_parse_points_errors():
    with pytest.raises(FormatError):
        parse_points("")
    with pytest.raises(FormatError):
        parse_points("# only a comment\n")
    with pytest.raises(FormatError) as exc:
        parse_points("0 0\n1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_points("0 zero\n")
    with pytest.raises(FormatError):
        parse_points("0 nan\n")
    with pytest.raises(FormatError):
        parse_points("0 inf\n")


def test_parse_grades_reports_the_line():
    assert parse_grades("# thresholds\n0.5 1.0\n\n1.5\n") == [0.5, 1.0, 1.5]
    assert parse_grades("# none\n") == []
    for text, message in (
        ("0.5\nabc\n", "line 2: expected a number, got 'abc'"),
        ("0.5\n1 nan\n", "line 2: expected a finite number, got 'nan'"),
        ("# c\n-inf 0.5\n", "line 2: expected a finite number, got '-inf'"),
    ):
        with pytest.raises(FormatError) as exc:
            parse_grades(text)
        assert str(exc.value) == message
        assert exc.value.line == 2


def test_points_round_trip():
    X = parse_points("0.1 -2.5e-07 3.0\n1e+300 0.30000000000000004 -4\n")
    assert np.array_equal(X, [[0.1, -2.5e-07, 3.0], [1e300, 0.1 + 0.2, -4.0]])


EQUILATERAL = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def test_parse_distmat_lower_triangle():
    got = parse_distmat("\n1.0\n1.0 1.0\n")
    assert np.array_equal(got, EQUILATERAL)


def test_parse_distmat_row_zero_may_be_omitted():
    assert np.array_equal(parse_distmat("1.0\n1.0 1.0\n"), EQUILATERAL)


def test_parse_distmat_count_header():
    assert np.array_equal(parse_distmat("3\n\n1.0\n1.0 1.0\n"), EQUILATERAL)
    assert np.array_equal(parse_distmat("3\n1.0\n1.0 1.0\n"), EQUILATERAL)
    with pytest.raises(FormatError):
        parse_distmat("3\n1.0\n")


def test_parse_distmat_single_point():
    assert np.array_equal(parse_distmat("1\n"), np.zeros((1, 1)))


@pytest.mark.parametrize(
    "text, lower",
    [
        ("1\n2 3\n", [1, 2, 3]),
        ("2\n", [2]),
        ("4\n5 6\n7 8 9\n", [4, 5, 6, 7, 8, 9]),
    ],
    ids=["three-points", "two-points", "four-points"],
)
def test_parse_distmat_integer_first_row_is_not_a_header(text, lower):
    # a lone integer first line is a point count only when the rows after it
    # have the lengths that count implies; otherwise it is row 1
    got = parse_distmat(text)
    n = got.shape[0]
    assert [got[i, j] for i in range(n) for j in range(i)] == lower
    assert np.array_equal(got, got.T)


def test_parse_distmat_errors():
    with pytest.raises(FormatError):
        parse_distmat("")
    with pytest.raises(FormatError) as exc:
        parse_distmat("\n1.0\n2.0\n")
    assert exc.value.line == 3
    with pytest.raises(FormatError):
        parse_distmat("\n-1.0\n")
    with pytest.raises(FormatError):
        parse_distmat("\ninf\n")
    with pytest.raises(FormatError):
        parse_distmat("\nabc\n")


def test_distmat_round_trip():
    D = parse_distmat("\n0.1\n1.4142135623730951 0.30000000000000004\n2.0 1e-300 5\n")
    a, b, c = 0.1, 2**0.5, 0.1 + 0.2
    assert np.array_equal(
        D,
        [[0.0, a, b, 2.0], [a, 0.0, c, 1e-300], [b, c, 0.0, 5.0], [2.0, 1e-300, 5.0, 0.0]],
    )


def test_complex_round_trip_drops_non_maximal():
    m = parse_complex("# two triangles sharing an edge\n2 1 0\n1 2\n1 2 3\n")
    assert m == {0: (0, 1, 2), 1: (1, 2, 3)}
    again = parse_complex(write_complex(m))
    assert again == m
    # a core keeps its input's column ids; they are written in id order
    assert write_complex({7: (2, 5), 3: (0, 1, 4)}) == "0 1 4\n2 5\n"
    with pytest.raises(FormatError):
        parse_complex("")
    with pytest.raises(FormatError):
        parse_complex("0 x\n")
    with pytest.raises(FormatError):
        parse_complex("0 0\n")


@pytest.mark.parametrize(
    ("text", "line", "message"),
    [
        ("0 1\n2 2\n", 2, "duplicate vertex 2 in simplex"),
        ("# a comment\n0 1\n\n3 -1\n", 4, "vertex ids must be non-negative, got -1"),
    ],
    ids=["duplicate-vertex", "negative-vertex"],
)
def test_parse_complex_names_the_line_of_a_bad_simplex(text, line, message):
    with pytest.raises(FormatError) as exc:
        parse_complex(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_tower_round_trip():
    tower = (
        Include((0,), 0.1),
        Include((3,), 0.1),
        Include((0, 3, 7), 0.1 + 0.2),
        Contract(7, 0, 1.5),
    )
    assert write_tower(tower) == (
        "# tower 1\n"
        "i 0.1 0\n"
        "i 0.1 3\n"
        "i 0.30000000000000004 0 3 7\n"
        "c 1.5 7 0\n"
    )


def test_diagram_round_trip_with_essential_classes():
    diagram = PersistenceDiagram.from_pairs(
        [(1, 1.0, 1.5), (0, 0.5, math.inf), (0, 0.1, 0.1 + 0.2)]
    )
    assert write_diagram(diagram) == "0 0.1 0.30000000000000004\n0 0.5 inf\n1 1.0 1.5\n"
