"""Text formats: hand-written fixtures, error positions, round trips."""

import math
import random

import numpy as np
import pytest

from ripscollapse.errors import FiltrationOrderError, FormatError
from ripscollapse.io_formats import (
    parse_complex,
    parse_diagram,
    parse_distmat,
    parse_filtration,
    parse_points,
    parse_tower,
    write_complex,
    write_diagram,
    write_distmat,
    write_filtration,
    write_points,
    write_tower,
)
from ripscollapse.persistence import PersistenceDiagram
from ripscollapse.rips import pairwise_distances
from ripscollapse.tower import Contract, Filtration, Include, Tower


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


def test_points_round_trip():
    rng = random.Random(11)
    X = np.array([[rng.uniform(-5, 5) for _ in range(3)] for _ in range(7)])
    assert np.array_equal(parse_points(write_points(X)), X)


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
    rng = random.Random(13)
    for n in (1, 2, 5, 9):
        pts = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        D = pairwise_distances(pts)
        assert np.array_equal(parse_distmat(write_distmat(D)), D)


def test_complex_round_trip_drops_non_maximal():
    m = parse_complex("# two triangles sharing an edge\n2 1 0\n1 2\n1 2 3\n")
    assert [s for _, s in m.columns_sorted()] == [(0, 1, 2), (1, 2, 3)]
    again = parse_complex(write_complex(m))
    assert again == m
    with pytest.raises(FormatError):
        parse_complex("")
    with pytest.raises(FormatError):
        parse_complex("0 x\n")
    with pytest.raises(FormatError):
        parse_complex("0 0\n")


def test_tower_round_trip():
    tower = Tower(
        (
            Include((0,), 0.5),
            Include((0, 1), 1.0),
            Contract(1, 0, 1.5),
        )
    )
    text = write_tower(tower)
    assert text.splitlines()[0] == "# tower 1"
    assert parse_tower(text) == tower


def test_parse_tower_accepts_comments_and_blanks():
    text = "\n# tower 1\n# built by hand\ni 0.0 3 1\n\nc 1.0 3 1\n"
    tower = parse_tower(text)
    assert tower.ops == (Include((1, 3), 0.0), Contract(3, 1, 1.0))


def test_parse_tower_errors():
    with pytest.raises(FormatError):
        parse_tower("")
    with pytest.raises(FormatError):
        parse_tower("i 0.0 1\n")
    with pytest.raises(FormatError):
        parse_tower("# tower 2\ni 0.0 1\n")
    with pytest.raises(FormatError):
        parse_tower("# tower 1\nx 0.0 1\n")
    with pytest.raises(FormatError):
        parse_tower("# tower 1\ni 0.0\n")
    with pytest.raises(FormatError):
        parse_tower("# tower 1\nc 0.0 1\n")


def test_diagram_round_trip_with_essential_classes():
    diagram = PersistenceDiagram.from_pairs(
        [(0, 0.5, 1.0), (0, 0.5, math.inf), (1, 1.0, 1.5)]
    )
    text = write_diagram(diagram)
    assert "0 0.5 inf\n" in text
    assert parse_diagram(text) == diagram


def test_parse_diagram_errors():
    with pytest.raises(FormatError):
        parse_diagram("0 0.5\n")
    with pytest.raises(FormatError):
        parse_diagram("-1 0.5 1.0\n")
    with pytest.raises(FormatError):
        parse_diagram("0 inf inf\n")
    with pytest.raises(FormatError):
        parse_diagram("0 1.0 0.5\n")
    with pytest.raises(FormatError):
        parse_diagram("0 nan 1.0\n")


def test_filtration_round_trip_and_validation():
    f = Filtration((((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)))
    assert parse_filtration(write_filtration(f)) == f
    with pytest.raises(FiltrationOrderError):
        parse_filtration("0.0 0 1\n")
    with pytest.raises(FormatError):
        parse_filtration("0.0\n")
