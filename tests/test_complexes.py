import random

import pytest

from ripscollapse import (
    EmptyComplexError,
    ExpansionCapError,
    SimplexError,
    as_simplex,
    maximal_columns,
)
from ripscollapse.collapse import core
from ripscollapse.complexes import check_expansion_cap

from oracles import (
    complex_stats,
    matrix_rows,
    maximal_by_pairwise_subset,
    naive_is_face,
    random_maximal_simplices,
)

TABLE_COLUMNS = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]


def test_as_simplex_sorts_and_validates():
    assert as_simplex([3, 1, 2]) == (1, 2, 3)
    assert as_simplex((0,)) == (0,)
    with pytest.raises(SimplexError):
        as_simplex([])
    with pytest.raises(SimplexError):
        as_simplex([1, 1])
    with pytest.raises(SimplexError):
        as_simplex([-1, 2])
    with pytest.raises(SimplexError):
        as_simplex([True, 2])
    with pytest.raises(SimplexError):
        as_simplex([0.5, 2])


def test_a_vertex_id_that_is_not_an_integer_is_a_simplex_error():
    """Checked before sorting, which would raise a bare ``TypeError`` on
    ids that do not compare."""
    for call in (
        lambda: as_simplex([1, "a"]),
        lambda: maximal_columns([[0, "x"]]),
        lambda: core({0: (1, None)}),
    ):
        with pytest.raises(SimplexError, match="vertex ids must be integers"):
            call()


def test_maximal_columns_drops_duplicates_and_subsets():
    assert maximal_columns([(0, 1), (1, 0), (0,), (1, 2)]) == {0: (0, 1), 1: (1, 2)}
    # a survivor keeps the place of its first appearance, even when a
    # duplicate of it comes later
    assert list(maximal_columns([(2,), (3, 1), (2, 4), (1, 3), (0, 1)]).items()) == [
        (0, (1, 3)),
        (1, (2, 4)),
        (2, (0, 1)),
    ]
    with pytest.raises(SimplexError, match="duplicate vertex 2"):
        maximal_columns([(0, 1), (2, 2)])
    # vertex ids may be large: no bitmask over them is built
    assert maximal_columns([(10**12, 3), (3,)]) == {0: (3, 10**12)}


def test_column_ids_number_input_order_of_survivors():
    m = maximal_columns(TABLE_COLUMNS)
    assert list(m.items()) == list(enumerate(TABLE_COLUMNS))
    assert matrix_rows(m)[4] == (1, 3, 4)
    assert matrix_rows(m)[0] == (2,)


def test_empty_input_rejected():
    with pytest.raises(EmptyComplexError):
        maximal_columns([])


def test_stats():
    s = complex_stats(maximal_columns(TABLE_COLUMNS))
    assert s.n_vertices == 6
    assert s.n_maximal == 5
    assert s.dimension == 2


def test_contains_simplex():
    # the judge of face membership that the collapse tests use
    maximal = TABLE_COLUMNS
    assert naive_is_face(maximal, (0, 3))
    assert naive_is_face(maximal, (4,))
    assert not naive_is_face(maximal, (0, 4))
    assert not naive_is_face(maximal, (1, 3, 4))


def test_maximality_matches_pairwise_oracle():
    rng = random.Random(99)
    for k in range(120):
        n = rng.randint(1, 10) if k < 80 else rng.randint(20, 60)
        gen = random_maximal_simplices(rng, n, rng.randint(1, 10 if k < 80 else 200), 5)
        # nested simplices, duplicates and permuted vertex order
        gen += [s[: rng.randint(1, len(s))] for s in rng.sample(gen, len(gen) // 3)]
        gen += [tuple(reversed(s)) for s in rng.sample(gen, len(gen) // 4)]
        rng.shuffle(gen)
        # the judge keeps first appearances, as maximal_columns numbers them
        assert list(maximal_columns(gen).values()) == maximal_by_pairwise_subset(gen)


def test_expansion_cap():
    maximal = [tuple(range(10))]
    with pytest.raises(ExpansionCapError):
        check_expansion_cap(maximal, cap=1000)
    check_expansion_cap(maximal, cap=1023)
    for cap in (0, -5):
        for small in ([], [(0,)]):
            with pytest.raises(ValueError, match="at least 1"):
                check_expansion_cap(small, cap)
