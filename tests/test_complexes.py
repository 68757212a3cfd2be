import random

import pytest

from ripscollapse import (
    ComplexMatrix,
    EmptyComplexError,
    ExpansionCapError,
    SimplexError,
    as_simplex,
)
from ripscollapse.complexes import check_expansion_cap

from oracles import matrix_rows, maximal_by_pairwise_subset, naive_is_face, random_maximal_simplices

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


def test_from_simplex_list_drops_duplicates_and_subsets():
    m = ComplexMatrix.from_simplex_list([(0, 1), (1, 0), (0,), (1, 2)])
    assert m.columns_sorted() == [(0, (0, 1)), (1, (1, 2))]
    assert m.vertex_ids == (0, 1, 2)


def test_column_ids_number_input_order_of_survivors():
    m = ComplexMatrix.from_simplex_list(TABLE_COLUMNS)
    assert m.columns_sorted() == list(enumerate(TABLE_COLUMNS))
    assert matrix_rows(m)[4] == (1, 3, 4)
    assert matrix_rows(m)[0] == (2,)


def test_empty_input_rejected():
    with pytest.raises(EmptyComplexError):
        ComplexMatrix.from_simplex_list([])


def test_stats():
    s = ComplexMatrix.from_simplex_list(TABLE_COLUMNS).stats()
    assert s.n_vertices == 6
    assert s.n_maximal == 5
    assert s.dimension == 2


def test_contains_simplex():
    # the judge of face membership that the collapse tests use
    maximal = ComplexMatrix.from_simplex_list(TABLE_COLUMNS).maximal_simplices()
    assert naive_is_face(maximal, (0, 3))
    assert naive_is_face(maximal, (4,))
    assert not naive_is_face(maximal, (0, 4))
    assert not naive_is_face(maximal, (1, 3, 4))


def test_maximality_matches_pairwise_oracle():
    rng = random.Random(99)
    for _ in range(80):
        gen = random_maximal_simplices(rng, rng.randint(1, 10), rng.randint(1, 10), 5)
        m = ComplexMatrix.from_simplex_list(gen)
        got = [verts for _, verts in m.columns_sorted()]
        assert sorted(got) == sorted(maximal_by_pairwise_subset(gen))


def test_expansion_cap():
    maximal = ComplexMatrix.from_simplex_list([tuple(range(10))]).maximal_simplices()
    with pytest.raises(ExpansionCapError):
        check_expansion_cap(maximal, cap=1000)
    check_expansion_cap(maximal, cap=1023)
    for cap in (0, -5):
        for small in ([], [(0,)]):
            with pytest.raises(ValueError, match="at least 1"):
                check_expansion_cap(small, cap)


def test_equality_ignores_construction_route():
    a = ComplexMatrix.from_simplex_list([(0, 1), (1, 2)])
    b = ComplexMatrix.from_columns({0: (0, 1), 1: (1, 2)})
    assert a == b
    assert a != ComplexMatrix.from_simplex_list([(0, 1)])


def test_from_columns_preserves_ids():
    m = ComplexMatrix.from_columns({3: (1, 4), 7: (2, 4)})
    assert m.column_ids == (3, 7)
    assert m.column(7) == (2, 4)
    assert m.vertex_ids == (1, 2, 4)
