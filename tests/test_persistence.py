"""Diagram computation against a textbook set-based reduction oracle."""

import math
import random
from itertools import combinations

import pytest

from oracles import (
    betti_by_rank,
    expand_by_powerset,
    naive_check_filtration,
    naive_column_reduction,
    naive_filtration_from_snapshots,
    naive_persistence,
    random_maximal_simplices,
)
from ripscollapse import persistence
from ripscollapse.complexes import ComplexMatrix
from ripscollapse.errors import ExpansionCapError, FiltrationOrderError
from ripscollapse.persistence import BoundaryMatrix, PersistenceDiagram, compute_persistence
from ripscollapse.pipeline import oracle_pipeline, run_pipeline
from ripscollapse.rips import pairwise_distances, rips_snapshot
from ripscollapse.tower import Filtration

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _static_filtration(matrix: ComplexMatrix) -> Filtration:
    cells = expand_by_powerset(matrix.maximal_simplices())
    return Filtration(tuple((s, 0.0) for s in cells))


def test_diagram_helpers():
    d = PersistenceDiagram.from_pairs([(1, 1.0, 1.5), (0, 0.5, math.inf), (0, 0.5, 1.0)])
    assert d.pairs == ((0, 0.5, 1.0), (0, 0.5, math.inf), (1, 1.0, 1.5))
    assert d.dimensions() == (0, 1)
    assert d.in_dimension(0) == ((0.5, 1.0), (0.5, math.inf))
    assert d.finite(0) == ((0.5, 1.0),)
    assert d.essential_births(0) == (0.5,)
    assert len(d) == 3
    with pytest.raises(ValueError):
        PersistenceDiagram.from_pairs([(0, 1.0, 0.5)])


def test_betti_of_triangle_boundary_and_disc():
    assert betti_by_rank(expand_by_powerset([(0, 1), (1, 2), (0, 2)])) == (1, 1)
    assert betti_by_rank(expand_by_powerset([(0, 1, 2)])) == (1, 0, 0)


def test_unit_square_snapshot_diagram():
    D = pairwise_distances(UNIT_SQUARE)
    diagram = oracle_pipeline(D, [0.5, 1.0, 1.5])
    assert diagram.pairs == (
        (0, 0.5, 1.0),
        (0, 0.5, 1.0),
        (0, 0.5, 1.0),
        (0, 0.5, math.inf),
        (1, 1.0, 1.5),
    )


def test_zero_pairs_are_opt_in():
    cells = Filtration((((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)))
    assert compute_persistence(cells).pairs == ((0, 0.0, math.inf),)
    with_zero = compute_persistence(cells, include_zero_pairs=True)
    assert with_zero.pairs == ((0, 0.0, 0.0), (0, 0.0, math.inf))


def test_matches_naive_reduction_on_random_snapshot_filtrations():
    filtrations = []
    rng = random.Random(1729)
    for _ in range(25):
        n = rng.randint(2, 8)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        D = pairwise_distances(pts)
        grades = sorted({round(rng.uniform(0.05, 1.0), 2) for _ in range(rng.randint(1, 5))})
        filtrations.append(run_pipeline(D, grades, collapse=False).filtration)
    # static complexes: every cell at grade 0, so only essential classes show
    rng = random.Random(1730)
    for _ in range(20):
        gen = random_maximal_simplices(rng, rng.randint(1, 8), rng.randint(1, 6), 4)
        filtrations.append(_static_filtration(ComplexMatrix.from_simplex_list(gen)))
    for filtration in filtrations:
        ordered = sorted(filtration.cells, key=lambda c: (c[1], len(c[0]), c[0]))
        want = naive_persistence(ordered)
        got = compute_persistence(filtration)
        assert list(got.pairs) == list(want)


def test_blocks_hold_only_the_columns_clearing_leaves(monkeypatch):
    """Each block has one column per dim-p cell not killed in dim p + 1."""
    packed = []
    kernel = persistence.reduce_block

    def recording(columns):
        packed.append(len(columns))
        return kernel(columns)

    monkeypatch.setattr(persistence, "reduce_block", recording)
    rng = random.Random(1731)
    cleared = 0
    for _ in range(15):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(3, 9))]
        grades = sorted({round(rng.uniform(0.1, 1.0), 2) for _ in range(rng.randint(1, 4))})
        filtration = run_pipeline(pairwise_distances(pts), grades, collapse=False).filtration
        matrix = BoundaryMatrix.from_filtration(filtration)
        # columns hold positions in the dimension below; the naive reduction
        # wants cell indices
        reduced = naive_column_reduction(
            [
                {matrix.by_dim[len(s) - 2][f] for f in faces}
                for (s, _), faces in zip(matrix.cells, matrix.columns)
            ]
        )
        killed = {max(col) for col in reduced if col}
        dims = [len(s) - 1 for s, _ in matrix.cells]
        want = []
        for p in range(max(dims), 0, -1):
            cells = [i for i, d in enumerate(dims) if d == p]
            cleared += sum(i in killed for i in cells)
            kept = sum(i not in killed for i in cells)
            if kept:
                want.append(kept)
        packed.clear()
        compute_persistence(filtration)
        assert packed == want
    assert cleared > 0


def _face_first_shuffle(rng, cells):
    """The cells reordered at random within each grade, faces still first.

    Each cell's key is the largest of a fresh random number and its faces'
    keys, so sorting by (grade, key, dimension) keeps every face ahead of
    its cofaces while cells of different dimensions interleave.
    """
    key = {}
    for s, _ in cells:
        faces = combinations(s, len(s) - 1) if len(s) > 1 else ()
        key[s] = max([rng.random()] + [key[f] for f in faces])
    return tuple(sorted(cells, key=lambda c: (c[1], key[c[0]], len(c[0]))))


def test_cell_order_within_equal_grades_does_not_matter():
    D = pairwise_distances(UNIT_SQUARE)
    filtrations = [run_pipeline(D, [0.5, 1.0, 1.5], collapse=False).filtration]
    rng = random.Random(7)
    for _ in range(10):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(3, 12))]
        grades = sorted({round(rng.uniform(0.1, 0.8), 2) for _ in range(rng.randint(1, 5))})
        filtrations.append(run_pipeline(pairwise_distances(pts), grades).filtration)
    interleaved = 0
    for filtration in filtrations:
        reference = compute_persistence(filtration, include_zero_pairs=True)
        for _ in range(5):
            # shuffle each (grade, dimension) bucket
            bucketed = sorted(filtration.cells, key=lambda c: (c[1], len(c[0]), rng.random()))
            # any face-first order within each grade
            mixed = _face_first_shuffle(rng, filtration.cells)
            interleaved += any(
                a[1] == b[1] and len(a[0]) > len(b[0]) for a, b in zip(mixed, mixed[1:])
            )
            for cells in (bucketed, mixed):
                naive_check_filtration(cells)
                got = compute_persistence(Filtration(tuple(cells)), include_zero_pairs=True)
                assert got.pairs == reference.pairs
    assert interleaved > 0


def test_missing_face_and_duplicate_are_rejected():
    with pytest.raises(FiltrationOrderError) as exc:
        compute_persistence(Filtration((((0,), 0.0), ((0, 1), 0.0))))
    assert exc.value.cell_index == 1
    with pytest.raises(FiltrationOrderError):
        compute_persistence(Filtration((((0,), 0.0), ((0,), 1.0))))


def test_nan_grade_is_rejected():
    # a NaN compares false both ways, so it must not hide the fall to 0.0
    cells = (((0,), 1.0), ((1,), math.nan), ((2,), 0.0))
    with pytest.raises(FiltrationOrderError) as exc:
        compute_persistence(Filtration(cells))
    assert exc.value.cell_index == 1


def test_empty_cell_is_rejected():
    for cells, cell_index in (
        ((((0,), 0.0), ((), 0.0)), 1),
        ((((), 0.0), ((0,), 0.0)), 0),
    ):
        with pytest.raises(FiltrationOrderError) as exc:
            compute_persistence(Filtration(cells))
        assert exc.value.cell_index == cell_index


def test_filtration_validate():
    good = (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))
    naive_check_filtration(good)
    compute_persistence(Filtration(good))
    for bad, cell_index in (
        ((((0, 1), 0.0), ((0,), 0.0), ((1,), 0.0)), 0),
        ((((0,), 0.0), ((1,), 0.0), ((1, 2), 0.0), ((2,), 0.0)), 2),
        ((((0,), 1.0), ((1,), 0.0)), 1),
        ((((0,), 0.0), ((0,), 1.0)), 1),
    ):
        with pytest.raises(AssertionError):
            naive_check_filtration(bad)
        with pytest.raises(FiltrationOrderError) as exc:
            compute_persistence(Filtration(bad))
        assert exc.value.cell_index == cell_index


def test_filtration_from_snapshots_grades_by_first_appearance():
    a = ComplexMatrix.from_simplex_list([(0,), (1,)])
    b = ComplexMatrix.from_simplex_list([(0, 1)])
    f = naive_filtration_from_snapshots([a, b], [0.25, 0.75])
    assert f.cells == (((0,), 0.25), ((1,), 0.25), ((0, 1), 0.75))
    with pytest.raises(ValueError):
        naive_filtration_from_snapshots([a], [0.25, 0.75])
    # the same points as a distance matrix, through the clique enumeration
    D = pairwise_distances([(0.0,), (0.5,)])
    assert run_pipeline(D, [0.25, 0.75], collapse=False).filtration == f


def _snapshot_filtration_outcome(fn, D, grades, cap):
    """(filtration, None) or (None, (projected, cap)) of one build."""
    try:
        return fn(D, grades, cap), None
    except ExpansionCapError as e:
        return None, (e.projected, e.cap)


def _uncollapsed_filtration(D, grades, cap):
    return run_pipeline(D, grades, collapse=False, cap=cap).filtration


def _naive_snapshot_filtration(D, grades, cap):
    return naive_filtration_from_snapshots([rips_snapshot(D, g) for g in grades], grades, cap)


def test_snapshot_filtration_matches_naive_expansion():
    rng = random.Random(2024)
    cases = []
    for k in range(60):
        dim = 1 + k % 3
        n = rng.randint(1, 10)
        pts = [tuple(rng.uniform(0, 1) for _ in range(dim)) for _ in range(n)]
        if n > 2 and k % 4 == 0:
            pts[1] = pts[0]  # duplicate points: a zero off-diagonal distance
        if k % 5 == 0:
            pts.append(tuple(9.0 for _ in range(dim)))  # isolated at every grade
        D = pairwise_distances(pts)
        grades = sorted({round(rng.uniform(0.0, 1.2), 2) for _ in range(rng.randint(1, 5))})
        if k % 3 == 0:
            grades[0] = -0.5  # below 0: every point and no edge
        if k % 7 == 0:
            grades = grades[-1:]  # a single grade
        cases.append((D, grades))
    below_all = pairwise_distances([(0.0,), (1.0,), (3.0,)])
    cases.append((below_all, [0.5]))  # below every distance
    duplicates = pairwise_distances([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])
    cases.append((duplicates, [-1.0, 0.0, 2.0]))
    caps = set()
    for D, grades in cases:
        for cap in (10**7, rng.randint(1, 60)):
            got = _snapshot_filtration_outcome(_uncollapsed_filtration, D, grades, cap)
            assert got == _snapshot_filtration_outcome(_naive_snapshot_filtration, D, grades, cap)
            caps.add(got[1] is not None)
    assert caps == {True, False}  # the cap both fires and stays quiet
