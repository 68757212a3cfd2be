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
    maximal_simplices,
    naive_persistence,
    random_maximal_simplices,
    rips_snapshot,
)
from ripscollapse import persistence
from ripscollapse.complexes import maximal_columns
from ripscollapse.errors import ExpansionCapError, FiltrationOrderError, ReductionMemoryError
from ripscollapse.persistence import BoundaryMatrix, PersistenceDiagram, compute_persistence
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import pairwise_distances

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _static_filtration(columns) -> tuple:
    return tuple((s, 0.0) for s in expand_by_powerset(maximal_simplices(columns)))


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
    diagram = run_pipeline(D, [0.5, 1.0, 1.5], collapse=False).diagram
    assert diagram.pairs == (
        (0, 0.5, 1.0),
        (0, 0.5, 1.0),
        (0, 0.5, 1.0),
        (0, 0.5, math.inf),
        (1, 1.0, 1.5),
    )


def test_zero_pairs_are_opt_in():
    cells = (((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0))
    assert compute_persistence(cells).pairs == ((0, 0.0, math.inf),)
    with_zero = compute_persistence(cells, include_zero_pairs=True)
    assert with_zero.pairs == ((0, 0.0, 0.0), (0, 0.0, math.inf))


def test_any_cell_sequence_gives_the_same_diagram():
    """A list, a tuple and a generator of a producer's cells reduce to one
    diagram, and a tuple is indexed as it is, not copied."""
    rng = random.Random(1732)
    for k in range(12):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(3, 10))]
        grades = sorted({round(rng.uniform(0.1, 0.9), 2) for _ in range(rng.randint(1, 4))})
        cells = run_pipeline(pairwise_distances(pts), grades, collapse=k % 2 == 0).filtration
        want = compute_persistence(cells, include_zero_pairs=True)
        assert compute_persistence(list(cells), include_zero_pairs=True) == want
        assert compute_persistence((c for c in cells), include_zero_pairs=True) == want
        assert BoundaryMatrix.from_filtration(cells).cells is cells


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
        filtrations.append(_static_filtration(maximal_columns(gen)))
    for filtration in filtrations:
        ordered = sorted(filtration, key=lambda c: (c[1], len(c[0]), c[0]))
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


def test_early_memory_check_fires_only_where_the_block_guard_would(monkeypatch):
    """The bound from cell counts alone refuses a filtration only when the
    reduction's per-block guard would refuse it too, and it refuses before
    the boundary index is built.  The limit is set just below and at each
    dimension's bound, on the uncollapsed and the collapsed filtrations of
    seeded clouds."""
    rng = random.Random(1732)
    filtrations = []
    for _ in range(12):
        pts = [tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(rng.randint(4, 12))]
        D = pairwise_distances(pts)
        for collapse in (False, True):
            filtrations.append(run_pipeline(D, [0.3, 0.5, 0.7], collapse=collapse).filtration)

    indexed = []
    from_filtration = BoundaryMatrix.from_filtration.__func__

    def counted(cls, cells):
        indexed.append(len(cells))
        return from_filtration(cls, cells)

    monkeypatch.setattr(BoundaryMatrix, "from_filtration", classmethod(counted))
    guard = persistence._check_block_bound
    outcomes = set()
    for cells in filtrations:
        matrix = from_filtration(BoundaryMatrix, cells)
        sizes = [len(cells_d) for cells_d in matrix.by_dim]
        bounds = [
            max(0, sizes[p] - (sizes[p + 1] if p + 1 < len(sizes) else 0))
            * ((sizes[p - 1] + 63) // 64)
            * 8
            for p in range(1, len(sizes))
        ]
        for limit in {b + d for b in bounds for d in (-1, 0)} - {-1}:
            monkeypatch.setattr(persistence, "_MAX_BLOCK_BYTES", limit)
            try:
                guard(sizes)
                early = False
            except ReductionMemoryError:
                early = True
                indexed.clear()
                with pytest.raises(ReductionMemoryError):
                    compute_persistence(cells)
                assert indexed == []
            # the per-block guard alone
            monkeypatch.setattr(persistence, "_check_block_bound", lambda sizes: None)
            try:
                persistence._diagram(matrix)
                late = False
            except ReductionMemoryError:
                late = True
            monkeypatch.setattr(persistence, "_check_block_bound", guard)
            assert late or not early, (sizes, limit)
            outcomes.add((early, late))
    # the bound fires, and the block guard also fires where the bound does not
    assert outcomes == {(True, True), (False, True), (False, False)}


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
            bucketed = sorted(filtration, key=lambda c: (c[1], len(c[0]), rng.random()))
            # any face-first order within each grade
            mixed = _face_first_shuffle(rng, filtration)
            interleaved += any(
                a[1] == b[1] and len(a[0]) > len(b[0]) for a, b in zip(mixed, mixed[1:])
            )
            for cells in (bucketed, mixed):
                naive_check_filtration(cells)
                got = compute_persistence(cells, include_zero_pairs=True)
                assert got.pairs == reference.pairs
    assert interleaved > 0


def test_missing_face_and_duplicate_are_rejected():
    with pytest.raises(FiltrationOrderError) as exc:
        compute_persistence((((0,), 0.0), ((0, 1), 0.0)))
    assert exc.value.cell_index == 1
    assert "missing face (1,)" in str(exc.value)
    with pytest.raises(FiltrationOrderError):
        compute_persistence((((0,), 0.0), ((0,), 1.0)))


def test_nan_grade_is_rejected():
    # a NaN compares false both ways, so it must not hide the fall to 0.0
    cells = (((0,), 1.0), ((1,), math.nan), ((2,), 0.0))
    with pytest.raises(FiltrationOrderError) as exc:
        compute_persistence(cells)
    assert exc.value.cell_index == 1


def test_infinite_grade_is_rejected():
    # a class killed at an infinite grade would read as essential, and an
    # infinite birth has no place in a diagram
    for cells, cell_index in (
        ((((0,), 0.0), ((1,), 0.0), ((0, 1), math.inf)), 2),
        ((((0,), 0.0), ((1,), math.inf), ((0, 1), math.inf)), 1),
        ((((0,), -math.inf), ((1,), 0.0), ((0, 1), 1.0)), 0),
        ((((0,), -math.inf),), 0),
    ):
        with pytest.raises(FiltrationOrderError, match="non-finite grade") as exc:
            compute_persistence(cells)
        assert exc.value.cell_index == cell_index
        assert f"cell {cells[cell_index][0]} " in str(exc.value)


def test_diagram_refuses_nan_and_infinite_births():
    for pairs in (
        [(0, math.nan, 1.0)],
        [(0, 0.0, math.nan)],
        [(0, math.inf, math.inf)],
        [(0, -math.inf, 1.0)],
        [(math.nan, 0.0, 1.0)],
    ):
        with pytest.raises(ValueError):
            PersistenceDiagram.from_pairs(pairs)


def test_empty_cell_is_rejected():
    for cells, cell_index in (
        ((((0,), 0.0), ((), 0.0)), 1),
        ((((), 0.0), ((0,), 0.0)), 0),
    ):
        with pytest.raises(FiltrationOrderError) as exc:
            compute_persistence(cells)
        assert exc.value.cell_index == cell_index


def test_filtration_validate():
    good = (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))
    naive_check_filtration(good)
    compute_persistence(good)
    for bad, cell_index, reason in (
        ((((0, 1), 0.0), ((0,), 0.0), ((1,), 0.0)), 0, "missing face"),
        ((((0,), 0.0), ((1,), 0.0), ((1, 2), 0.0), ((2,), 0.0)), 2, "missing face (2,)"),
        ((((0,), 1.0), ((1,), 0.0)), 1, "grade"),
        ((((0,), 0.0), ((0,), 1.0)), 1, "duplicate"),
    ):
        with pytest.raises(AssertionError):
            naive_check_filtration(bad)
        with pytest.raises(FiltrationOrderError) as exc:
            compute_persistence(bad)
        assert exc.value.cell_index == cell_index
        assert reason in str(exc.value)


def test_filtration_from_snapshots_grades_by_first_appearance():
    a = maximal_columns([(0,), (1,)])
    b = maximal_columns([(0, 1)])
    f = naive_filtration_from_snapshots([a, b], [0.25, 0.75])
    assert f == (((0,), 0.25), ((1,), 0.25), ((0, 1), 0.75))
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
