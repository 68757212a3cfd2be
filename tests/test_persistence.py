"""Diagram computation against a textbook set-based reduction oracle."""

import dataclasses
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    FAULT_REASONS,
    betti_by_rank,
    boundary_index_of,
    expand_by_powerset,
    naive_boundary_index,
    naive_check_filtration,
    naive_filtration_fault,
    naive_column_reduction,
    naive_filtration_from_snapshots,
    maximal_simplices,
    naive_persistence,
    random_maximal_simplices,
    rips_snapshot,
)
from ripscollapse import persistence, pipeline
from ripscollapse.complexes import maximal_columns
from ripscollapse.errors import ExpansionCapError, FiltrationOrderError, ReductionMemoryError
from ripscollapse.persistence import (
    BoundaryMatrix,
    CellArrays,
    PersistenceDiagram,
    compute_persistence,
)
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import graded_bitsets, pairwise_distances

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

    def recording(faces, lows, limit):
        packed.append(len(faces))
        return kernel(faces, lows, limit)

    monkeypatch.setattr(persistence, "reduce_block", recording)
    rng = random.Random(1731)
    cleared = 0
    for _ in range(15):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(3, 9))]
        grades = sorted({round(rng.uniform(0.1, 1.0), 2) for _ in range(rng.randint(1, 4))})
        filtration = run_pipeline(pairwise_distances(pts), grades, collapse=False).filtration
        by_dim, columns = boundary_index_of(BoundaryMatrix.from_filtration(filtration))
        # columns hold positions in the dimension below; the naive reduction
        # wants cell indices
        reduced = naive_column_reduction(
            [{by_dim[len(s) - 2][f] for f in faces} for (s, _), faces in zip(filtration, columns)]
        )
        killed = {max(col) for col in reduced if col}
        dims = [len(s) - 1 for s, _ in filtration]
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


def test_cell_budget_refuses_before_any_cell_is_indexed(monkeypatch):
    """With the cell budget set around each filtration's size,
    ``compute_persistence`` is refused exactly when the filtration has more
    cells than the budget, before any builder indexes a cell, and the
    collapsed run is refused exactly when the tower has more, by the level
    join that builds its cells, before any cell is indexed, and otherwise
    indexes the tower's arrays once.  Seeded clouds, both paths."""
    indexed = []  # the size of each filtration a builder indexes

    def recorded(build):
        return lambda cells: indexed.append(len(cells)) or build(cells)

    rng = random.Random(1732)
    grades = [0.3, 0.5, 0.7]
    runs = []
    for _ in range(12):
        pts = [tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(rng.randint(4, 12))]
        D = pairwise_distances(pts)
        runs.append((D, run_pipeline(D, grades, collapse=False), run_pipeline(D, grades)))
    monkeypatch.setattr(persistence, "_located", recorded(persistence._located))
    monkeypatch.setattr(persistence, "_arrays_located", recorded(persistence._arrays_located))
    monkeypatch.setattr(persistence, "_scan", recorded(persistence._scan))
    outcomes = set()
    for D, flat, collapsed in runs:
        cells = flat.filtration
        for limit in (0, len(cells) // 2, len(cells) - 1, len(cells), len(cells) + 1):
            monkeypatch.setattr(persistence, "_MAX_CELLS", limit)
            indexed.clear()
            refused = len(cells) > limit
            if refused:
                with pytest.raises(ReductionMemoryError) as exc:
                    compute_persistence(cells)
                assert (exc.value.held, exc.value.limit, exc.value.unit) == (
                    len(cells), limit, "cells"
                )
                assert indexed == []
            else:
                assert compute_persistence(cells) == flat.diagram
                assert indexed == [len(cells)]
            outcomes.add(("uncollapsed", refused))
        tower_cells = collapsed.filtration
        n = len(tower_cells)
        for limit in (0, n // 2, n - 1, n, n + 1):
            monkeypatch.setattr(persistence, "_MAX_CELLS", limit)
            indexed.clear()
            refused = n > limit
            if refused:
                with pytest.raises(ReductionMemoryError) as exc:
                    run_pipeline(D, grades)
                assert limit < exc.value.held <= n and exc.value.unit == "cells"
                assert indexed == []
            else:
                result = run_pipeline(D, grades)
                assert (result.filtration, result.diagram) == (tower_cells, collapsed.diagram)
                assert indexed == [n]
            outcomes.add(("collapsed", refused))
    assert len(outcomes) == 4


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
    # infinite birth has no place in a diagram; an int past the float range
    # is refused as infinite, after any fault the scan finds
    for cells, cell_index in (
        ((((0,), 0.0), ((1,), 0.0), ((0, 1), math.inf)), 2),
        ((((0,), 0.0), ((1,), math.inf), ((0, 1), math.inf)), 1),
        ((((0,), -math.inf), ((1,), 0.0), ((0, 1), 1.0)), 0),
        ((((0,), -math.inf),), 0),
        ((((0,), 10**400),), 0),
        ((((0,), 0.0), ((1,), 0.0), ((0, 1), 10**5000)), 2),
        ((((0,), -(10**400)), ((1,), 0), ((0, 1), math.inf)), 0),
        ((((0,), 0), ((1,), 10**400), ((0, 1), 10**401)), 1),
    ):
        with pytest.raises(FiltrationOrderError, match="non-finite grade") as exc:
            compute_persistence(cells)
        assert exc.value.cell_index == cell_index
        assert f"cell {cells[cell_index][0]} " in str(exc.value)


def test_refusals_show_ints_too_long_to_print():
    """A grade or vertex id past the interpreter's digit limit is refused
    at its cell with a bounded message, not with the ``ValueError`` that
    printing it raises; a long grade is cut."""
    huge = 10**5000
    for cells, cell_index, reason in (
        ([((0,), huge), ((0,), 0.0)], 1, "not at or above its predecessor's <int holding"),
        ([((huge,), 0.0), ((huge,), 0.0)], 1, "duplicate cell <tuple holding an int"),
        ([((0,), 0.0), ((huge,), math.inf)], 1, "cell <tuple holding an int too long to print>"),
        ([((0,), 10**400), ((0,), 0.0)], 1, r"predecessor's 10{96}\.\.\. "),
    ):
        with pytest.raises(FiltrationOrderError, match=reason) as exc:
            compute_persistence(cells)
        assert exc.value.cell_index == cell_index
        assert len(str(exc.value)) < 300


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


@pytest.fixture(params=["located"])
def index_path(request, monkeypatch):
    """The one way the builder indexes a filtration: faces located by exact
    key, with every fault reported by the scan of one cell at a time.  The
    list it gives records the size of each filtration that reaches the scan."""
    return _scans(monkeypatch)


def test_unsorted_edge_is_refused(index_path):
    """An edge must list its vertices in increasing order, as the per-cell
    scan reports once the keys refuse the cells: ``(1, 0)``
    once passed as a second copy of ``(0, 1)`` that killed a component and
    left a spurious class, ``(0, 0)`` passed as an edge, and ``(0, 'a')``
    raised a bare ``TypeError``."""
    for other, bad in ((1, (1, 0)), (1, (0, 0)), ("a", (0, "a"))):
        cells = (((0,), 0.0), ((other,), 0.0), (bad, 1.0), ((0, 1), 2.0))
        message = re.escape(f"edge {bad} is not in increasing vertex order")
        with pytest.raises(FiltrationOrderError, match="^" + message) as e:
            compute_persistence(cells)
        assert e.value.cell_index == 2
    judged = naive_filtration_fault((((0,), 0.0), ((1,), 0.0), ((1, 0), 1.0)))
    assert judged == (2, "not in increasing vertex order")
    # a higher cell on an unsorted vertex tuple lacks the unsorted edge
    cells = [((u,), 0.0) for u in range(3)] + [(uv, 0.0) for uv in ((0, 1), (0, 2), (1, 2))]
    cells.append(((0, 2, 1), 1.0))
    assert naive_filtration_fault(cells) == (6, "is missing face")
    with pytest.raises(FiltrationOrderError, match=r"missing face \(2, 1\)"):
        compute_persistence(cells)


def test_malformed_cells_are_refused(index_path):
    """A cell that is not a pair of a hashable vertex tuple and a real grade
    is refused at its index, as the per-cell scan reports: a grade given as
    text, as bytes or as None once raised a bare ``TypeError``, and so did a
    list simplex or vertex.  So did a cell that is not a pair, an int or
    None, and one of one entry raised a bare ``IndexError``; one of three,
    or a pair given as a list, was indexed as a pair, and after an empty
    simplex one of three raised a bare ``ValueError``."""
    edge = [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]
    for bad in (
        ((0,), "1"), ((0,), b"1"), ((0,), None), ([0], 0.0), (([0],), 0.0),
        ((0,),), ((0,), 0.0, "x"), 5, None, [(0,), 0.0],
    ):
        for i in (0, 3):
            cells = edge[:i] + [bad] + edge[i:]
            message = re.escape(f"malformed cell {bad!r}: not a vertex tuple with a real grade")
            with pytest.raises(FiltrationOrderError, match="^" + message) as e:
                compute_persistence(cells)
            assert e.value.cell_index == i
            assert naive_filtration_fault(cells) == (i, "malformed cell")
    assert len(index_path) == 20
    # these once returned a diagram, or raised a bare ValueError or TypeError
    for cells in ([((0,), 0.0, "x")], [((0,), 0.0, "x"), ((), 0.0)], [((0,), 0.0), 7]):
        with pytest.raises(FiltrationOrderError, match="^malformed cell") as e:
            compute_persistence(cells)
        assert (e.value.cell_index, "malformed cell") == naive_filtration_fault(cells)


def test_int_grades_are_compared_exactly(index_path):
    """An int grade past 2**53 that falls is refused, though a float array
    rounds it to its predecessor's grade; one that rises is reduced at the
    grade a float holds, by key."""
    big = 2**53
    falling = [((0,), big + 1), ((1,), big)]
    with pytest.raises(FiltrationOrderError, match="has grade") as e:
        compute_persistence(falling)
    assert e.value.cell_index == 1
    assert naive_filtration_fault(falling) == (1, "has grade")
    rising = compute_persistence([((0,), big), ((1,), big + 1)])
    assert rising.pairs == ((0, float(big), math.inf),) * 2
    assert index_path == [len(falling)]  # the rising grades are indexed by key


def _seeded_filtrations():
    """Uncollapsed (oracle) and tower filtrations of seeded clouds."""
    for seed in range(3):
        D = pairwise_distances(np.random.default_rng(seed).random((18, 3)))
        for collapse in (False, True):
            yield list(run_pipeline(D, [0.3, 0.35, 0.4, 0.45, 0.5], collapse=collapse).filtration)


def _fault_positions(cells):
    """The first, middle and last cell of every maximal run of
    same-dimension cells, and the first cell of every grade but the first."""
    ends = [i + 1 for i in range(len(cells) - 1) if len(cells[i][0]) != len(cells[i + 1][0])]
    positions = set()
    for start, stop in zip([0] + ends, ends + [len(cells)]):
        positions.update((start, (start + stop) // 2, stop - 1))
    positions.update(i for i in range(1, len(cells)) if cells[i][1] != cells[i - 1][1])
    return sorted(positions)


def _inject(cells, p, kind, rng):
    """A copy of *cells* with one fault of *kind* placed at position *p*;
    an inserted cell takes the grade before it, so it keeps the order."""
    s, g = cells[p]
    before = cells[p - 1][1] if p else g
    out = list(cells)
    if kind == "drop":  # a later coface, if any, misses it
        del out[p]
    elif kind == "orphan":
        out.insert(p, (s + (1 + max(v for c, _ in cells for v in c),), before))
    elif kind == "repeat-earlier":
        earlier = [c for c, _ in cells[:p] if len(c) == len(s)] or [cells[0][0]]
        out.insert(p, (rng.choice(earlier), before))
    elif kind == "repeat-in-run":
        out.insert(p + 1, (s, g))
    elif kind == "lower":
        out[p] = (s, before - 1.0)
    elif kind == "nan":
        out[p] = (s, math.nan)
    elif kind == "empty":
        out.insert(p, ((), before))
    elif kind == "unsorted":
        edges = [c for c, _ in cells if len(c) == 2]
        out.insert(p, (rng.choice(edges)[::-1], before))
    return out


FAULTS = ("drop", "orphan", "repeat-earlier", "repeat-in-run", "lower", "nan", "empty", "unsorted")


def _malform(cells, p, rng):
    """A copy of *cells* whose cell at *p* is not a pair of a vertex tuple
    and a real grade: a list, a grade given as text, as bytes or as None (a
    float array reads the first two as numbers and None as NaN), or a cell
    of one entry, of three, or that is no tuple at all."""
    s, g = cells[p]
    out = list(cells)
    out[p] = rng.choice((
        (list(s), g), (s, str(g)), (s, str(g).encode()), (s, None),
        (s,), (s, g, "x"), [s, g], len(s), None,
    ))
    return out


def _builder_outcome(cells):
    """``(cell_index, reason)`` of the builder's refusal of *cells*, or the
    ``(by_dim, columns)`` it built, laid out as the naive index lays them
    out."""
    try:
        m = BoundaryMatrix.from_filtration(cells)
    except FiltrationOrderError as e:
        reasons = [r for r in FAULT_REASONS if r in str(e)]
        assert len(reasons) == 1, str(e)
        return e.cell_index, reasons[0]
    assert m.cells == tuple(cells)
    return boundary_index_of(m)


def test_builder_refuses_the_cell_the_judge_refuses(index_path):
    """One or two faults of every kind, placed at the start, middle and end
    of runs and on grade boundaries of seeded oracle and tower filtrations,
    and a malformed cell on its own or after another fault: the builder
    refuses the cell the judge names, for the judge's reason, reported by
    the per-cell scan, and indexes an unfaulted result by key, as a naive
    per-cell index does, without a scan."""
    rng = random.Random(7)
    faulted = malformed = 0
    for cells in _seeded_filtrations():
        cases = [cells]
        for p in _fault_positions(cells):
            one = _inject(cells, p, rng.choice(FAULTS), rng)
            cases.append(one)
            q = rng.randrange(len(one))
            cases.append(_inject(one, q, rng.choice(FAULTS), rng))
            base = rng.choice((cells, one))
            cases.append(_malform(base, rng.randrange(len(base)), rng))
        for case in cases:
            index_path.clear()
            fault = naive_filtration_fault(case)
            if fault is None:
                assert _builder_outcome(case) == naive_boundary_index(case)
            else:
                assert _builder_outcome(case) == fault
            assert index_path == ([] if fault is None else [len(case)])
            faulted += fault is not None
            malformed += fault is not None and fault[1] == "malformed cell"
    assert faulted > 100 and malformed > 30


def _arrays_of(cells):
    """The :class:`CellArrays` of *cells*, pairs of integer vertex tuples
    and grades: per dimension, its cells' rows, grades and positions."""
    levels = [[] for _ in range(max(len(s) for s, _ in cells))]
    for i, (s, g) in enumerate(cells):
        levels[len(s) - 1].append((s, g, i))
    return CellArrays(
        [np.array([s for s, _, _ in cs], np.intp).reshape(-1, d + 1)
         for d, cs in enumerate(levels)],
        [np.array([g for _, g, _ in cs]) for cs in levels],
        [np.array([i for _, _, i in cs], np.intp) for cs in levels],
    )


def _oracle_arrays():
    """The oracle's arrays of seeded clouds, as the pipeline builds them."""
    grades = [0.3, 0.35, 0.4, 0.45, 0.5]
    for seed in range(3):
        D = pairwise_distances(np.random.default_rng(seed).random((18, 3)))
        yield pipeline.run_pipeline(D, grades, collapse=False).tower.arrays


def test_array_entry_is_the_naive_index(monkeypatch):
    """The oracle's arrays are indexed by key with no tuple built and no
    scan, as a naive per-cell index lays out their pairs, and reduce to the
    diagram of their pairs; the arrays of those pairs are the oracle's.  So
    are the arrays of those pairs with their ids permuted, whose vertex
    cells are no longer in id order, and with their ids spread out."""
    scanned = _scans(monkeypatch)
    rng = random.Random(12)
    for arrays in _oracle_arrays():
        cells = arrays.cells()
        matrix = persistence._arrays_indexed(arrays)
        assert matrix.cells is arrays
        want = naive_boundary_index(cells)
        assert boundary_index_of(dataclasses.replace(matrix, cells=cells)) == want
        n = len(arrays.vertices[0])
        for ids in (rng.sample(range(n), n), rng.sample(range(3 * n), n)):
            moved = [(tuple(sorted(ids[v] for v in s)), g) for s, g in cells]
            assert [s for s, _ in moved[:n]] != sorted(s for s, _ in moved[:n])
            arrays_moved = _arrays_of(moved)
            matrix = persistence._arrays_indexed(arrays_moved)
            assert matrix.cells is arrays_moved
            want = naive_boundary_index(moved)
            assert boundary_index_of(dataclasses.replace(matrix, cells=moved)) == want
        assert compute_persistence(arrays, include_zero_pairs=True) == compute_persistence(
            cells, include_zero_pairs=True
        )
        again = _arrays_of(cells)
        for mine, theirs in (
            (again.vertices, arrays.vertices),
            (again.grades, arrays.grades),
            (again.positions, arrays.positions),
        ):
            assert len(mine) == len(theirs)
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    assert scanned == []


def _corrupted(cells, kind, rng):
    """A copy of the oracle's pairs *cells* with one fault of *kind*."""
    out = list(cells)
    at = {s: i for i, (s, _) in enumerate(cells)}
    triangles = [i for i, (s, _) in enumerate(cells) if len(s) == 3]
    if kind == "drop":  # a face of a later cell
        del out[at[cells[rng.choice(triangles)][0][1:]]]
    elif kind == "move":  # a face put right after a coface of its grade
        t, f = rng.choice([
            (t, at[f]) for t in triangles for f in combinations(cells[t][0], 2)
            if cells[at[f]][1] == cells[t][1]
        ])
        out.insert(t + 1, cells[f])
        del out[f]
    elif kind == "repeat":
        t = rng.choice(triangles)
        out.insert(t + 1, cells[t])
    elif kind == "reverse":
        e = rng.choice([i for i, (s, _) in enumerate(cells) if len(s) == 2])
        out[e] = (cells[e][0][::-1], cells[e][1])
    elif kind == "orphan":  # an id with no vertex cell
        t = rng.choice(triangles)
        out[t] = (cells[t][0][:2] + (len(at),), cells[t][1])
    elif kind == "twin":  # a vertex cell repeated before any coface
        v = rng.choice([i for i, (s, _) in enumerate(cells) if len(s) == 1])
        out.insert(v + 1, cells[v])
    elif kind == "hole":
        # a last triangle (a, b, h) on the least id h with no vertex cell,
        # placed where rank -1 for h would pass the key pass: -1 borrows
        # from the digit before it, so (a, h) reads as (a', z), (b, h) as
        # (b', z) and (a, b, h) as (a, b', z), where x' is the vertex cell
        # before x and z the last one; those edges are cells, that triangle not
        verts = [s[0] for s, _ in cells if len(s) == 1]
        rank = {v: r for r, v in enumerate(verts)}
        z = verts[-1]
        aliased = [
            (a, b) for a, b in sorted(s for s, _ in cells if len(s) == 2)
            if min(rank[a], rank[b]) > 0
            and (verts[rank[a] - 1], z) in at and (verts[rank[b] - 1], z) in at
            and (a, verts[rank[b] - 1], z) not in at
        ]
        if not aliased:
            return None
        h = min(set(range(len(verts) + 1)) - rank.keys())
        out.append((rng.choice(aliased) + (h,), cells[-1][1]))
    elif kind == "lower":
        i = rng.randrange(1, len(cells))
        out[i] = (cells[i][0], cells[i - 1][1] - 1.0)
    return out


ARRAY_FAULTS = {
    "drop": "is missing face",
    "move": "is missing face",
    "repeat": "duplicate cell",
    "reverse": "not in increasing vertex order",
    "orphan": "is missing face",
    "twin": "duplicate cell",
    "hole": "is missing face",
    "lower": "has grade",
}


def test_array_entry_refuses_as_the_pairs_are_refused(monkeypatch):
    """The oracle's arrays, and a collapsed run's tower arrays, with a face
    row dropped, a face moved after its coface, a row repeated, an edge
    reversed, an id with no vertex cell (past the largest id, or below it
    where its rank would alias cells), a vertex cell repeated or a grade
    lowered raise the :class:`FiltrationOrderError` that their pairs raise,
    index and message, at the cell and for the reason the judge names, and
    the scan runs once for each."""
    scanned = _scans(monkeypatch)
    rng = random.Random(8)
    # sparse ids, fresh ids among them, and ranks not monotone in id
    D = pairwise_distances(np.random.default_rng(3).random((40, 2)))
    collapsed = run_pipeline(D, [0.1, 0.2, 0.3, 0.4, 0.5]).tower.arrays
    ids = collapsed.vertices[0][:, 0]
    assert ids.max() >= 40 and ids.max() >= len(ids) and (ids[1:] < ids[:-1]).any()
    holes = []
    for arrays in [*_oracle_arrays(), collapsed]:
        cells = arrays.cells()
        for kind, reason in ARRAY_FAULTS.items():
            for _ in range(3):
                case = _corrupted(cells, kind, rng)
                if case is None:
                    continue
                if kind == "hole":
                    holes.append(arrays)
                assert naive_filtration_fault(case)[1] == reason
                with pytest.raises(FiltrationOrderError) as want:
                    compute_persistence(case)
                scanned.clear()
                with pytest.raises(FiltrationOrderError) as got:
                    compute_persistence(_arrays_of(case))
                assert (got.value.cell_index, str(got.value)) == (
                    want.value.cell_index, str(want.value)
                )
                assert got.value.cell_index == naive_filtration_fault(case)[0]
                assert scanned == [len(case)]
    assert any(a is collapsed for a in holes)


def _scans(monkeypatch):
    """A list that records each filtration the per-cell scan checks."""
    scanned = []
    scan = persistence._scan

    def recording(cells):
        scanned.append(len(cells))
        return scan(cells)

    monkeypatch.setattr(persistence, "_scan", recording)
    return scanned


def test_cell_sizes_are_counted_with_a_signed_bincount(monkeypatch):
    """``np.bincount`` refuses uint64 input before NumPy 2.3 (numpy>=1.24 is
    supported).  The index's one bincount, over the cell sizes, must get
    signed input: with a bincount that refuses unsigned input, the diagrams
    are unchanged and no cell is left to the per-cell scan."""
    filtrations = list(_seeded_filtrations())
    want = [compute_persistence(cells, include_zero_pairs=True) for cells in filtrations]
    bincount = np.bincount

    def signed_only(x, *args, **kwargs):
        if np.asarray(x).dtype.kind == "u":
            raise TypeError("Cannot cast array data from dtype('uint64') to dtype('int64')")
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", signed_only)
    scanned = _scans(monkeypatch)
    assert [compute_persistence(cells, include_zero_pairs=True) for cells in filtrations] == want
    assert scanned == []


def test_vertex_ids_of_any_kind(monkeypatch):
    """Strings, ids at or past 2**63, tuples (of unequal lengths, which
    once raised a bare ``ValueError``), bools and negative ids give the
    diagram of the same filtration on 0, 1, ..., all located by key, with
    no cell left to the per-cell scan."""
    scanned = _scans(monkeypatch)
    cells = next(_seeded_filtrations())
    want = compute_persistence(cells, include_zero_pairs=True)
    for relabel in (
        lambda v: f"v{v:03d}",
        lambda v: v + 2**63,
        lambda v: tuple(range(v)),
        lambda v: v - 1000,
    ):
        moved = [(tuple(map(relabel, s)), g) for s, g in cells]
        assert compute_persistence(moved, include_zero_pairs=True) == want
    edge = [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]
    booleans = [(tuple(map(bool, s)), g) for s, g in edge]
    assert compute_persistence(booleans) == compute_persistence(edge)
    assert scanned == []


def test_keys_at_their_limits(monkeypatch):
    """Past about 20,000 vertex cells a key holds two vertices' digits after
    its prefix's position, so a 7-simplex's key takes three prefix lookups,
    and its faces drop a vertex inside the prefix or among the last two.
    The index is the naive one, and a repeat and a missing face are refused
    at the judge's cell.  A key holds three digits up to 20,642 vertex cells.
    With one digit after the position, every cell past the vertices is
    keyed by its prefix."""
    scanned = _scans(monkeypatch)
    n = 70_000
    top = tuple(range(n - 8, n))
    cells = [((v,), 0.0) for v in range(n)]
    cells += [(s, 1.0) for k in range(2, 9) for s in combinations(top, k)]
    assert _builder_outcome(cells) == naive_boundary_index(cells)
    assert scanned == []
    # the 7-simplex repeated, or missing its face without its last vertex or its first
    for case in (cells + cells[-1:], cells[:-9] + cells[-8:], cells[:-2] + cells[-1:]):
        fault = naive_filtration_fault(case)
        assert fault[1] in ("duplicate cell", "is missing face")
        assert _builder_outcome(case) == fault
    assert len(scanned) == 3
    # the most digits that keep a key below 2**63 within the cell budget
    powers = persistence._powers
    digits = []
    monkeypatch.setattr(persistence, "_powers", lambda b, k: digits.append(k) or powers(b, k))
    for n, m in ((20_642, 3), (20_643, 2)):
        digits.clear()
        cells = [((v,), 0.0) for v in range(n)]
        cells += [(s, 1.0) for k in range(2, 5) for s in combinations(range(4), k)]
        assert _builder_outcome(cells) == naive_boundary_index(cells)
        assert max(digits) == m
    # a budget so large that a key holds one digit after its prefix's position
    monkeypatch.setattr(persistence, "_MAX_CELLS", 2**61)
    for cells in _seeded_filtrations():
        assert _builder_outcome(cells) == naive_boundary_index(cells)
    assert len(scanned) == 3


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
    # exact ties: every edge length of a 3 x 3 lattice is a grade
    lattice = pairwise_distances([(i, j) for i in range(3) for j in range(3)])
    cases.append((lattice, [1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), math.sqrt(8.0)]))
    caps = set()
    for D, grades in cases:
        for cap in (10**7, rng.randint(1, 60)):
            got = _snapshot_filtration_outcome(_uncollapsed_filtration, D, grades, cap)
            assert got == _snapshot_filtration_outcome(_naive_snapshot_filtration, D, grades, cap)
            caps.add(got[1] is not None)
    assert caps == {True, False}  # the cap both fires and stays quiet
