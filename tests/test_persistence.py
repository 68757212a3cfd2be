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


def _join_builds():
    """Builds of the level join, each a function of no argument: both paths
    of seeded clouds with duplicate points, on a coarse grid where many
    cells share a grade, and random graded graphs whose vertices come at
    random grades and whose grade lists hold ties."""
    rng = np.random.default_rng(37)
    for _ in range(6):
        pts = rng.random((int(rng.integers(8, 16)), 3))
        D = pairwise_distances(np.concatenate((pts, pts[: int(rng.integers(1, 4))])))
        for collapse in (False, True):
            yield lambda D=D, collapse=collapse: run_pipeline(
                D, [0.3, 0.5, 0.7], collapse=collapse
            ).tower.arrays
    py = random.Random(38)
    for _ in range(12):
        n = py.randint(1, 14)
        grades = sorted(py.choice((0.25, 0.5, 0.75)) for _ in range(py.randint(1, 4)))
        keys = [u * n + v for u, v in combinations(range(n), 2) if py.random() < 0.7]
        first = [py.randrange(len(grades)) for _ in keys]
        vertex_at = [py.randrange(len(grades)) for _ in range(n)]
        args = (np.array(vertex_at, np.intp), np.array(keys, np.int64), np.array(first, np.intp))
        yield lambda args=args, grades=grades: persistence._level_join(*args, grades)


def test_array_entry_is_the_naive_index(monkeypatch):
    """The level join hands over each cell's faces, and the array entry
    reads the index off them with no tuple built and no scan.  On every
    build of :func:`_join_builds` that index is the per-cell index of the
    arrays' pairs and reduces to their diagram, and the arrays are the same
    when each join step tests at most 7 vertex pairs at once, so a chunk
    border moves no face.  The pairs front indexes the oracle's pairs as the
    naive index does with their ids permuted, so that the vertex cells are
    no longer in id order, and with their ids spread out."""
    scanned = _scans(monkeypatch)
    rng = random.Random(12)
    chunk = persistence._JOIN_CHUNK
    moved_ids = 0
    for build in _join_builds():
        arrays = build()
        cells = arrays.cells()
        matrix = persistence._arrays_indexed(arrays)
        assert matrix.cells is arrays
        want = naive_boundary_index(cells)
        assert boundary_index_of(dataclasses.replace(matrix, cells=cells)) == want
        assert compute_persistence(arrays, include_zero_pairs=True) == compute_persistence(
            cells, include_zero_pairs=True
        )
        monkeypatch.setattr(persistence, "_JOIN_CHUNK", 7)
        small = build()
        monkeypatch.setattr(persistence, "_JOIN_CHUNK", chunk)
        for mine, theirs in zip(
            (small.vertices, small.grades, small.positions, small.faces),
            (arrays.vertices, arrays.grades, arrays.positions, arrays.faces),
        ):
            assert len(mine) == len(theirs)
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        n = len(arrays.vertices[0])
        if not (arrays.vertices[0][:, 0] == np.arange(n)).all() or len(arrays.vertices) < 3:
            continue
        for ids in (rng.sample(range(n), n), rng.sample(range(3 * n), n)):
            moved = [(tuple(sorted(ids[v] for v in s)), g) for s, g in cells]
            assert [s for s, _ in moved[:n]] != sorted(s for s, _ in moved[:n])
            matrix = BoundaryMatrix.from_filtration(moved)
            assert boundary_index_of(matrix) == naive_boundary_index(moved)
            moved_ids += 1
    assert scanned == [] and moved_ids >= 10


def _corrupted(arrays, kind, rng):
    """A copy of the join's *arrays* with one fault of *kind*: a grade
    lowered below its predecessor's, the positions of a cell and one of its
    faces swapped, an edge reversed, a row repeated right after itself with
    its faces (a vertex row for a twin), or a face pointed at a cell placed
    after its coface or past the end of the dimension below."""
    vertices, grades, positions, faces = (
        [a.copy() for a in part]
        for part in (arrays.vertices, arrays.grades, arrays.positions, arrays.faces)
    )
    d = rng.randrange(1, len(vertices))
    r = rng.randrange(len(positions[d]))
    c = rng.randrange(d + 1)
    if kind == "lower":
        before = positions[d][r] - 1
        dim = next(k for k, p in enumerate(positions) if before in p)
        grades[d][r] = grades[dim][np.flatnonzero(positions[dim] == before)[0]] - 1.0
    elif kind == "swap":
        f = faces[d][r, c]
        positions[d][r], positions[d - 1][f] = positions[d - 1][f], positions[d][r]
    elif kind == "reverse":
        r = rng.randrange(len(vertices[1]))
        vertices[1][r] = vertices[1][r][::-1].copy()
    elif kind in ("repeat", "twin"):
        if kind == "twin":
            d, r = 0, rng.randrange(len(positions[0]))
        p = positions[d][r]
        for q in positions:
            q[q > p] += 1
        for part in (vertices, grades, faces):
            part[d] = np.insert(part[d], r + 1, part[d][r], axis=0)
        positions[d] = np.insert(positions[d], r + 1, p + 1)
        if d + 1 < len(faces):
            faces[d + 1][faces[d + 1] > r] += 1
    elif kind == "later":
        later = np.flatnonzero(positions[d - 1] > positions[d][r])
        if not later.size:
            return None
        faces[d][r, c] = rng.choice(later.tolist())
    elif kind == "past":
        faces[d][r, c] = len(positions[d - 1])
    return CellArrays(vertices, grades, positions, faces)


def _outcome(filtration):
    """``(cell_index, message)`` of the refusal of *filtration*, or its
    diagram with its zero-length pairs."""
    try:
        return compute_persistence(filtration, include_zero_pairs=True)
    except FiltrationOrderError as e:
        return e.cell_index, str(e)


def test_array_entry_refuses_as_the_pairs_are_refused(monkeypatch):
    """The oracle's arrays, and a collapsed run's tower arrays, with a grade
    lowered, the positions of a cell and its face swapped, an edge
    reversed, a row repeated with its faces or a vertex row repeated raise
    the :class:`FiltrationOrderError` that their pairs raise,
    index and message, at the cell and for the reason the judge names, and
    the scan runs once for each.  With a face pointed at a later cell or
    past the end of the dimension below, the pairs are well formed: the
    array entry refuses the arrays, and their pairs are indexed by key, with
    no scan, and reduce to their diagram."""
    scanned = _scans(monkeypatch)
    refused = []
    located = persistence._arrays_located

    def recorded(arrays):
        matrix = located(arrays)
        refused.append(matrix is None)
        return matrix

    monkeypatch.setattr(persistence, "_arrays_located", recorded)
    rng = random.Random(8)
    D = pairwise_distances(np.random.default_rng(3).random((40, 2)))
    collapsed = run_pipeline(D, [0.1, 0.2, 0.3, 0.4, 0.5]).tower.arrays
    clouds = (pairwise_distances(np.random.default_rng(seed).random((18, 3))) for seed in range(3))
    oracles = [run_pipeline(D, [0.3, 0.4, 0.5], collapse=False).tower.arrays for D in clouds]
    kinds = set()
    for arrays in [*oracles, collapsed]:
        for kind in ("lower", "swap", "reverse", "repeat", "twin", "later", "past"):
            for _ in range(3):
                case = _corrupted(arrays, kind, rng)
                if case is None:
                    continue
                cells = case.cells()
                fault = naive_filtration_fault(cells)
                assert (fault is None) == (kind in ("later", "past"))
                want = _outcome(cells)
                scanned.clear()
                refused.clear()
                got = _outcome(case)
                assert got == want and refused == [True]
                if fault is None:
                    assert scanned == [] and got == _outcome(arrays.cells())
                else:
                    assert got[0] == fault[0] and fault[1] in got[1]
                    assert scanned == [len(cells)]
                kinds.add(kind)
    assert len(kinds) == 7


def test_array_entry_trusts_the_faces(monkeypatch):
    """A face pointed at a wrong cell placed before its coface is not
    refused: the array entry trusts the faces to be those of the vertex
    rows, as ``compute_persistence`` says, and reads the index off them as
    given, with no scan, though it is not the index of the arrays' pairs."""
    scanned = _scans(monkeypatch)
    rng = random.Random(9)
    D = pairwise_distances(np.random.default_rng(4).random((18, 3)))
    arrays = run_pipeline(D, [0.3, 0.4, 0.5], collapse=False).tower.arrays
    faces = [f.copy() for f in arrays.faces]
    # a triangle's last face, which the check for repeats does not read
    r = rng.randrange(len(faces[2]))
    wrong = rng.choice([
        e for e in range(len(faces[1]))
        if arrays.positions[1][e] < arrays.positions[2][r] and e not in faces[2][r]
    ])
    faces[2][r, 2] = wrong
    case = CellArrays(arrays.vertices, arrays.grades, arrays.positions, faces)
    matrix = persistence._arrays_located(case)
    assert matrix is not None and matrix.faces[2][r, 2] == wrong
    cells = case.cells()
    got = boundary_index_of(dataclasses.replace(matrix, cells=cells))
    assert got != naive_boundary_index(cells)
    compute_persistence(case)
    assert scanned == []


def test_join_keeps_no_table_larger_than_a_chunk_or_its_cells(monkeypatch):
    """What a join step keeps to locate the faces of the level above, a
    table of every vertex pair it tested or the pairs it joined, is no
    larger than a chunk plus four entries per cell the step built, however
    many pairs it tested: on a star of 300 edges, whose 44,850 pairs of
    edges make no triangle, the step keeps its joined pairs (none) and
    searches them; on an oracle's levels, with 100 pairs a chunk, it
    keeps tables that span several chunks."""
    kept = []
    join = persistence._sibling_join

    def recorded(*args):
        above, (start, locate), held = join(*args)
        kept.append((locate.__name__, len(locate.__self__), len(above[0])))
        return above, (start, locate), held

    monkeypatch.setattr(persistence, "_sibling_join", recorded)
    monkeypatch.setattr(persistence, "_JOIN_CHUNK", 100)
    n = 301
    star = persistence._level_join(
        np.zeros(n, np.intp), np.arange(1, n, dtype=np.int64), np.zeros(n - 1, np.intp), [0.0]
    )
    assert [len(v) for v in star.vertices] == [301, 300] and kept == [("searchsorted", 0, 0)]
    kept.clear()
    D = pairwise_distances(np.random.default_rng(5).random((40, 3)))
    run_pipeline(D, [0.3, 0.4, 0.5], collapse=False)
    assert all(size <= 100 + 4 * cells for _, size, cells in kept)
    assert any(kind == "take" and size > 100 for kind, size, _ in kept)


def test_arrays_whose_shapes_disagree_are_refused(monkeypatch):
    """Per-dimension arrays whose lengths or shapes disagree raise
    :class:`FiltrationOrderError` at the count of cells of the dimensions
    below the first that disagrees, and their pairs are never built: two
    vertex rows with one grade (which once raised a bare ``ValueError``
    from ``CellArrays.cells``), and arrays with a face row too many, a face
    column or a vertex column too few, grades given as a column, or a
    dimension of faces missing."""

    def no_pairs(self):
        raise AssertionError("the pairs of malformed arrays were built")

    monkeypatch.setattr(CellArrays, "cells", no_pairs)
    rows, none = np.array([[0], [1]]), np.empty((2, 0), np.intp)
    edge, at, edge_faces = np.array([[0, 1]]), np.array([1.0]), np.array([[0, 1]])
    grades, positions = np.array([0.0, 0.0]), np.array([0, 1])
    cases = [
        (CellArrays([rows], [np.array([0.0])], [positions], [none]), 0),
        (CellArrays([rows], [grades], [positions], [np.empty((3, 0), np.intp)]), 0),
        (CellArrays([rows, edge], [grades, at], [positions, [2]], [none, edge_faces[:, :1]]), 2),
        (CellArrays([rows, rows[:1]], [grades, at], [positions, [2]], [none, edge_faces]), 2),
        (CellArrays([rows], [grades[:, None]], [positions], [none]), 0),
        (CellArrays([rows, edge], [grades, at], [positions, np.array([2])], [none]), 2),
    ]
    for arrays, index in cases:
        with pytest.raises(FiltrationOrderError, match="of the arrays has shapes") as exc:
            compute_persistence(arrays)
        assert exc.value.cell_index == index
    well_formed = CellArrays(
        [rows, edge], [grades, at], [positions, np.array([2])], [none, edge_faces]
    )
    monkeypatch.undo()
    assert compute_persistence(well_formed) == compute_persistence(well_formed.cells())


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
