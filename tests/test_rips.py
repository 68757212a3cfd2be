"""Rips snapshot construction, checked against brute-force clique oracles."""

import math
import random
import sys
import warnings

import numpy as np
import pytest

from oracles import (
    betti_by_rank,
    complex_stats,
    expand_by_powerset,
    graded_edges,
    naive_clique_count,
    naive_flag_core,
    naive_is_face,
    naive_maximal_cliques,
    naive_pairwise_distances,
    maximal_simplices,
    naive_retraction,
    neighborhood_bitsets,
    rips_snapshot,
)
from ripscollapse import rips
from ripscollapse.collapse import core
from ripscollapse.complexes import maximal_columns
from ripscollapse.pipeline import SnapshotStats, compare_pipelines, run_pipeline
from ripscollapse.rips import (
    SnapshotSchedule,
    as_grades,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    pairwise_distances,
    validate_distance_matrix,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_pairwise_distances_unit_square():
    D = pairwise_distances(UNIT_SQUARE)
    assert D.shape == (4, 4)
    assert D[0, 1] == 1.0
    assert D[0, 2] == math.sqrt(2.0)
    assert np.array_equal(D, D.T)
    assert not np.diagonal(D).any()


def test_pairwise_distances_match_loop_reference_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(20):
        X = rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 5))))
        assert np.array_equal(pairwise_distances(X), naive_pairwise_distances(X.tolist()))


def test_pairwise_distances_accepts_1d_input():
    D = pairwise_distances([0.0, 3.0, 7.0])
    assert D[0, 1] == 3.0
    assert D[1, 2] == 4.0
    assert D[0, 2] == 7.0


def test_pairwise_distances_rejects_bad_input():
    with pytest.raises(ValueError):
        pairwise_distances([])
    with pytest.raises(ValueError):
        pairwise_distances([(0.0, math.nan)])
    # squares that overflow in the subtraction, the product or the sum
    for points in ([(1e308,), (-1e308,)], [(0.0, 0.0), (1e200, 0.0)], [(1e154, 1e154), (0, 0)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                pairwise_distances(points)


def test_validate_distance_matrix_errors():
    validate_distance_matrix(pairwise_distances(UNIT_SQUARE))
    with pytest.raises(ValueError):
        validate_distance_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        validate_distance_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_distance_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_distance_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_distance_matrix(np.array([[0.0, math.inf], [math.inf, 0.0]]))


def test_schedule_grades():
    assert SnapshotSchedule(0.0, 0.5, 2.0).grades() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert SnapshotSchedule(1.0, 0.25, 1.0).grades() == [1.0]
    # 0.1 + 3*0.2 rounds a hair above 0.7 yet the final snapshot is kept
    assert len(SnapshotSchedule(0.1, 0.2, 0.7).grades()) == 4
    # a genuine overshoot past the end is never emitted
    assert len(SnapshotSchedule(0.1, 0.2, 0.6999).grades()) == 3
    assert len(SnapshotSchedule(0.1, 0.2, 0.6).grades()) == 3


def test_schedule_validation():
    with pytest.raises(ValueError):
        SnapshotSchedule(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SnapshotSchedule(0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        SnapshotSchedule(1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        SnapshotSchedule(0.0, math.inf, 1.0)
    # finite bounds whose grade count overflows to infinity
    with pytest.raises(ValueError, match="too many grades"):
        SnapshotSchedule(0.0, 5e-324, 1e300)
    # finite counts over the 10**6 limit, rejected before any grade is built
    for bounds in ((0.0, 1e-12, 1.0), (0.0, 1.0, 1e6)):
        with pytest.raises(ValueError, match="too many grades"):
            SnapshotSchedule(*bounds)
    SnapshotSchedule(0.0, 1.0, 999_999.0)  # exactly 10**6 grades
    # near 1e16 a step of 1 rounds two grades to the same value
    with pytest.raises(ValueError, match="strictly increasing"):
        as_grades(SnapshotSchedule(1e16, 1.0, 1e16 + 4))


def test_as_grades_passthrough_and_checks():
    assert as_grades([0.25, 0.5, 2]) == [0.25, 0.5, 2.0]
    assert as_grades(SnapshotSchedule(0.0, 1.0, 2.0)) == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        as_grades([])
    with pytest.raises(ValueError):
        as_grades([0.5, 0.5])
    with pytest.raises(ValueError):
        as_grades([1.0, 0.5])


@pytest.mark.parametrize(
    "grades", [[0.5, math.nan, 1.5], [math.nan], [0.5, math.inf], [-math.inf, 1.0]]
)
def test_non_finite_grades_are_rejected(grades):
    D = pairwise_distances([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError, match="finite"):
        as_grades(grades)
    with pytest.raises(ValueError, match="finite"):
        run_pipeline(D, grades)
    with pytest.raises(ValueError, match="finite"):
        compare_pipelines(D, grades)


def test_neighborhood_bitsets_unit_square():
    D = pairwise_distances(UNIT_SQUARE)
    assert neighborhood_bitsets(D, 1.0) == [0b1010, 0b0101, 0b1010, 0b0101]
    assert neighborhood_bitsets(D, 0.5) == [0, 0, 0, 0]
    assert neighborhood_bitsets(D, 2.0) == [0b1110, 0b1101, 0b1011, 0b0111]


def test_graded_bitsets_equal_one_graph_per_grade():
    """Duplicate points give zero-length edges, and grades equal to edge
    lengths must keep those edges (``D <= g``), as must a grade of 0.0."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        X = rng.random((n, int(rng.integers(1, 4))))
        if n > 2:
            X[rng.integers(n)] = X[rng.integers(n)]
        D = pairwise_distances(X)
        lengths = np.unique(D[np.triu_indices(n, 1)]).tolist()
        picked = rng.choice(lengths, min(len(lengths), 6), replace=False) if lengths else []
        grades = sorted({-1.0, 0.0, 2.0, float(rng.random()), *map(float, picked)})
        assert graded_bitsets(D, grades) == [neighborhood_bitsets(D, g) for g in grades]


def test_graded_edges_come_from_the_grading_pass():
    """The oracle's join takes the last graph's edges, as sorted keys with
    the index of the first grade that holds each, from the pass that builds
    the graphs.  They are those that testing each graph in turn finds, on
    seeded clouds with duplicate points and grades equal to edge lengths,
    on lattices where many edges tie at each grade, and on a single point
    and grades below every distance."""
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 30))
        X = rng.random((n, int(rng.integers(1, 4))))
        if n > 2:
            X[rng.integers(n)] = X[rng.integers(n)]
        D = pairwise_distances(X)
        lengths = np.unique(D[np.triu_indices(n, 1)]).tolist()
        picked = rng.choice(lengths, min(len(lengths), 6), replace=False) if lengths else []
        cases.append((D, sorted({-1.0, 0.0, float(rng.random()), *map(float, picked)})))
    for side in (3, 5):
        lattice = pairwise_distances([(i, j) for i in range(side) for j in range(side)])
        cases.append((lattice, [1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0]))
    cases.append((pairwise_distances([(0.0, 0.0)]), [0.5]))
    cases.append((pairwise_distances([(0.0,), (1.0,), (3.0,)]), [0.25, 0.5]))
    tied = 0
    for D, grades in cases:
        graphs, keys, first = rips._graded_graphs(D, grades)
        assert graphs == graded_bitsets(D, grades)
        want = graded_edges([neighborhood_bitsets(D, g) for g in grades])
        assert keys.tolist() == want[0].tolist() and first.tolist() == want[1].tolist()
        tied += len(first) > len(set(first.tolist())) + 10
    assert tied >= 2


def test_graded_bitsets_checks_its_grades_and_distances(monkeypatch):
    """Unchecked, the grades [1.5, 0.5] gave two empty graphs, [1.0, nan] a
    last graph with every edge, an asymmetric D was read from its upper
    triangle only and a NaN distance dropped its edge."""
    D = pairwise_distances([(0, 0), (1, 0), (0, 1), (3, 3)])
    for grades, message in (([1.5, 0.5], "strictly increasing"), ([1.0, math.nan], "finite")):
        with pytest.raises(ValueError, match=message):
            graded_bitsets(D, grades)
    asymmetric = D.copy()
    asymmetric[1, 0] = 5.0
    undefined = D.copy()
    undefined[0, 1] = undefined[1, 0] = math.nan
    for bad, message in ((asymmetric, "symmetric"), (undefined, "finite")):
        with pytest.raises(ValueError, match=message):
            graded_bitsets(bad, [1.0])
    # a pipeline run checks D once, on either path
    checks = []
    check = rips.validate_distance_matrix
    monkeypatch.setattr(rips, "validate_distance_matrix", lambda D: checks.append(1) or check(D))
    for collapse in (True, False):
        checks.clear()
        run_pipeline(D, [1.0, 1.5], collapse=collapse)
        assert checks == [1]


def test_unit_square_snapshots():
    D = pairwise_distances(UNIT_SQUARE)
    low = rips_snapshot(D, 0.5)
    assert maximal_simplices(low) == [(0,), (1,), (2,), (3,)]
    # the threshold is closed, so the sides appear exactly at t = 1
    mid = rips_snapshot(D, 1.0)
    assert maximal_simplices(mid) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    high = rips_snapshot(D, 1.5)
    assert maximal_simplices(high) == [(0, 1, 2, 3)]


def test_snapshot_ids_follow_lexicographic_order():
    D = pairwise_distances(UNIT_SQUARE)
    mid = rips_snapshot(D, 1.0)
    assert list(mid) == [0, 1, 2, 3]
    assert mid[0] == (0, 1)
    assert mid[3] == (2, 3)


def test_isolated_vertices_are_kept():
    D = pairwise_distances([(0.0,), (10.0,), (20.5,)])
    snap = rips_snapshot(D, 1.0)
    assert maximal_simplices(snap) == [(0,), (1,), (2,)]


def test_single_point_cloud():
    D = pairwise_distances([(0.0, 0.0)])
    assert maximal_simplices(rips_snapshot(D, 0.0)) == [(0,)]


def _random_graph(rng, n):
    p = rng.uniform(0.1, 0.9)
    table = [[0] * n for _ in range(n)]
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                table[u][v] = table[v][u] = 1
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return table, masks


def test_maximal_cliques_match_subset_scan():
    rng = random.Random(97)
    for _ in range(40):
        table, masks = _random_graph(rng, rng.randint(1, 11))
        assert maximal_cliques(masks) == naive_maximal_cliques(table)
    # snapshots number the cliques without a maximality check of their own
    rng = random.Random(96)
    for _ in range(20):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 11))]
        D = pairwise_distances(pts)
        t = rng.uniform(0.1, 0.9)
        want = maximal_columns(naive_maximal_cliques((D <= t).astype(int)))
        assert rips_snapshot(D, t) == want


def test_snapshot_expansion_agrees_with_count():
    rng = random.Random(99)
    for _ in range(10):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 9))]
        D = pairwise_distances(pts)
        t = rng.uniform(0.2, 0.8)
        snap = rips_snapshot(D, t)
        count = len(expand_by_powerset(maximal_simplices(snap)))
        assert count == naive_clique_count((D <= t).astype(int))
        assert count == len(run_pipeline(D, [t], collapse=False).filtration)


def test_snapshots_follow_schedule_and_workers_agree():
    D = pairwise_distances(UNIT_SQUARE)
    sched = SnapshotSchedule(0.5, 0.5, 1.5)
    serial = run_pipeline(D, sched).snapshots
    threaded = run_pipeline(D, sched, workers=4).snapshots
    assert serial == threaded
    assert run_pipeline(D, sched, collapse=False).snapshots == tuple(
        SnapshotStats(s.grade, s.before, s.before) for s in serial
    )
    assert [s.grade for s in serial] == sched.grades()
    assert [s.before.n_maximal for s in serial] == [4, 4, 1]


def test_cliques_larger_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    n = 1100
    full = (1 << n) - 1
    assert maximal_cliques([full ^ 1 << v for v in range(n)]) == [tuple(range(n))]
    D = np.full((n, n), 0.5)
    np.fill_diagonal(D, 0.0)
    assert run_pipeline(D, [1.0]).diagram.pairs == ((0, 1.0, math.inf),)
    assert sys.getrecursionlimit() == limit


def _clouds(seed, count, n_max):
    """Seeded uniform clouds in the unit square or cube."""
    rng = random.Random(seed)
    for i in range(count):
        dim = 2 + i % 2
        n = rng.randint(1, n_max)
        yield pairwise_distances([[rng.random() for _ in range(dim)] for _ in range(n)])


GRADES = (0.15, 0.3, 0.45, 0.7)


def test_flag_core_unit_square():
    D = pairwise_distances(UNIT_SQUARE)
    cycle = flag_core(neighborhood_bitsets(D, 1.0))
    assert cycle.cliques == maximal_simplices(rips_snapshot(D, 1.0))
    assert cycle.events == ()
    assert cycle.survivors == (0, 1, 2, 3) and cycle.retraction == [0, 1, 2, 3]
    full = flag_core(neighborhood_bitsets(D, 1.5))
    assert full.survivors == (0,) and full.cliques == [(0,)]
    assert full.events == (("row", 1, 0), ("row", 2, 0), ("row", 3, 0))
    assert full.retraction == [0, 0, 0, 0]


def test_flag_core_matches_matrix_collapse():
    for D in _clouds(41, 24, 40):
        for t in GRADES:
            graph = dict(enumerate(flag_core(neighborhood_bitsets(D, t)).cliques))
            assert complex_stats(graph) == complex_stats(core(rips_snapshot(D, t)).columns)
            assert core(graph).trace.events == ()


def test_flag_core_retraction_follows_the_dominator_chains():
    chained = 0  # removed vertices whose dominator was removed later
    for D in _clouds(43, 40, 40):
        for t in GRADES:
            result = flag_core(neighborhood_bitsets(D, t))
            dominator = {x: y for _, x, y in result.events}
            assert dict(enumerate(result.retraction)) == naive_retraction(range(len(D)), dominator)
            chained += sum(result.retraction[x] != y for x, y in dominator.items())
    assert chained > 100


def test_flag_core_events_hold_at_their_moment():
    for D in _clouds(42, 24, 40):
        for t in GRADES:
            adj = neighborhood_bitsets(D, t)
            n = len(adj)
            closed = [{u for u in range(n) if adj[v] >> u & 1} | {v} for v in range(n)]
            result = flag_core(adj)
            alive = set(range(n))
            for kind, x, y in result.events:
                assert kind == "row" and x != y and x in alive and y in alive
                nx, ny = closed[x] & alive, closed[y] & alive
                assert nx <= ny and (nx != ny or y < x)
                alive.remove(x)
            for x in alive:  # no survivor is left dominated
                nx = closed[x] & alive
                assert not any(nx <= closed[y] & alive for y in nx - {x})
            assert result.survivors == tuple(sorted(alive))
            assert {v for v, w in enumerate(result.retraction) if v == w} == alive
            assert result.candidate_tests >= len(result.events)
            for clique in maximal_cliques(adj):
                assert naive_is_face(result.cliques, {result.retraction[v] for v in clique})


def test_flag_core_equals_the_unpruned_judge():
    """Witness pruning drops only non-dominators, so the events, survivors
    and retraction are the unpruned loop's, in fewer candidate tests.
    Duplicate points have equal closed neighbourhoods, which exercises the
    ``y < x`` tie rule, and grades equal to edge lengths keep their edges."""
    rng = np.random.default_rng(31)
    ties = pruned = unpruned = 0
    for _ in range(30):
        n = int(rng.integers(1, 40))
        X = rng.random((n, int(rng.integers(1, 4))))
        for _ in range(n // 8):
            X[rng.integers(n)] = X[rng.integers(n)]
        D = pairwise_distances(X)
        lengths = np.unique(D[np.triu_indices(n, 1)]).tolist()
        picked = rng.choice(lengths, min(len(lengths), 6), replace=False) if lengths else []
        grades = sorted({0.0, 0.2, 0.4, *map(float, picked)})
        for adj in graded_bitsets(D, grades):
            result = flag_core(adj)
            events, survivors, tests = naive_flag_core(adj)
            assert result.events == events
            assert result.survivors == survivors
            dominator = {x: y for _, x, y in events}
            assert dict(enumerate(result.retraction)) == naive_retraction(range(n), dominator)
            assert result.candidate_tests <= tests
            pruned += result.candidate_tests
            unpruned += tests
            ties += sum(adj[x] | 1 << x == adj[y] | 1 << y for _, x, y in events)
    assert ties > 0
    assert pruned < unpruned


def test_flag_core_candidate_tests_are_pinned():
    """The noise-free work counter of the collapse: the unpruned loop makes
    7,277 candidate tests on this cloud for the same 678 removals."""
    D = pairwise_distances(np.random.default_rng(29).random((80, 2)))
    results = [flag_core(adj) for adj in graded_bitsets(D, [0.05 * k for k in range(1, 11)])]
    assert sum(len(r.events) for r in results) == 678
    assert sum(r.candidate_tests for r in results) == 2430


def test_flag_core_is_the_flag_complex_of_the_survivors_and_keeps_betti_numbers():
    for D in _clouds(43, 30, 10):
        for t in GRADES:
            table = (D <= t).astype(int)
            result = flag_core(neighborhood_bitsets(D, t))
            keep = result.survivors
            induced = [[table[u][v] for v in keep] for u in keep]
            want = [tuple(keep[i] for i in c) for c in naive_maximal_cliques(induced)]
            assert result.cliques == want
            full = betti_by_rank(expand_by_powerset(maximal_simplices(rips_snapshot(D, t))))
            small = betti_by_rank(expand_by_powerset(result.cliques))
            width = max(len(full), len(small))
            assert full + (0,) * (width - len(full)) == small + (0,) * (width - len(small))
