"""Rips snapshot construction, checked against brute-force clique oracles."""

import math
import random
import sys
import warnings

import numpy as np
import pytest

from oracles import (
    betti_by_rank,
    expand_by_powerset,
    naive_clique_count,
    naive_maximal_cliques,
    naive_pairwise_distances,
)
from ripscollapse.collapse import core
from ripscollapse.complexes import ComplexMatrix
from ripscollapse.pipeline import SnapshotStats, compare_pipelines, run_pipeline
from ripscollapse.rips import (
    SnapshotSchedule,
    as_grades,
    count_rips_simplices,
    flag_core,
    maximal_cliques,
    neighborhood_bitsets,
    pairwise_distances,
    rips_snapshot,
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


def test_unit_square_snapshots():
    D = pairwise_distances(UNIT_SQUARE)
    low = rips_snapshot(D, 0.5)
    assert [s for _, s in low.columns_sorted()] == [(0,), (1,), (2,), (3,)]
    # the threshold is closed, so the sides appear exactly at t = 1
    mid = rips_snapshot(D, 1.0)
    assert [s for _, s in mid.columns_sorted()] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    high = rips_snapshot(D, 1.5)
    assert [s for _, s in high.columns_sorted()] == [(0, 1, 2, 3)]


def test_snapshot_ids_follow_lexicographic_order():
    D = pairwise_distances(UNIT_SQUARE)
    mid = rips_snapshot(D, 1.0)
    assert mid.column_ids == (0, 1, 2, 3)
    assert mid.column(0) == (0, 1)
    assert mid.column(3) == (2, 3)


def test_isolated_vertices_are_kept():
    D = pairwise_distances([(0.0,), (10.0,), (20.5,)])
    snap = rips_snapshot(D, 1.0)
    assert [s for _, s in snap.columns_sorted()] == [(0,), (1,), (2,)]


def test_single_point_cloud():
    D = pairwise_distances([(0.0, 0.0)])
    assert [s for _, s in rips_snapshot(D, 0.0).columns_sorted()] == [(0,)]


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
        want = ComplexMatrix.from_simplex_list(naive_maximal_cliques((D <= t).astype(int)))
        assert rips_snapshot(D, t) == want


def test_simplex_count_matches_subset_scan():
    rng = random.Random(98)
    for _ in range(20):
        n = rng.randint(1, 10)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        D = pairwise_distances(pts)
        t = rng.uniform(0.1, 0.9)
        assert count_rips_simplices(D, t) == naive_clique_count((D <= t).astype(int))


def test_snapshot_expansion_agrees_with_count():
    rng = random.Random(99)
    for _ in range(10):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 9))]
        D = pairwise_distances(pts)
        t = rng.uniform(0.2, 0.8)
        snap = rips_snapshot(D, t)
        assert len(expand_by_powerset(snap.maximal_simplices())) == count_rips_simplices(D, t)


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
    assert cycle.matrix == rips_snapshot(D, 1.0)
    assert cycle.trace.events == ()
    full = flag_core(neighborhood_bitsets(D, 1.5))
    assert full.matrix.columns_sorted() == [(0, (0,))]
    assert full.trace.events == (("row", 1, 0), ("row", 2, 0), ("row", 3, 0))
    assert full.retraction.target == {0: 0, 1: 0, 2: 0, 3: 0}


def test_flag_core_matches_matrix_collapse():
    for D in _clouds(41, 24, 40):
        for t in GRADES:
            graph = flag_core(neighborhood_bitsets(D, t))
            assert graph.matrix.stats() == core(rips_snapshot(D, t)).matrix.stats()
            assert core(graph.matrix).trace.events == ()


def test_flag_core_events_hold_at_their_moment():
    for D in _clouds(42, 24, 40):
        for t in GRADES:
            adj = neighborhood_bitsets(D, t)
            n = len(adj)
            closed = [{u for u in range(n) if adj[v] >> u & 1} | {v} for v in range(n)]
            result = flag_core(adj)
            alive = set(range(n))
            for kind, x, y in result.trace.events:
                assert kind == "row" and x != y and x in alive and y in alive
                nx, ny = closed[x] & alive, closed[y] & alive
                assert nx <= ny and (nx != ny or y < x)
                alive.remove(x)
            for x in alive:  # no survivor is left dominated
                nx = closed[x] & alive
                assert not any(nx <= closed[y] & alive for y in nx - {x})
            assert result.matrix.vertex_ids == tuple(sorted(alive))
            assert {v for v, w in result.retraction.target.items() if v == w} == alive
            assert result.trace.row_candidate_tests >= len(result.trace.events)
            for clique in maximal_cliques(adj):
                assert result.matrix.contains_simplex(result.retraction.apply_to(clique))


def test_flag_core_is_the_flag_complex_of_the_survivors_and_keeps_betti_numbers():
    for D in _clouds(43, 30, 10):
        for t in GRADES:
            table = (D <= t).astype(int)
            result = flag_core(neighborhood_bitsets(D, t))
            keep = result.matrix.vertex_ids
            induced = [[table[u][v] for v in keep] for u in keep]
            want = [tuple(keep[i] for i in c) for c in naive_maximal_cliques(induced)]
            assert result.matrix.maximal_simplices() == want
            full = betti_by_rank(expand_by_powerset(rips_snapshot(D, t).maximal_simplices()))
            small = betti_by_rank(expand_by_powerset(result.matrix.maximal_simplices()))
            width = max(len(full), len(small))
            assert full + (0,) * (width - len(full)) == small + (0,) * (width - len(small))
