"""The end-to-end pipeline: frozen artifacts, determinism, oracle parity."""

import concurrent.futures
import math
import os
import random
import sys
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from oracles import (
    complex_stats,
    graded_edges,
    naive_check_filtration,
    naive_clique_count,
    naive_filtration_from_snapshots,
    naive_flag_tower_filtration,
    naive_maximal_cliques,
    rips_snapshot,
    tower_graph,
)

import ripscollapse
from ripscollapse import persistence, pipeline, rips, tower
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP, check_expansion_cap
from ripscollapse.errors import ExpansionCapError, ReductionMemoryError
from ripscollapse.io_formats import write_diagram, write_tower
from ripscollapse.persistence import (
    BoundaryMatrix,
    PersistenceDiagram,
    bottleneck_distance,
    compute_persistence,
)
from ripscollapse.pipeline import (
    STATS_CSV_HEADER,
    CompareReport,
    DimensionVerdict,
    SnapshotStats,
    compare_pipelines,
    run_pipeline,
    stats_to_csv,
)
from ripscollapse.rips import (
    SnapshotSchedule,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    pairwise_distances,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_SCHED = SnapshotSchedule(0.5, 0.5, 1.5)


def test_unit_square_artifacts():
    D = pairwise_distances(UNIT_SQUARE)
    result = run_pipeline(D, SQUARE_SCHED)
    assert write_diagram(result.diagram) == (
        "0 0.5 1.0\n0 0.5 1.0\n0 0.5 1.0\n0 0.5 inf\n1 1.0 1.5\n"
    )
    assert write_tower(result.tower) == (
        "# flag tower 1\n"
        "i 0.5 0\ni 0.5 1\ni 0.5 2\ni 0.5 3\n"
        "i 1.0 0 1\ni 1.0 0 3\ni 1.0 1 2\ni 1.0 2 3\n"
        "c 1.5 1 0\nc 1.5 2 0\nc 1.5 3 0\n"
    )
    assert stats_to_csv(result.snapshots) == (
        STATS_CSV_HEADER + "\n"
        "0.5,4,4,0,4,4,0\n"
        "1.0,4,4,1,4,4,1\n"
        "1.5,4,1,3,1,1,0\n"
    )
    assert len(result.filtration) == 11
    assert result.timings.collapse_max >= 0.0
    assert result.timings.assembly >= 0.0
    assert result.timings.reduction > 0.0


def test_uncollapsed_pipeline_matches_oracle():
    D = pairwise_distances(UNIT_SQUARE)
    result = run_pipeline(D, SQUARE_SCHED, collapse=False)
    assert result.diagram.pairs == run_pipeline(D, SQUARE_SCHED).diagram.pairs
    assert len(result.filtration) == 15
    assert len(result.tower) == 10  # 4 points, 4 sides, 2 diagonals
    assert all(s.before == s.after for s in result.snapshots)
    assert result.timings.collapse_max == 0.0


def _first_appearance_arrays(grades, graphs):
    """The oracle's arrays of the nested *graphs* at *grades*: the level
    join of their graded edges, every point at the first grade."""
    zeros = np.zeros(len(graphs[0]), np.intp)
    return persistence._level_join(zeros, *graded_edges(graphs), grades)


def test_first_appearance_cells_of_random_nested_graphs():
    """The oracle grades each clique from the graph sequence alone: on
    nested graphs whose edges arrive in random order at random grade
    indices, and so follow no distances, its cells are the first-appearance
    filtration of the graphs' clique complexes."""
    rng = random.Random(43)
    raised = 0
    for _ in range(150):
        n, count = rng.randint(1, 9), rng.randint(1, 5)
        grades = [g / 4 for g in sorted(rng.sample(range(-5, 50), count))]
        graphs = [[0] * n for _ in range(count)]
        tables = [[[0] * n for _ in range(n)] for _ in range(count)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs:
            for j in range(rng.randint(0, count), count):  # count: never added
                graphs[j][u] |= 1 << v
                graphs[j][v] |= 1 << u
                tables[j][u][v] = tables[j][v][u] = 1
        want = naive_filtration_from_snapshots(
            [dict(enumerate(naive_maximal_cliques(table))) for table in tables], grades
        )
        assert _first_appearance_arrays(grades, graphs).cells() == want
        # cliques graded above every one of their faces
        grade = dict(want)
        raised += sum(len(s) > 2 and g > max(grade[s[1:]], grade[s[:-1]]) for s, g in want)
    assert raised > 100


def _naive_first_appearance(tables, grades):
    """The first-appearance filtration of nested graphs given as adjacency
    tables, by brute force: every clique of the last graph, grown by one
    larger vertex at a time, graded by the first table that holds all its
    edges, in (graph, size, vertices) order."""
    n, last = len(tables[-1]), tables[-1]
    level, cliques = [(v,) for v in range(n)], []
    while level:
        cliques += level
        level = [
            c + (w,) for c in level for w in range(c[-1] + 1, n) if all(last[u][w] for u in c)
        ]
    first = [
        next(j for j, t in enumerate(tables) if all(t[u][v] for u, v in combinations(c, 2)))
        for c in cliques
    ]
    return tuple((c, grades[j]) for j, _, c in sorted(zip(first, map(len, cliques), cliques)))


def test_first_appearance_arrays_of_wide_empty_and_tied_graphs(monkeypatch):
    """The level-by-level build on graphs of 60 to 80 points, whose rows of
    bits cross a 64-bit word, with planted cliques of up to 7 points; on
    sequences whose graphs hold no edge; on grade lists with ties, where
    the cells of a later graph at an equal grade still follow the earlier
    graph's; and on a star, whose pairs of edges make no triangle, and a
    single vertex.  Its pairs are the brute-force first-appearance
    filtration, and each dimension's vertex rows, most of them built from
    the faces when read, are the rows of those pairs, also when each join
    tests at most 3 vertex pairs at once, or one row's partners where a row
    has more."""
    rng = random.Random(44)
    kinds, deepest = set(), 0
    cases = []
    for case in range(60):
        wide, empty = case % 3 == 0, case % 5 == 1
        n = rng.randint(60, 80) if wide else rng.randint(1, 12)
        count = rng.randint(1, 5)
        grades = sorted(rng.choice((0.25, 0.5, 0.75, 1.0)) for _ in range(count))
        tables = [[[0] * n for _ in range(n)] for _ in range(count)]
        pairs = list(combinations(range(n), 2))
        if not empty:
            chosen = set(rng.sample(pairs, min(len(pairs), 2 * n)))
            for _ in range(3):
                chosen.update(combinations(sorted(rng.sample(range(n), min(n, 7))), 2))
            for u, v in chosen:
                for j in range(rng.randint(0, count - 1), count):
                    tables[j][u][v] = tables[j][v][u] = 1
        cases.append((tables, grades, (wide, empty, len(set(grades)) < count)))
    star = [[[int(u != v and 0 in (u, v) and max(u, v) > j) for v in range(9)] for u in range(9)]
            for j in range(3)]
    cases += [(star, [0.25, 0.5, 0.75], "star"), ([[[0]]], [0.5], "single")]
    for tables, grades, kind in cases:
        n = len(tables[0])
        graphs = [[sum(t[u][v] << v for v in range(n)) for u in range(n)] for t in tables]
        want = _naive_first_appearance(tables, grades)
        rows = [
            [list(s) for s, _ in want if len(s) == d + 1] for d in range(max(map(len, dict(want))))
        ]
        for chunk in (persistence._JOIN_CHUNK, 3):
            monkeypatch.setattr(persistence, "_JOIN_CHUNK", chunk)
            arrays = _first_appearance_arrays(grades, graphs)
            assert [v.tolist() for v in arrays.vertices] == rows
            cells = arrays.cells()
            assert cells == want
        kinds.add(kind)
        if n >= 60:
            deepest = max(deepest, max(len(s) for s, _ in cells))
    assert len(kinds) == 10 and deepest >= 7


def test_rows_above_the_edges_are_built_only_when_read(monkeypatch):
    """Neither path builds a vertex row of dimension 2 or more to find its
    diagram: a comparison builds none, and a run none until its tower's
    cells, its filtration or its arrays' vertices are read.  The first such
    read builds each level above the edges once, from its faces, and later
    reads build nothing; the rows built are the rows of the pairs."""
    built = []
    rows_above = persistence._rows_above

    def counted(below, faces):
        built.append(len(faces))
        return rows_above(below, faces)

    monkeypatch.setattr(persistence, "_rows_above", counted)
    D = pairwise_distances(np.random.default_rng(1).random((60, 3)))
    grades = [0.1, 0.2, 0.3, 0.4]
    compare_pipelines(D, grades)
    assert built == []
    reads = (
        lambda result: result.tower.cells,
        lambda result: result.filtration,
        lambda result: result.tower.arrays.vertices,
    )
    for collapse in (True, False):
        for k, first_read in enumerate(reads):
            result = run_pipeline(D, grades, collapse=collapse)
            arrays = result.tower.arrays
            assert len(arrays.faces) > 5 and built == []
            first_read(result)
            assert built == [len(f) for f in arrays.faces[2:]]
            for read in reads[k:] + reads[:k]:
                read(result)
            assert built == [len(f) for f in arrays.faces[2:]]
            cells = result.filtration
            for d, v in enumerate(arrays.vertices):
                assert v.tolist() == [list(s) for s, _ in cells if len(s) == d + 1]
            built.clear()


def test_oracle_cells_hold_no_table_of_vertex_pairs():
    """The array build reads the graphs alone: on 2000 points of a circle,
    each adjacent at grade k to the k nearest on either side, its peak stays
    below n * n * 4 bytes, where a first-grade table of every pair of points
    peaked at 61 MB."""
    n, top = 2000, 4
    graphs = [
        [sum(1 << (v + d) % n for d in range(-k, k + 1) if d) for v in range(n)]
        for k in range(1, top + 1)
    ]
    tracemalloc.start()
    try:
        cells = _first_appearance_arrays(list(range(1, top + 1)), graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) == n * 2**top
    assert peak < n * n * 4


def test_worker_count_never_changes_the_artifacts():
    rng = random.Random(321)
    pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(12)]
    D = pairwise_distances(pts)
    sched = SnapshotSchedule(0.2, 0.2, 1.0)
    base = run_pipeline(D, sched, workers=1)
    for workers in (2, 8):
        other = run_pipeline(D, sched, workers=workers)
        assert other.diagram == base.diagram
        assert other.tower == base.tower
        assert other.filtration == base.filtration
        assert other.snapshots == base.snapshots


def test_collapsing_never_grows_any_snapshot():
    rng = random.Random(654)
    for _ in range(5):
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(3, 12))]
        result = run_pipeline(pairwise_distances(pts), SnapshotSchedule(0.3, 0.3, 1.2))
        for s in result.snapshots:
            assert s.after.n_vertices <= s.before.n_vertices
            assert s.after.n_maximal <= s.before.n_maximal
            assert s.after.dimension <= s.before.dimension


def test_filtration_is_the_conversion_of_the_tower():
    rng = random.Random(135)
    for i in range(12):
        dim = 2 + i % 2
        pts = [[rng.uniform(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 30))]
        D = pairwise_distances(pts)
        grades = [0.1, 0.25, 0.4, 0.6, 2.0]
        # the uncollapsed run stops at 0.4, as in the before-stats test below
        for collapse, upto in ((True, 5), (False, 3)):
            result = run_pipeline(D, grades[:upto], collapse=collapse)
            naive_check_filtration(result.filtration)
            assert result.filtration == naive_flag_tower_filtration(result.tower)


def test_before_stats_are_those_of_the_full_snapshot():
    rng = random.Random(246)
    for i in range(12):
        dim = 2 + i % 2
        pts = [[rng.uniform(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 30))]
        D = pairwise_distances(pts)
        grades = [0.1, 0.25, 0.4, 0.6, 2.0]
        # the uncollapsed run stops at 0.4: its later snapshots are slow to
        # expand or over the cap
        for collapse, upto in ((True, 5), (False, 3)):
            for s in run_pipeline(D, grades[:upto], collapse=collapse).snapshots:
                assert s.before == complex_stats(rips_snapshot(D, s.grade))


def test_compare_pipelines_verdicts():
    D = pairwise_distances(UNIT_SQUARE)
    report = compare_pipelines(D, SQUARE_SCHED)
    assert report.equal
    assert [v.dim for v in report.verdicts] == [0, 1]
    assert all(v.bottleneck == 0.0 for v in report.verdicts)


def test_verdict_bottleneck_is_the_distance_of_the_dimension(monkeypatch):
    """Equal dimensions report 0.0 without a matching; it must be the exact
    bottleneck distance there too, and on unequal dimensions."""
    rng = random.Random(988)
    run = pipeline._oracle_diagram

    def perturbed(*args):
        pairs = list(run(*args).pairs)
        kind = rng.randrange(4)
        if kind == 1 and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        elif kind == 2:
            pairs.append((rng.randrange(3), 0.25, 0.25 + rng.choice([0.25, 0.5])))
        elif kind == 3:
            pairs.append((1, 0.5, math.inf))
        return PersistenceDiagram.from_pairs(pairs)

    monkeypatch.setattr(pipeline, "_oracle_diagram", perturbed)
    seen = set()
    for _ in range(30):
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(2, 10))]
        report = compare_pipelines(pairwise_distances(pts), SnapshotSchedule(0.25, 0.25, 1.0))
        for v in report.verdicts:
            want = bottleneck_distance(report.collapsed, report.uncollapsed, v.dim)
            assert v.bottleneck == want
            seen.add((v.equal, math.isinf(want)))
    assert seen == {(True, False), (False, False), (False, True)}


def test_compare_pipelines_random_clouds():
    rng = random.Random(987)
    for _ in range(6):
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(2, 10))]
        report = compare_pipelines(pairwise_distances(pts), SnapshotSchedule(0.25, 0.25, 1.0))
        assert report.equal


def test_compare_builds_one_graph_sequence(monkeypatch):
    """``compare_pipelines`` builds the snapshot graphs and grades their
    edges once for both paths, and reports what two ``run_pipeline`` calls
    find."""
    calls = []
    build = pipeline._graded_graphs

    def counted(D, grades):
        calls.append(1)
        return build(D, grades)

    monkeypatch.setattr(pipeline, "_graded_graphs", counted)
    rng = random.Random(989)
    for _ in range(6):
        D = pairwise_distances([(rng.random(), rng.random()) for _ in range(rng.randint(2, 30))])
        grades = iter([0.1, 0.2, 0.3, 0.4])  # read once
        calls.clear()
        report = compare_pipelines(D, grades)
        assert calls == [1]
        a = run_pipeline(D, [0.1, 0.2, 0.3, 0.4]).diagram
        b = run_pipeline(D, [0.1, 0.2, 0.3, 0.4], collapse=False).diagram
        verdicts = tuple(
            DimensionVerdict(
                k, a.in_dimension(k) == b.in_dimension(k), bottleneck_distance(a, b, k)
            )
            for k in sorted(set(a.dimensions()) | set(b.dimensions()))
        )
        assert report == CompareReport(a, b, verdicts)


def test_zero_pair_flag_passes_through():
    D = pairwise_distances([(0.0, 0.0), (1.0, 0.0)])
    assert run_pipeline(D, [1.0]).diagram.pairs == ((0, 1.0, math.inf),)
    flat = run_pipeline(D, [1.0], collapse=False)
    flat_pairs = compute_persistence(flat.filtration, include_zero_pairs=True).pairs
    assert flat_pairs == ((0, 1.0, 1.0), (0, 1.0, math.inf))
    # the coning cells of the collapsed square all land on the diagonal
    plain = run_pipeline(pairwise_distances(UNIT_SQUARE), SQUARE_SCHED)
    full = compute_persistence(plain.filtration, include_zero_pairs=True)
    assert any(b == d for _, b, d in full.pairs)
    assert tuple(p for p in full.pairs if p[1] < p[2]) == plain.diagram.pairs


def test_cap_propagates_to_expansion():
    D = pairwise_distances([(float(i), 0.0) for i in range(12)])
    with pytest.raises(ExpansionCapError):
        run_pipeline(D, [20.0], collapse=False, cap=1000)
    # the collapsed path shrinks the complex to one vertex first
    small = run_pipeline(D, [20.0], collapse=True, cap=1000)
    assert len(small.filtration) == 1
    assert DEFAULT_EXPANSION_CAP > 1000
    for collapse in (True, False):
        with pytest.raises(ValueError, match="at least 1"):
            run_pipeline(D, [20.0], collapse=collapse, cap=0)


def _projected(adj):
    """The projected cell count that the expansion cap tests, of the
    maximal cliques of the graph *adj*."""
    return check_expansion_cap(maximal_cliques(adj), 1 << 64)


def _induced(adj, keep):
    """The subgraph of *adj* induced on the vertices *keep*, renumbered."""
    return [sum(1 << i for i, x in enumerate(keep) if adj[w] >> x & 1) for w in keep]


def test_an_added_edge_raises_the_projected_count_and_a_subgraph_never_does():
    """The oracle checks its cap on its last snapshot alone: the projected
    count grows strictly with each edge added, so the last of nested graphs
    bounds the others, and an induced subgraph (a core is one) never counts
    more than its graph."""
    rng = random.Random(38)
    added = 0
    for _ in range(80):
        n = rng.randint(1, 12)
        adj = [0] * n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        before = _projected(adj)
        assert before == n
        for u, v in pairs[: rng.randint(0, len(pairs))]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            after = _projected(adj)
            assert after > before, (adj, u, v)
            before = after
            added += 1
            for _ in range(3):
                keep = [w for w in range(n) if rng.random() < 0.7]
                assert _projected(_induced(adj, keep)) <= after, (adj, keep)
            for w in range(n):
                assert _projected(_induced(adj, [x for x in range(n) if x != w])) <= after
    assert added > 800


def test_cap_refusals_keep_their_order(monkeypatch):
    """At a cap just below and at each core's and each snapshot's projected
    count, and at that of the tower's graph T, a collapsed run refuses at
    the first core over the cap, in grade order, before the tower's level
    join; a comparison refuses there too, and then at the first snapshot
    over the cap; an uncollapsed run at the first snapshot over it.  Where
    none is over, the run passes, also where T is over the cap and the
    cores are scanned."""
    join = tower._level_join
    joined = []

    def counted_join(*args):
        joined.append(1)
        return join(*args)

    monkeypatch.setattr(tower, "_level_join", counted_join)
    rng = random.Random(39)
    refused = scanned = 0
    for _ in range(8):
        D = pairwise_distances([(rng.random(), rng.random()) for _ in range(rng.randint(6, 18))])
        grades = sorted(rng.sample([0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4], rng.randint(1, 4)))
        graphs = graded_bitsets(D, grades)
        snapshots = [_projected(adj) for adj in graphs]
        cores = [check_expansion_cap(flag_core(adj).cliques, 1 << 64) for adj in graphs]
        whole = _projected(tower_graph(run_pipeline(D, grades, cap=1 << 64).tower))
        for cap in sorted({p + d for p in cores + snapshots + [whole] for d in (-1, 0)} - {0}):
            for collapsed, run, counts in (
                (True, lambda: run_pipeline(D, grades, cap=cap), cores),
                (False, lambda: compare_pipelines(D, grades, cap=cap), cores + snapshots),
                (False, lambda: run_pipeline(D, grades, collapse=False, cap=cap), snapshots),
            ):
                over = [p for p in counts if p > cap]
                joined.clear()
                if not over:
                    run()
                    scanned += collapsed and whole > cap
                    continue
                with pytest.raises(ExpansionCapError) as caught:
                    run()
                want = ExpansionCapError(over[0], cap)
                assert (caught.value.projected, caught.value.cap, str(caught.value)) == (
                    want.projected,
                    want.cap,
                    str(want),
                )
                assert caught.value.__context__ is None
                if collapsed:
                    assert joined == []
                refused += 1
    assert refused > 150 and scanned > 20


def test_no_core_projects_more_than_the_tower_graph():
    """The collapsed run checks its cap on the tower's graph T alone: each
    core's projected count is at most T's, read off the tower's vertex and
    edge cells, on seeded random clouds (the workloads' default clouds are
    checked in ``test_workload_towers``)."""
    rng = random.Random(41)
    for _ in range(40):
        n, dim = rng.randint(2, 40), rng.randint(1, 3)
        D = pairwise_distances([[rng.random() for _ in range(dim)] for _ in range(n)])
        grades = sorted(rng.sample([0.1 * k for k in range(1, 11)], rng.randint(1, 6)))
        whole = _projected(tower_graph(run_pipeline(D, grades).tower))
        for adj in graded_bitsets(D, grades):
            assert check_expansion_cap(flag_core(adj).cliques, 1 << 64) <= whole


def test_bad_cap_fails_before_any_snapshot(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("_flag_collapse", "_core_cliques", "maximal_cliques"):
        monkeypatch.setattr(pipeline, name, counted(getattr(pipeline, name)))
    rng = random.Random(30)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(30)])
    grades = [0.1, 0.2, 0.3, 0.4]
    runs = [
        lambda cap: run_pipeline(D, grades, cap=cap),
        lambda cap: run_pipeline(D, grades, collapse=False, cap=cap),
        lambda cap: compare_pipelines(D, grades, cap=cap),
    ]
    for run in runs:
        for cap in (0, -5):
            with pytest.raises(ValueError, match="at least 1"):
                run(cap)
        assert calls == []
    # the wrappers do count: a valid cap reaches every stage.  The collapsed
    # run collapses each snapshot and enumerates its tower's graph; reading
    # the before stats enumerates each snapshot, and no core is enumerated
    snapshots = run_pipeline(D, grades).snapshots
    for s in snapshots:
        s.before
    assert calls.count("_flag_collapse") == 4 and calls.count("maximal_cliques") == 5
    assert calls.count("_core_cliques") == 0
    # the oracle's cap check enumerates its last snapshot alone
    run_pipeline(D, grades, collapse=False)
    assert calls.count("maximal_cliques") == 6
    compare_pipelines(D, grades)
    assert calls.count("_flag_collapse") == 8 and calls.count("maximal_cliques") == 8
    assert calls.count("_core_cliques") == 0
    # each core is enumerated on its first after read
    for s in snapshots:
        s.after
    assert calls.count("_core_cliques") == 4 and len(calls) == 20


def _refusal(run):
    """``(held, limit, unit, message)`` of the memory error *run* raises, or None."""
    try:
        run()
    except ReductionMemoryError as exc:
        return exc.held, exc.limit, exc.unit, str(exc)
    return None


def test_uncollapsed_run_is_refused_before_any_cell_is_built(monkeypatch):
    """With the cell budget lowered, ``run_pipeline(collapse=False)`` raises
    the error ``compute_persistence`` raises on its full filtration, and a
    refused run builds no cell.  The last snapshot's projected count is
    checked first, and the cliques are counted only when it passes the
    budget."""
    rng = random.Random(5)
    D = pairwise_distances([(rng.random(), rng.random(), rng.random()) for _ in range(12)])
    grades = [0.3, 0.5, 0.7, 0.9]
    cells = run_pipeline(D, grades, collapse=False).filtration
    last = graded_bitsets(D, grades)[-1]
    assert pipeline._clique_count(last) == len(cells) == naive_clique_count(
        (D <= grades[-1]).astype(int)
    )
    projected = sum(2 ** len(c) - 1 for c in maximal_cliques(last))
    assert projected > len(cells) + 1
    build, count = pipeline._level_join, pipeline._clique_count
    built, counted = [], []

    def counted_build(*args):
        built.append(1)
        return build(*args)

    def counted_count(adj):
        counted.append(1)
        return count(adj)

    monkeypatch.setattr(pipeline, "_level_join", counted_build)
    monkeypatch.setattr(pipeline, "_clique_count", counted_count)
    refused = 0
    n = len(cells)
    for limit in sorted({0, n // 2, n - 1, n, n + 1, projected - 1, projected}):
        monkeypatch.setattr(persistence, "_MAX_CELLS", limit)
        built.clear()
        counted.clear()
        want = _refusal(lambda: compute_persistence(cells))
        assert (want is not None) == (n > limit)
        assert _refusal(lambda: run_pipeline(D, grades, collapse=False)) == want
        assert built == ([] if want else [1])
        assert counted == ([1] if projected > limit else [])
        refused += want is not None
    assert refused == 3


def test_clique_count_counts_every_clique():
    """The budget check's count, which adds a clique of candidates at once,
    agrees with a scan of every vertex subset, on graphs from empty to
    complete and on cliques joined at a vertex."""
    rng = random.Random(40)
    graphs = []
    for _ in range(150):
        n, density = rng.randint(0, 10), rng.random()
        table = [[0] * n for _ in range(n)]
        for u, v in combinations(range(n), 2):
            table[u][v] = table[v][u] = int(rng.random() < density)
        graphs.append(table)
    for k in range(1, 7):  # two k-cliques that share vertex k - 1
        n = 2 * k - 1
        graphs.append(
            [
                [int(u != v and (max(u, v) < k or min(u, v) >= k - 1)) for v in range(n)]
                for u in range(n)
            ]
        )
    for table in graphs:
        adj = [sum(1 << v for v, e in enumerate(row) if e) for row in table]
        assert pipeline._clique_count(adj) == naive_clique_count(table), table


def _count_full_snapshot_cliques(monkeypatch):
    """A list that grows by one on each pipeline-level ``maximal_cliques``
    call, that is once per full snapshot and per tower graph enumerated;
    the cores' cliques go through ``rips.maximal_cliques`` and are not
    counted."""
    calls = []
    enumerate_cliques = pipeline.maximal_cliques

    def counted(adj):
        calls.append(len(adj))
        return enumerate_cliques(adj)

    monkeypatch.setattr(pipeline, "maximal_cliques", counted)
    return calls


def test_full_snapshot_cliques_are_enumerated_once_and_only_when_read(monkeypatch):
    calls = _count_full_snapshot_cliques(monkeypatch)
    rng = random.Random(31)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(30)])
    grades = [0.1, 0.2, 0.3, 0.4]
    result = run_pipeline(D, grades)
    # the cap check's census of the tower's graph is the run's one enumeration
    whole = len(tower_graph(result.tower))
    assert calls == [whole]
    first = [s.before for s in result.snapshots]
    assert calls == [whole] + [len(D)] * len(grades)
    assert [s.before for s in result.snapshots] == first
    assert len(calls) == 1 + len(grades)
    assert first == [complex_stats(rips_snapshot(D, g)) for g in grades]
    # the oracle's cap check, on the last snapshot, is the only other
    # enumeration in a comparison
    calls.clear()
    compare_pipelines(D, grades)
    assert calls == [whole, len(D)]
    # an uncollapsed run counts each earlier snapshot on its first read
    calls.clear()
    snapshots = run_pipeline(D, grades, collapse=False).snapshots
    assert calls == [len(D)]
    assert [s.after for s in snapshots] == first
    assert len(calls) == len(grades)
    assert [s.before for s in snapshots] == first
    assert len(calls) == len(grades)


def _core_stats(core):
    """The stats of the ``flag_core`` result *core*, counted by the oracle."""
    return complex_stats(dict(enumerate(core.cliques)))


def test_a_collapsed_run_enumerates_its_cores_only_when_read(monkeypatch):
    """Counting every Bron-Kerbosch run: a collapsed run enumerates one
    graph, its tower's, until its stats are read, and then each core once,
    on its first ``after`` read.  At a cap below the tower graph's count
    but at or above every core's, the cap check enumerates each core once,
    and the ``after`` stats reuse those counts."""
    rng = random.Random(34)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(30)])
    grades = [0.1, 0.2, 0.3, 0.4]
    cores = [flag_core(adj) for adj in graded_bitsets(D, grades)]
    want = [_core_stats(c) for c in cores]
    sizes = [len(c.survivors) for c in cores]
    whole = tower_graph(run_pipeline(D, grades).tower)
    calls = []
    enumerate_cliques = rips.maximal_cliques

    def counted(adj):
        calls.append(len(adj))
        return enumerate_cliques(adj)

    monkeypatch.setattr(pipeline, "maximal_cliques", counted)
    monkeypatch.setattr(rips, "maximal_cliques", counted)
    snapshots = run_pipeline(D, grades).snapshots
    assert calls == [len(whole)]
    assert [s.after for s in snapshots] == want
    assert calls == [len(whole)] + sizes
    assert [s.after for s in snapshots] == want
    assert [s.before for s in snapshots] == [complex_stats(rips_snapshot(D, g)) for g in grades]
    assert calls == [len(whole)] + sizes + [len(D)] * len(grades)
    # the cap check's scan of the cores counts them once for the stats too
    cap = _projected(whole) - 1
    assert max(check_expansion_cap(c.cliques, 1 << 64) for c in cores) <= cap
    calls.clear()
    snapshots = run_pipeline(D, grades, cap=cap).snapshots
    assert [s.after for s in snapshots] == want
    assert calls == [len(whole)] + sizes


def test_each_path_indexes_its_own_filtration_once(monkeypatch):
    """Neither path runs ``from_filtration``: each ``run_pipeline`` call
    indexes its own tower's arrays (no copy) once through the array entry,
    and those arrays hold the run's filtration.  ``compare_pipelines``
    indexes each path's filtration once."""
    calls, arrays = [], []
    index = BoundaryMatrix.from_filtration.__func__
    entry = persistence._arrays_indexed

    def counted(cls, filtration):
        calls.append(filtration)
        return index(cls, filtration)

    def counted_arrays(given):
        arrays.append(given)
        return entry(given)

    monkeypatch.setattr(BoundaryMatrix, "from_filtration", classmethod(counted))
    monkeypatch.setattr(persistence, "_arrays_indexed", counted_arrays)
    rng = random.Random(33)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(30)])
    grades = [0.1, 0.2, 0.3, 0.4]
    collapsed = run_pipeline(D, grades)
    assert calls == [] and len(arrays) == 1 and arrays[0] is collapsed.tower.arrays
    assert arrays[0].cells() == collapsed.filtration
    arrays.clear()
    oracle = run_pipeline(D, grades, collapse=False)
    assert calls == [] and len(arrays) == 1 and arrays[0] is oracle.tower.arrays
    assert arrays[0].cells() == oracle.filtration
    assert collapsed.filtration != oracle.filtration
    arrays.clear()
    compare_pipelines(D, grades)
    assert calls == [] and len(arrays) == 2
    assert [a.cells() for a in arrays] == [collapsed.filtration, oracle.filtration]


def test_lazy_before_stats_behave_as_values(monkeypatch):
    rng = random.Random(32)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(40)])
    grades = [0.2, 0.4, 0.6]
    cores = [flag_core(adj) for adj in graded_bitsets(D, grades)]
    eager = tuple(
        SnapshotStats(g, complex_stats(rips_snapshot(D, g)), _core_stats(c))
        for g, c in zip(grades, cores)
    )
    lazy = run_pipeline(D, grades).snapshots
    assert [repr(s) for s in lazy] == [repr(s) for s in eager]
    lazy = run_pipeline(D, grades).snapshots
    assert lazy == eager and list(map(hash, lazy)) == list(map(hash, eager))
    lazy = run_pipeline(D, grades).snapshots
    assert list(map(hash, lazy)) == list(map(hash, eager)) and lazy == eager
    # each stat read first, alone, on a fresh run
    assert [s.after for s in run_pipeline(D, grades).snapshots] == [s.after for s in eager]
    assert [s.before for s in run_pipeline(D, grades).snapshots] == [s.before for s in eager]
    # a fresh run, so that the CSV writer is the first reader
    assert stats_to_csv(run_pipeline(D, grades).snapshots) == stats_to_csv(eager)
    # the uncollapsed run's stats are lazy too, and its after is its before
    flat = run_pipeline(D, grades, collapse=False).snapshots
    unchanged = tuple(SnapshotStats(s.grade, s.before, s.before) for s in eager)
    assert [repr(s) for s in flat] == [repr(s) for s in unchanged]
    assert flat == unchanged and list(map(hash, flat)) == list(map(hash, unchanged))
    assert all(s.before == s.after for s in flat)
    flat = run_pipeline(D, grades, collapse=False).snapshots
    assert stats_to_csv(flat) == stats_to_csv(unchanged)

    # threads that read one snapshot's stats at once, half of them after
    # first, get one value of each, and each is counted once
    calls = _count_full_snapshot_cliques(monkeypatch)
    counted_cores = []
    core_cliques = pipeline._core_cliques

    def counted_core(adj, survivors):
        counted_cores.append(1)
        return core_cliques(adj, survivors)

    monkeypatch.setattr(pipeline, "_core_cliques", counted_core)
    snapshot = run_pipeline(D, grades[-1:]).snapshots[0]
    calls.clear()
    readers = 8
    barrier = threading.Barrier(readers)
    seen = []

    def read(k):
        barrier.wait(timeout=10)
        if k % 2:
            after = snapshot.after
            seen.append((snapshot.before, after))
        else:
            seen.append((snapshot.before, snapshot.after))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [(eager[-1].before, eager[-1].after)] * readers
    assert len(calls) == 1 and len(counted_cores) == 1


def test_workers_validation():
    with pytest.raises(ValueError):
        run_pipeline(pairwise_distances(UNIT_SQUARE), [1.0], workers=0)


def test_worker_pool_is_bounded_by_grades_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in the calling thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    D = pairwise_distances(UNIT_SQUARE)
    serial = run_pipeline(D, SQUARE_SCHED)
    # three grades; no CPU count reported means one worker
    for cpus, want in ((64, [3]), (2, [2]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        result = run_pipeline(D, SQUARE_SCHED, workers=10**6)
        assert sizes == want
        assert (result.diagram, result.tower, result.snapshots) == (
            serial.diagram,
            serial.tower,
            serial.snapshots,
        )


def test_every_public_name_resolves_once():
    names = ripscollapse.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ripscollapse, name), name
