"""The end-to-end pipeline: frozen artifacts, determinism, oracle parity."""

import dataclasses
import math
import os
import random
import sys
import threading
from collections import Counter

import pytest
from oracles import complex_stats, naive_check_filtration, naive_tower_to_filtration, rips_snapshot

import ripscollapse
from ripscollapse import persistence, pipeline
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP
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
    SnapshotStats,
    compare_pipelines,
    run_pipeline,
    stats_to_csv,
)
from ripscollapse.rips import SnapshotSchedule, pairwise_distances

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_SCHED = SnapshotSchedule(0.5, 0.5, 1.5)


def test_unit_square_artifacts():
    D = pairwise_distances(UNIT_SQUARE)
    result = run_pipeline(D, SQUARE_SCHED)
    assert write_diagram(result.diagram) == (
        "0 0.5 1.0\n0 0.5 1.0\n0 0.5 1.0\n0 0.5 inf\n1 1.0 1.5\n"
    )
    assert write_tower(result.tower) == (
        "# tower 1\n"
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
    assert len(result.tower) == 15
    assert all(s.before == s.after for s in result.snapshots)
    assert result.timings.collapse_max == 0.0


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
            assert result.filtration == naive_tower_to_filtration(result.tower)


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
    run = pipeline.run_pipeline

    def perturbed(D, sched, *, collapse=True, **kwargs):
        result = run(D, sched, collapse=collapse, **kwargs)
        if collapse:
            return result
        pairs = list(result.diagram.pairs)
        kind = rng.randrange(4)
        if kind == 1 and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        elif kind == 2:
            pairs.append((rng.randrange(3), 0.25, 0.25 + rng.choice([0.25, 0.5])))
        elif kind == 3:
            pairs.append((1, 0.5, math.inf))
        return dataclasses.replace(result, diagram=PersistenceDiagram.from_pairs(pairs))

    monkeypatch.setattr(pipeline, "run_pipeline", perturbed)
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


def test_bad_cap_fails_before_any_snapshot(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("flag_core", "maximal_cliques"):
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
    # the wrappers do count: a valid cap reaches both stages
    for s in run_pipeline(D, grades).snapshots:
        s.before
    assert calls.count("flag_core") == 4 and calls.count("maximal_cliques") == 4
    run_pipeline(D, grades, collapse=False)
    assert calls.count("maximal_cliques") == 8


def _refusal(run):
    """``(dim, bytes, message)`` of the memory error *run* raises, or None."""
    try:
        run()
    except ReductionMemoryError as exc:
        return exc.dim, exc.block_bytes, str(exc)
    return None


def test_uncollapsed_run_is_refused_before_any_cell_is_built(monkeypatch):
    """With the memory guard lowered, ``run_pipeline(collapse=False)`` raises
    the error ``compute_persistence`` raises on its full filtration, and
    builds no cell when the cell counts alone show a block must pass it."""
    rng = random.Random(5)
    D = pairwise_distances([(rng.random(), rng.random(), rng.random()) for _ in range(12)])
    grades = [0.3, 0.5, 0.7, 0.9]
    cells = run_pipeline(D, grades, collapse=False).filtration
    n = Counter(len(s) for s, _ in cells)
    n = [n[k] for k in range(1, max(n) + 2)]  # cells per dimension, then 0
    assert len(n) > 6
    lower = [max(0, n[p] - n[p + 1]) * ((n[p - 1] + 63) // 64) * 8 for p in range(1, len(n) - 1)]
    dense = [n[p] * ((n[p - 1] + 63) // 64) * 8 for p in range(1, len(n) - 1)]
    build = pipeline._first_appearance_cells
    built = []

    def counted(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(pipeline, "_first_appearance_cells", counted)
    early = 0
    for limit in sorted({b + d for b in lower + dense for d in (-1, 0)} | {0}):
        monkeypatch.setattr(persistence, "_MAX_BLOCK_BYTES", limit)
        built.clear()
        want = _refusal(lambda: compute_persistence(cells))
        assert _refusal(lambda: run_pipeline(D, grades, collapse=False)) == want
        if limit < max(lower):
            assert want is not None and built == []
            early += 1
        else:
            assert built == [1]
    assert early > 6


def _count_full_snapshot_cliques(monkeypatch):
    """A list that grows by one on each pipeline-level ``maximal_cliques``
    call, that is once per full snapshot enumerated; ``flag_core`` reaches
    ``rips.maximal_cliques`` for its cores and is not counted."""
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
    snapshots = run_pipeline(D, grades).snapshots
    assert calls == []
    first = [s.before for s in snapshots]
    assert len(calls) == len(grades)
    assert [s.before for s in snapshots] == first
    assert len(calls) == len(grades)
    assert first == [complex_stats(rips_snapshot(D, g)) for g in grades]
    # the oracle's cap check is the only enumeration left in a comparison
    calls.clear()
    compare_pipelines(D, grades)
    assert len(calls) == len(grades)


def test_collapsed_path_reduces_the_index_built_at_assembly(monkeypatch):
    """The collapsed path indexes its cells for the reduction as the tower
    emits them, so ``from_filtration`` indexes only the oracle's filtration
    in a comparison."""
    calls = []
    index = BoundaryMatrix.from_filtration.__func__

    def counted(cls, filtration):
        calls.append(cls)
        return index(cls, filtration)

    monkeypatch.setattr(BoundaryMatrix, "from_filtration", classmethod(counted))
    rng = random.Random(33)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(30)])
    grades = [0.1, 0.2, 0.3, 0.4]
    result = run_pipeline(D, grades)
    assert calls == []
    assert result.diagram == compute_persistence(result.filtration)
    assert len(calls) == 1
    calls.clear()
    compare_pipelines(D, grades)
    assert len(calls) == 1


def test_lazy_before_stats_behave_as_values(monkeypatch):
    rng = random.Random(32)
    D = pairwise_distances([(rng.random(), rng.random()) for _ in range(40)])
    grades = [0.2, 0.4, 0.6]
    lazy = run_pipeline(D, grades).snapshots
    eager = tuple(
        SnapshotStats(s.grade, complex_stats(rips_snapshot(D, s.grade)), s.after) for s in lazy
    )
    assert [repr(s) for s in lazy] == [repr(s) for s in eager]
    assert lazy == eager and list(map(hash, lazy)) == list(map(hash, eager))
    # a fresh run, so that the CSV writer is the first reader
    assert stats_to_csv(run_pipeline(D, grades).snapshots) == stats_to_csv(eager)

    # threads that read one snapshot's before at once get one value, counted once
    calls = _count_full_snapshot_cliques(monkeypatch)
    snapshot = run_pipeline(D, grades[-1:]).snapshots[0]
    readers = 8
    barrier = threading.Barrier(readers)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(snapshot.before)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [eager[-1].before] * readers
    assert len(calls) == 1


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

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", SerialPool)
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
