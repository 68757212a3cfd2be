"""The end-to-end pipeline: frozen artifacts, determinism, oracle parity."""

import math
import os
import random

import pytest
from oracles import naive_check_filtration, naive_tower_to_filtration

import ripscollapse
from ripscollapse import pipeline
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP
from ripscollapse.errors import ExpansionCapError
from ripscollapse.io_formats import write_diagram, write_tower
from ripscollapse.persistence import PersistenceDiagram, bottleneck_distance, compute_persistence
from ripscollapse.pipeline import (
    STATS_CSV_HEADER,
    compare_pipelines,
    oracle_pipeline,
    run_pipeline,
    stats_to_csv,
)
from ripscollapse.rips import SnapshotSchedule, pairwise_distances, rips_snapshot

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
    assert result.diagram.pairs == oracle_pipeline(D, SQUARE_SCHED).pairs
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
            naive_check_filtration(result.filtration.cells)
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
                assert s.before == rips_snapshot(D, s.grade).stats()


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
    oracle = pipeline.oracle_pipeline

    def perturbed(D, sched, cap):
        pairs = list(oracle(D, sched, cap).pairs)
        kind = rng.randrange(4)
        if kind == 1 and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        elif kind == 2:
            pairs.append((rng.randrange(3), 0.25, 0.25 + rng.choice([0.25, 0.5])))
        elif kind == 3:
            pairs.append((1, 0.5, math.inf))
        return PersistenceDiagram.from_pairs(pairs)

    monkeypatch.setattr(pipeline, "oracle_pipeline", perturbed)
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
