"""Acceptance gate: the nine shipping criteria, one test per criterion.

Every test prints one `criterion N: PASS|FAIL - summary` line directly to
the terminal (bypassing capture), then asserts, so a plain ``pytest -v`` run
shows one verdict line per criterion.
"""

import math
import random
import time

from oracles import (
    betti_by_rank,
    exact_rips_filtration,
    expand_by_powerset,
    maximal_simplices,
    naive_is_face,
    naive_persistence,
    nerve_step,
    random_maximal_simplices,
    rips_snapshot,
)
from ripscollapse.cli import EXIT_OK, main
from ripscollapse.collapse import core
from ripscollapse.complexes import maximal_columns
from ripscollapse.persistence import PersistenceDiagram, bottleneck_distance
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import SnapshotSchedule, pairwise_distances

TABLE_COLUMNS = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]

#: snapshot statistics of every pipeline run in criteria 2-3, re-checked for
#: size monotonicity by criterion 7
_PIPELINE_STATS = []

_CORPUS = None


def _verdict(capsys, n, ok, summary):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {n}: {summary}"


def _corpus():
    """120 seeded random complexes (<= 12 vertices) with their collapses."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20250814)
        _CORPUS = []
        for _ in range(120):
            gen = random_maximal_simplices(
                rng, rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 6)
            )
            m = maximal_columns(gen)
            _CORPUS.append((m, core(m)))
    return _CORPUS


def test_criterion_1_worked_example_exactness(capsys):
    m = maximal_columns(TABLE_COLUMNS)
    expected_core = {1: (1, 4), 2: (1, 3), 3: (3, 4)}
    expected_nerve = {1: (0, 1, 2), 3: (2, 3), 4: (1, 3, 4)}
    exact = core(m).columns == expected_core and nerve_step(m) == expected_nerve
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        core(m)
        best = min(best, time.perf_counter() - t0)
    _verdict(
        capsys,
        1,
        exact and best < 1e-3,
        f"six-simplex worked example collapses exactly, {best * 1e6:.0f}us",
    )


def test_criterion_2_collapsed_pipeline_equals_uncollapsed(capsys):
    t0 = time.perf_counter()
    trials = 0
    mismatches = 0
    snapshot_counts = (5, 12, 20, 30, 40)
    for n in (10, 15, 20, 25, 30):
        for seed in range(5):
            rng = random.Random(1000 * n + seed)
            pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
            D = pairwise_distances(pts)
            count = snapshot_counts[trials % len(snapshot_counts)]
            sched = SnapshotSchedule(0.1, 0.7 / (count - 1), 0.8)
            result = run_pipeline(D, sched)
            _PIPELINE_STATS.extend(result.snapshots)
            if result.diagram.pairs != run_pipeline(D, sched, collapse=False).diagram.pairs:
                mismatches += 1
            trials += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        2,
        trials >= 20 and mismatches == 0 and elapsed < 120,
        f"{trials} clouds, {mismatches} diagram mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_snapshot_grid_is_an_epsilon_approximation(capsys):
    t0 = time.perf_counter()
    eps = 0.125
    worst = 0.0
    within = True
    for n in range(4, 13):
        rng = random.Random(300 + n)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        D = pairwise_distances(pts)
        end = eps * max(1, math.ceil(float(D.max()) / eps))
        result = run_pipeline(D, SnapshotSchedule(eps, eps, end))
        _PIPELINE_STATS.extend(result.snapshots)
        exact_pd = PersistenceDiagram.from_pairs(
            naive_persistence(exact_rips_filtration(D.tolist()))
        )
        dims = set(result.diagram.dimensions()) | set(exact_pd.dimensions())
        for dim in sorted(dims):
            dist = bottleneck_distance(result.diagram, exact_pd, dim)
            worst = max(worst, dist)
            if not dist <= eps:
                within = False
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        3,
        within and elapsed < 60,
        f"max bottleneck {worst!r} <= step {eps}, {elapsed:.1f}s",
    )


def test_criterion_4_collapse_preserves_betti_numbers(capsys):
    t0 = time.perf_counter()
    bad = 0
    for m, res in _corpus():
        before = list(betti_by_rank(expand_by_powerset(maximal_simplices(m))))
        after = list(betti_by_rank(expand_by_powerset(maximal_simplices(res.columns))))
        after += [0] * (len(before) - len(after))
        if before != after:
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        4,
        bad == 0 and elapsed < 30,
        f"{len(_corpus())} complexes, {bad} Betti changes, {elapsed:.1f}s",
    )


def test_criterion_5_every_collapse_step_is_contiguous_to_the_identity(capsys):
    # Each removal of a vertex u in favour of w is checked at its own moment:
    # every maximal simplex containing u must also contain w, so sigma and
    # its one-step image span a common simplex.  (The fully composed
    # retraction is a chain of such steps; the one-step property itself does
    # not survive composition.)
    bad = 0
    for m, res in _corpus():
        cols = {cid: set(s) for cid, s in m.items()}
        for kind, removed, by in res.trace.events:
            if kind == "row":
                for members in cols.values():
                    if removed in members:
                        if by not in members:
                            bad += 1
                        members.discard(removed)
            else:
                if not cols[removed] <= cols[by]:
                    bad += 1
                del cols[removed]
        for s in m.values():
            image = {res.retraction[v] for v in s}
            if not naive_is_face(res.columns.values(), image):
                bad += 1
    _verdict(
        capsys,
        5,
        bad == 0,
        f"{len(_corpus())} complexes, {bad} non-contiguous steps",
    )


def test_criterion_6_core_is_idempotent_and_minimal(capsys):
    bad = 0
    for _, res in _corpus():
        c = res.columns
        again = core(c)
        if again.columns != c or again.trace.events != ():
            bad += 1
        if nerve_step(nerve_step(c)) != c:
            bad += 1
    _verdict(capsys, 6, bad == 0, f"{len(_corpus())} cores, {bad} violations")


def test_criterion_7_collapse_never_grows_a_snapshot(capsys):
    grown = sum(
        1
        for s in _PIPELINE_STATS
        if s.after.n_maximal > s.before.n_maximal
        or s.after.dimension > s.before.dimension
    )
    _verdict(
        capsys,
        7,
        len(_PIPELINE_STATS) > 0 and grown == 0,
        f"{len(_PIPELINE_STATS)} snapshots from criteria 2-3, {grown} grew",
    )


def test_criterion_8_worker_count_never_changes_output_bytes(capsys, tmp_path):
    rng = random.Random(88)
    src = tmp_path / "cloud.txt"
    src.write_text(
        "".join(f"{rng.uniform(0, 2)!r} {rng.uniform(0, 2)!r}\n" for _ in range(25))
    )
    blobs = []
    ok = True
    for w in ("1", "2", "8"):
        pd = tmp_path / f"pd{w}.txt"
        tower = tmp_path / f"tower{w}.txt"
        stats = tmp_path / f"stats{w}.csv"
        rc = main(
            [
                "pipeline",
                "--input", str(src),
                "--start", "0.1",
                "--step", "0.05",
                "--end", "0.9",
                "--workers", w,
                "--out-pd", str(pd),
                "--out-tower", str(tower),
                "--out-stats", str(stats),
            ]
        )
        ok = ok and rc == EXIT_OK
        blobs.append((pd.read_bytes(), tower.read_bytes(), stats.read_bytes()))
    ok = ok and blobs[0] == blobs[1] == blobs[2]
    _verdict(capsys, 8, ok, "workers 1, 2, 8 wrote byte-identical pd/tower/stats")


def test_criterion_9_circle_pipeline_at_scale(capsys):
    t0 = time.perf_counter()
    rng = random.Random(99)
    pts = []
    for _ in range(100):
        a = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((math.cos(a), math.sin(a)))
    D = pairwise_distances(pts)
    sched = SnapshotSchedule(0.1, 0.005, 0.5)
    result = run_pipeline(D, sched)
    long_h1 = [
        (b, d) for b, d in result.diagram.in_dimension(1) if d - b > 0.2
    ]
    collapsed_cells = len(result.filtration)
    last = rips_snapshot(D, sched.grades()[-1])
    uncollapsed_cells = len(expand_by_powerset(maximal_simplices(last)))
    ratio = uncollapsed_cells / collapsed_cells
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        9,
        len(long_h1) == 1 and ratio >= 10 and elapsed < 300,
        f"{len(long_h1)} long H1 bar, cells {collapsed_cells} vs "
        f"{uncollapsed_cells} (ratio {ratio:.0f}), {elapsed:.1f}s",
    )
