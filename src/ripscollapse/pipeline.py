"""End-to-end snapshot pipeline.

The accelerated path builds the neighbourhood graph at every grade, records
the size of the full snapshot, and strong-collapses the snapshot to its core on
the graph with :func:`~ripscollapse.rips.flag_core` (snapshots are independent,
so a worker pool may handle them concurrently).  It then assembles the cores
into a tower, building the tower's equivalent filtration in the same pass,
and reduces that filtration.
The uncollapsed twin skips collapsing and reduces the first-appearance
filtration of the snapshots, built in one clique enumeration of the last
snapshot's graph.  That twin is the verification oracle:
:func:`oracle_pipeline` returns its diagram alone, and
:func:`compare_pipelines` compares it with the collapsed diagram per
dimension.

Worker count never affects the output: results are merged in snapshot order.
Only the collapsing path uses workers, at most one per snapshot and per CPU.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .collapse import CoreResult
from .complexes import DEFAULT_EXPANSION_CAP, ComplexStats, Simplex, check_expansion_cap
from .persistence import PersistenceDiagram, bottleneck_distance, compute_persistence
from .rips import (
    SnapshotSchedule,
    as_grades,
    flag_core,
    maximal_cliques,
    neighborhood_bitsets,
    validate_distance_matrix,
)
from .tower import Filtration, Include, Tower, assemble_tower_filtration

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class SnapshotStats:
    """Size of one snapshot before and after collapsing."""

    grade: float
    before: ComplexStats
    after: ComplexStats


@dataclass(frozen=True, slots=True)
class PipelineTimings:
    """The three timed phases, in seconds."""

    collapse_max: float  # slowest single-snapshot graph collapse, flag_core (MCT)
    assembly: float  # tower assembly with its filtration (AT)
    reduction: float  # boundary-matrix reduction (PDT)


@dataclass(frozen=True, slots=True)
class PipelineResult:
    diagram: PersistenceDiagram
    tower: Tower
    filtration: Filtration
    snapshots: tuple[SnapshotStats, ...]
    timings: PipelineTimings


def _clique_stats(n: int, cliques: list[Simplex]) -> ComplexStats:
    """Stats of the flag complex on *n* points with maximal cliques *cliques*."""
    return ComplexStats(n, len(cliques), max(map(len, cliques)) - 1)


def _map_ordered(
    fn: Callable[[float], _T], items: Sequence[float], workers: int
) -> list[_T]:
    # more threads than items or cores only add threads
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _snapshot_filtration(
    D: np.ndarray, grades: list[float], cap: int
) -> tuple[Filtration, list[list[Simplex]]]:
    """Uncollapsed first-appearance filtration of the snapshot sequence of a
    checked ``D`` at *grades*, with the maximal cliques of each snapshot in
    grade order.

    Every simplex of every snapshot appears once, graded by the first
    snapshot containing it, and cells of one grade are ordered by
    (dimension, lexicographic).  A Rips simplex first appears at the first
    grade at or above its longest edge (a point at the first grade), so all
    cells come from one enumeration of the cliques of the last snapshot's
    graph: a depth-first search that extends a clique only by common
    neighbours above its last vertex, smallest first, and grades each
    extension by its parent's grade and its new edges.  That search meets
    every clique exactly once, so no set of seen cells is needed, and in
    lexicographic order, so appending each clique to the list of its
    (grade, dimension) and concatenating the lists in that order gives the
    filtration order without a sort.

    Raises :class:`ExpansionCapError` at the first snapshot whose projected
    cell count (from its maximal cliques) exceeds *cap*, before any cell is
    built.
    """
    snapshots = [maximal_cliques(neighborhood_bitsets(D, g)) for g in grades]
    for cliques in snapshots:
        check_expansion_cap(cliques, cap)

    # grade index of each edge: the first grade g with D[u, v] <= g
    first = np.searchsorted(np.asarray(grades), D, side="left").tolist()
    adj = neighborhood_bitsets(D, grades[-1])
    buckets: dict[tuple[int, int], list[Simplex]] = {}
    for v in range(len(adj)):
        # frames (clique, grade index, common neighbours above its last vertex)
        stack = [((v,), 0, adj[v] >> (v + 1) << (v + 1))]
        while stack:
            s, i, above = stack.pop()
            key = (i, len(s))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [s]
            else:
                bucket.append(s)
            # push the extensions largest vertex first, so they pop in
            # lexicographic order
            rest = above
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                row = first[w]
                j = i
                for u in s:
                    if row[u] > j:
                        j = row[u]
                stack.append((s + (w,), j, above & adj[w] >> (w + 1) << (w + 1)))

    cells: list[tuple[Simplex, float]] = []
    for key in sorted(buckets):
        g = grades[key[0]]
        cells.extend((s, g) for s in buckets[key])
    return Filtration(tuple(cells)), snapshots


def run_pipeline(
    D: np.ndarray,
    sched: SnapshotSchedule | Iterable[float],
    *,
    workers: int = 1,
    collapse: bool = True,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> PipelineResult:
    """Run the snapshot pipeline on a distance matrix.

    With ``collapse=False`` the snapshots are not collapsed: the filtration
    is the first-appearance filtration of the snapshots (the one
    :func:`oracle_pipeline` reduces), the tower is its cells as inclusions,
    the stats report each snapshot unchanged, and *workers* is not used.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    D = validate_distance_matrix(D)
    grades = as_grades(sched)

    if collapse:

        def job(g: float) -> tuple[ComplexStats, CoreResult, float]:
            adj = neighborhood_bitsets(D, g)
            cliques = maximal_cliques(adj)
            before = _clique_stats(len(adj), cliques)
            t0 = perf_counter()
            result = flag_core(adj)
            return before, result, perf_counter() - t0

        results = _map_ordered(job, grades, workers)
        stats = tuple(
            SnapshotStats(g, before, res.matrix.stats())
            for g, (before, res, _) in zip(grades, results)
        )
        collapse_max = max(elapsed for _, _, elapsed in results)
        t0 = perf_counter()
        tower, filtration = assemble_tower_filtration(
            [res.matrix for _, res, _ in results],
            [res.retraction for _, res, _ in results],
            grades,
            cap,
        )
        assembly = perf_counter() - t0
    else:
        collapse_max = 0.0
        t0 = perf_counter()
        filtration, snapshots = _snapshot_filtration(D, grades, cap)
        sizes = [_clique_stats(len(D), cliques) for cliques in snapshots]
        stats = tuple(SnapshotStats(g, s, s) for g, s in zip(grades, sizes))
        tower = Tower(tuple(Include(s, g) for s, g in filtration.cells))
        assembly = perf_counter() - t0

    t0 = perf_counter()
    diagram = compute_persistence(filtration)
    reduction = perf_counter() - t0
    return PipelineResult(
        diagram,
        tower,
        filtration,
        stats,
        PipelineTimings(collapse_max, assembly, reduction),
    )


STATS_CSV_HEADER = "grade,v_before,m_before,d_before,v_after,m_after,d_after"


def stats_to_csv(snapshots: Iterable[SnapshotStats]) -> str:
    """Per-snapshot size statistics as CSV."""
    lines = [STATS_CSV_HEADER]
    for s in snapshots:
        b, a = s.before, s.after
        lines.append(
            f"{s.grade!r},{b.n_vertices},{b.n_maximal},{b.dimension},"
            f"{a.n_vertices},{a.n_maximal},{a.dimension}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class DimensionVerdict:
    dim: int
    equal: bool
    bottleneck: float


@dataclass(frozen=True, slots=True)
class CompareReport:
    collapsed: PersistenceDiagram
    uncollapsed: PersistenceDiagram
    verdicts: tuple[DimensionVerdict, ...]

    @property
    def equal(self) -> bool:
        return all(v.equal for v in self.verdicts)


def oracle_pipeline(
    D: np.ndarray,
    sched: SnapshotSchedule | Iterable[float],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> PersistenceDiagram:
    """Ground-truth diagram of the snapshot sequence, with no collapsing:
    the diagram of ``run_pipeline(D, sched, collapse=False, cap=cap)``
    without its tower and stats."""
    D = validate_distance_matrix(D)
    return compute_persistence(_snapshot_filtration(D, as_grades(sched), cap)[0])


def compare_pipelines(
    D: np.ndarray,
    sched: SnapshotSchedule | Iterable[float],
    *,
    workers: int = 1,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> CompareReport:
    """Run the collapsed pipeline and the uncollapsed oracle and compare the
    diagrams.

    Where a dimension's diagrams are equal their bottleneck distance is
    exactly 0.0, so it is computed only for the unequal dimensions.
    """
    a = run_pipeline(D, sched, workers=workers, collapse=True, cap=cap).diagram
    b = oracle_pipeline(D, sched, cap)
    verdicts = []
    for dim in sorted(set(a.dimensions()) | set(b.dimensions())):
        equal = sorted(a.in_dimension(dim)) == sorted(b.in_dimension(dim))
        verdicts.append(
            DimensionVerdict(dim, equal, 0.0 if equal else bottleneck_distance(a, b, dim))
        )
    return CompareReport(a, b, tuple(verdicts))
