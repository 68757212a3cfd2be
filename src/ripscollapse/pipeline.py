"""End-to-end snapshot pipeline.

Both paths read only the nested neighbourhood graphs of the grades, built
in one pass by :func:`~ripscollapse.rips.graded_bitsets`.  The accelerated
path strong-collapses each snapshot to its core on its graph with
:func:`~ripscollapse.rips.flag_core` (snapshots are independent, so a
worker pool may handle them concurrently).  It keeps each graph for the
snapshot's ``before`` stats, whose maximal cliques are enumerated only when
those stats are first read.  It then assembles the cores, each given by its
maximal cliques and its retraction as a list indexed by point, into a
tower, whose cells are the tower's equivalent filtration: a sequence of
``(simplex, grade)`` pairs in face-first, non-decreasing order.
The uncollapsed twin, ``run_pipeline(..., collapse=False)``, skips
collapsing and builds the first-appearance filtration of the snapshots in
one clique enumeration of the last graph; its tower is that filtration's
cells as inclusions.  Both paths reduce their filtration with
:func:`~ripscollapse.persistence.compute_persistence`.  The twin is the
verification oracle: :func:`compare_pipelines` runs both paths on one graph
sequence and compares their diagrams per dimension.

Worker count never affects the output: results are merged in snapshot order.
Only the collapsing path uses workers, at most one per snapshot and per CPU.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .complexes import DEFAULT_EXPANSION_CAP, ComplexStats, Simplex, check_expansion_cap
from .errors import ReductionMemoryError
from .persistence import PersistenceDiagram, _check_cells, bottleneck_distance, compute_persistence
from .rips import (
    FlagCore,
    SnapshotSchedule,
    as_grades,
    flag_core,
    graded_bitsets,
    maximal_cliques,
)
from .tower import Tower, assemble_tower

_S = TypeVar("_S")
_T = TypeVar("_T")

# held while a lazy ``before`` enumerates its cliques, so each is counted once
_BEFORE_LOCK = threading.Lock()


class SnapshotStats:
    """Size of one snapshot before and after collapsing.

    The collapsed pipeline keeps each full snapshot's graph in place of its
    ``before`` stats: nothing on its path needs them, and counting the
    snapshot's maximal cliques costs a Bron-Kerbosch run on the full graph.
    That run happens on the first read of ``before``, and its stats are
    kept.  Equality, hashing and ``repr`` go by value, so they read
    ``before``.
    """

    __slots__ = ("grade", "after", "_before", "_graph")

    def __init__(self, grade: float, before: ComplexStats, after: ComplexStats) -> None:
        self.grade = grade
        self.after = after
        self._before: ComplexStats | None = before
        self._graph: list[int] | None = None

    @classmethod
    def _of_graph(cls, grade: float, graph: list[int], after: ComplexStats) -> SnapshotStats:
        """Stats whose ``before`` is counted from *graph* when first read."""
        s = cls.__new__(cls)
        s.grade, s.after, s._before, s._graph = grade, after, None, graph
        return s

    @property
    def before(self) -> ComplexStats:
        if self._before is None:
            with _BEFORE_LOCK:
                if self._before is None:
                    graph = self._graph
                    self._before = _clique_stats(len(graph), maximal_cliques(graph))
                    self._graph = None
        return self._before

    def _key(self) -> tuple[float, ComplexStats, ComplexStats]:
        return (self.grade, self.before, self.after)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SnapshotStats(grade={self.grade!r}, before={self.before!r}, after={self.after!r})"
        )


@dataclass(frozen=True, slots=True)
class PipelineTimings:
    """The three timed phases, in seconds."""

    collapse_max: float  # slowest single-snapshot graph collapse, flag_core (MCT)
    assembly: float  # the tower and its filtration's cells (AT), not the graphs
    # the boundary index, its cells checked and its faces found in one NumPy
    # pass per dimension, and the boundary-matrix reduction (PDT)
    reduction: float


@dataclass(frozen=True, slots=True)
class PipelineResult:
    diagram: PersistenceDiagram
    tower: Tower
    filtration: tuple[tuple[Simplex, float], ...]  # the tower's cells
    snapshots: tuple[SnapshotStats, ...]
    timings: PipelineTimings


def _clique_stats(n: int, cliques: list[Simplex]) -> ComplexStats:
    """Stats of the flag complex on *n* points with maximal cliques *cliques*."""
    return ComplexStats(n, len(cliques), max(map(len, cliques)) - 1)


def _map_ordered(fn: Callable[[_S], _T], items: Sequence[_S], workers: int) -> list[_T]:
    # more threads than items or cores only add threads
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _snapshot_filtration(
    grades: list[float], graphs: list[list[int]], cap: int
) -> tuple[tuple[tuple[Simplex, float], ...], list[ComplexStats]]:
    """Uncollapsed first-appearance filtration of the clique complexes of
    the nested snapshot *graphs* at *grades*, with the stats of each
    snapshot in grade order.

    Every simplex of every snapshot appears once, graded by the first
    snapshot containing it, and cells of one grade are ordered by
    (dimension, lexicographic).  All cells come from one enumeration of the
    cliques of the last graph: a depth-first search that extends a clique
    only by common neighbours above its last vertex, smallest first.  A
    point is graded at the first graph, and ``s`` extended by ``w`` at the
    first graph, from that of ``s`` on, where ``w`` is adjacent to all of
    ``s``.  That search meets every clique once, so no set of seen cells is
    needed, and in lexicographic order, so appending each clique to the
    list of its (grade, dimension) and concatenating the lists in that
    order gives the filtration order without a sort.

    Raises :class:`ExpansionCapError` at the first snapshot whose projected
    cell count (from its maximal cliques) exceeds *cap*, and
    :class:`ReductionMemoryError` when the filtration has more cells than
    the boundary index's budget, both before any cell is built.  The last
    snapshot's projected count bounds the filtration's from above, so only
    when it passes the budget are the last graph's cliques counted.
    """
    sizes = []
    for graph in graphs:
        cliques = maximal_cliques(graph)
        projected = check_expansion_cap(cliques, cap)
        sizes.append(_clique_stats(len(graph), cliques))
    try:
        _check_cells(projected)
    except ReductionMemoryError:
        _check_cells(_clique_count(graphs[-1]))
    return _first_appearance_cells(grades, graphs), sizes


def _clique_count(adj: list[int]) -> int:
    """The number of cliques in the graph *adj*, found by a depth-first
    search that extends each clique by its common neighbours below its last
    vertex and builds no tuples."""
    total = 0
    stack = [(1 << len(adj)) - 1]  # the candidates that extend one clique
    while stack:
        rest = stack.pop()
        total += rest.bit_count()
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            below = rest & adj[w]
            if below:
                stack.append(below)
    return total


def _first_appearance_cells(
    grades: list[float], graphs: list[list[int]]
) -> tuple[tuple[Simplex, float], ...]:
    """The cells of :func:`_snapshot_filtration`, in its order, from the
    nested snapshot *graphs* at *grades*."""
    # each vertex's neighbourhood in every graph, and its upper neighbours
    rows = list(zip(*graphs))
    up = [a >> (v + 1) << (v + 1) for v, a in enumerate(graphs[-1])]
    buckets: defaultdict[tuple[int, int], list[Simplex]] = defaultdict(list)
    for v in range(len(up)):
        # frames (clique, its bitmask, graph index, common upper neighbours)
        stack = [((v,), 1 << v, 0, up[v])]
        while stack:
            s, mask, i, above = stack.pop()
            buckets[i, len(s)].append(s)
            # push the extensions largest vertex first, so they pop in
            # lexicographic order
            rest = above
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                row = rows[w]
                j = i
                while row[j] & mask != mask:
                    j += 1
                stack.append((s + (w,), mask | 1 << w, j, above & up[w]))

    cells: list[tuple[Simplex, float]] = []
    for key in sorted(buckets):
        cells.extend(zip(buckets[key], repeat(grades[key[0]])))
    return tuple(cells)


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
    is the first-appearance filtration of the snapshots, the tower is its
    cells as inclusions, the stats report each snapshot unchanged, and
    *workers* is not used.  This is the oracle that
    :func:`compare_pipelines` checks the collapsed diagram against.

    A *workers* or *cap* below 1 raises ``ValueError`` before any snapshot
    is built.
    """
    grades, graphs = _snapshot_graphs(D, sched, workers, cap)
    if collapse:
        return _collapsed(grades, graphs, workers, cap)
    return _uncollapsed(grades, graphs, cap)


def _snapshot_graphs(
    D: np.ndarray, sched: SnapshotSchedule | Iterable[float], workers: int, cap: int
) -> tuple[list[float], list[list[int]]]:
    """The grades of *sched* and *D*'s graphs at them, once *workers* and *cap* pass."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_expansion_cap((), cap)
    grades = as_grades(sched)  # an iterable schedule can be read only once
    return grades, graded_bitsets(D, grades)


def _collapsed(
    grades: list[float], graphs: list[list[int]], workers: int, cap: int
) -> PipelineResult:
    """The collapsed pipeline on the snapshot *graphs* at *grades*."""

    def job(adj: list[int]) -> tuple[FlagCore, float]:
        t0 = perf_counter()
        result = flag_core(adj)
        return result, perf_counter() - t0

    results = _map_ordered(job, graphs, workers)
    stats = tuple(
        SnapshotStats._of_graph(g, graph, _clique_stats(len(res.survivors), res.cliques))
        for g, graph, (res, _) in zip(grades, graphs, results)
    )
    collapse_max = max(elapsed for _, elapsed in results)
    t0 = perf_counter()
    tower = assemble_tower(
        [res.cliques for res, _ in results],
        [res.retraction for res, _ in results],
        grades,
        cap,
    )
    return _reduced(tower, stats, collapse_max, perf_counter() - t0)


def _uncollapsed(grades: list[float], graphs: list[list[int]], cap: int) -> PipelineResult:
    """The uncollapsed oracle on the snapshot *graphs* at *grades*."""
    t0 = perf_counter()
    cells, sizes = _snapshot_filtration(grades, graphs, cap)
    stats = tuple(SnapshotStats(g, s, s) for g, s in zip(grades, sizes))
    return _reduced(Tower(cells, ()), stats, 0.0, perf_counter() - t0)


def _reduced(
    tower: Tower, stats: tuple[SnapshotStats, ...], collapse_max: float, assembly: float
) -> PipelineResult:
    """The result of a run whose *tower* is assembled: the diagram of its
    cells, and the run's timings."""
    t0 = perf_counter()
    diagram = compute_persistence(tower.cells)
    timings = PipelineTimings(collapse_max, assembly, perf_counter() - t0)
    return PipelineResult(diagram, tower, tower.cells, stats, timings)


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


def compare_pipelines(
    D: np.ndarray,
    sched: SnapshotSchedule | Iterable[float],
    *,
    workers: int = 1,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> CompareReport:
    """Run the pipeline with and without collapsing and compare the
    diagrams.

    Both paths read one snapshot graph sequence.  Where a dimension's
    diagrams are equal their bottleneck distance is exactly 0.0, so it is
    computed only for the unequal dimensions.
    """
    grades, graphs = _snapshot_graphs(D, sched, workers, cap)
    a = _collapsed(grades, graphs, workers, cap).diagram
    b = _uncollapsed(grades, graphs, cap).diagram
    verdicts = []
    for dim in sorted(set(a.dimensions()) | set(b.dimensions())):
        equal = a.in_dimension(dim) == b.in_dimension(dim)
        verdicts.append(
            DimensionVerdict(dim, equal, 0.0 if equal else bottleneck_distance(a, b, dim))
        )
    return CompareReport(a, b, tuple(verdicts))
