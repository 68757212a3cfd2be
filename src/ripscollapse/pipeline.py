"""End-to-end snapshot pipeline.

The accelerated path builds the neighbourhood graph of every grade in one
pass (:func:`~ripscollapse.rips.graded_bitsets`) and strong-collapses each
snapshot to its core on its graph with :func:`~ripscollapse.rips.flag_core`
(snapshots are independent, so a worker pool may handle them concurrently).
It keeps each graph for the snapshot's ``before`` stats, whose maximal
cliques are enumerated only when those stats are first read.  It then
assembles the cores, each given by its maximal cliques and its retraction
as a list indexed by point, into a tower, whose cells are the tower's
equivalent filtration, and reduces that filtration: a sequence of
``(simplex, grade)`` pairs in face-first, non-decreasing order.
The uncollapsed twin, ``run_pipeline(..., collapse=False)``, skips
collapsing and reduces the first-appearance filtration of the snapshots,
built in one clique enumeration of the last snapshot's graph; its tower is
that filtration's cells as inclusions.  That twin is the verification
oracle: :func:`compare_pipelines` compares its diagram with the collapsed
diagram per dimension.

Worker count never affects the output: results are merged in snapshot order.
Only the collapsing path uses workers, at most one per snapshot and per CPU.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .complexes import DEFAULT_EXPANSION_CAP, ComplexStats, Simplex, check_expansion_cap
from .errors import ReductionMemoryError
from .persistence import (
    PersistenceDiagram,
    _check_block_bound,
    _diagram,
    bottleneck_distance,
    compute_persistence,
)
from .rips import (
    FlagCore,
    SnapshotSchedule,
    as_grades,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    validate_distance_matrix,
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
    # tower assembly with its filtration (AT); when collapsing, also the
    # boundary index the reduction reads, built as the cells are emitted
    assembly: float
    # boundary-matrix reduction (PDT); without collapsing, also the boundary
    # index, built from the finished filtration
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
    D: np.ndarray, grades: list[float], cap: int
) -> tuple[tuple[tuple[Simplex, float], ...], list[ComplexStats]]:
    """Uncollapsed first-appearance filtration of the snapshot sequence of a
    checked ``D`` at *grades*, with the stats of each snapshot in grade
    order.

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
    cell count (from its maximal cliques) exceeds *cap*, and
    :class:`ReductionMemoryError` when the cell counts show that a boundary
    block must pass the reduction's memory guard, both before any cell is
    built.
    """
    graphs = graded_bitsets(D, grades)
    sizes = []
    for graph in graphs:
        cliques = maximal_cliques(graph)
        check_expansion_cap(cliques, cap)
        sizes.append(_clique_stats(len(D), cliques))
    _check_clique_blocks(graphs[-1], cliques)
    return _first_appearance_cells(D, grades, graphs[-1]), sizes


def _check_clique_blocks(adj: list[int], cliques: list[Simplex]) -> None:
    """Refuse the clique complex of *adj*, whose maximal cliques are
    *cliques*, as :func:`compute_persistence` would refuse it, without
    building a cell.

    ``U_k``, the sum of ``C(|c|, k)`` over the maximal cliques, bounds the
    number of k-vertex cells from above, so each block fits in a dense one
    of ``U_k`` columns over ``U_(k-1)`` rows.  ``_check_block_bound`` on
    the pair ``[U_(k-1), U_k]`` tests that dense block, since no count above
    it clears any of its columns.  Only when one passes the guard are the
    cliques counted by size, which ``_check_block_bound`` then judges as
    ``compute_persistence`` does.
    """
    top = max(map(len, cliques))
    bound = [sum(comb(len(c), k) for c in cliques) for k in range(1, top + 1)]
    try:
        for k in range(1, top):
            _check_block_bound(bound[k - 1 : k + 1])
    except ReductionMemoryError:
        _check_block_bound(_clique_counts(adj))


def _clique_counts(adj: list[int]) -> list[int]:
    """The number of cliques of each size 1, 2, ... in the graph *adj*,
    found by a depth-first search that extends each clique by its common
    neighbours below its last vertex and builds no tuples."""
    counts: list[int] = []
    stack = [(0, (1 << len(adj)) - 1)]  # (clique size, candidates)
    while stack:
        k, rest = stack.pop()
        if k == len(counts):
            counts.append(0)
        counts[k] += rest.bit_count()
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            below = rest & adj[w]
            if below:
                stack.append((k + 1, below))
    return counts


def _first_appearance_cells(
    D: np.ndarray, grades: list[float], adj: list[int]
) -> tuple[tuple[Simplex, float], ...]:
    """The cells of :func:`_snapshot_filtration`, in its order, from the
    last snapshot's graph *adj*."""
    # grade index of each edge: the first grade g with D[u, v] <= g
    first = np.searchsorted(np.asarray(grades), D, side="left").tolist()
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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_expansion_cap((), cap)
    D = validate_distance_matrix(D)
    grades = as_grades(sched)

    if collapse:

        def job(adj: list[int]) -> tuple[FlagCore, float]:
            t0 = perf_counter()
            result = flag_core(adj)
            return result, perf_counter() - t0

        graphs = graded_bitsets(D, grades)
        results = _map_ordered(job, graphs, workers)
        stats = tuple(
            SnapshotStats._of_graph(g, graph, _clique_stats(len(res.survivors), res.cliques))
            for g, graph, (res, _) in zip(grades, graphs, results)
        )
        collapse_max = max(elapsed for _, elapsed in results)
        t0 = perf_counter()
        tower, matrix = assemble_tower(
            [res.cliques for res, _ in results],
            [res.retraction for res, _ in results],
            grades,
            cap,
        )
        assembly = perf_counter() - t0
        t0 = perf_counter()
        diagram = _diagram(matrix)
        reduction = perf_counter() - t0
    else:
        collapse_max = 0.0
        t0 = perf_counter()
        cells, sizes = _snapshot_filtration(D, grades, cap)
        stats = tuple(SnapshotStats(g, s, s) for g, s in zip(grades, sizes))
        tower = Tower(cells, ())
        assembly = perf_counter() - t0
        t0 = perf_counter()
        diagram = compute_persistence(cells)
        reduction = perf_counter() - t0
    return PipelineResult(
        diagram,
        tower,
        tower.cells,
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


def compare_pipelines(
    D: np.ndarray,
    sched: SnapshotSchedule | Iterable[float],
    *,
    workers: int = 1,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> CompareReport:
    """Run the pipeline with and without collapsing and compare the
    diagrams.

    Where a dimension's diagrams are equal their bottleneck distance is
    exactly 0.0, so it is computed only for the unequal dimensions.
    """
    a = run_pipeline(D, sched, workers=workers, collapse=True, cap=cap).diagram
    b = run_pipeline(D, sched, collapse=False, cap=cap).diagram
    verdicts = []
    for dim in sorted(set(a.dimensions()) | set(b.dimensions())):
        equal = a.in_dimension(dim) == b.in_dimension(dim)
        verdicts.append(
            DimensionVerdict(dim, equal, 0.0 if equal else bottleneck_distance(a, b, dim))
        )
    return CompareReport(a, b, tuple(verdicts))
