"""End-to-end snapshot pipeline.

Both paths read only the nested neighbourhood graphs of the grades, built
in one pass, the pass of :func:`~ripscollapse.rips.graded_bitsets`, which
also hands the oracle's join the last graph's graded edges.  The accelerated
path strong-collapses each snapshot to its core on its graph with the
collapse step of :func:`~ripscollapse.rips.flag_core`, which enumerates no
clique (snapshots are independent, so a worker pool may handle them
concurrently).  It keeps each graph and its core's survivors for the
snapshot's ``before`` and ``after`` stats, whose maximal cliques are
enumerated only when those stats are first read.  It then assembles the
cores, each given by its graph and its retraction as a list indexed by
point, into a flag tower: one graded graph T on tower ids, whose clique
filtration is the tower's equivalent filtration.  Every core is a
subgraph of T, so its expansion cap is checked on T's maximal cliques,
the run's one clique enumeration, before the join builds any cell; the
cores are enumerated only when T is over the cap, to find the first one
over it.  The uncollapsed twin, ``run_pipeline(...,
collapse=False)``, skips collapsing and takes the first-appearance
filtration of the snapshots, the clique filtration of the last graph with
each edge graded by the first graph that holds it; its tower is that
graph's vertices and edges as inclusions.  Its expansion cap is checked on
the last graph's maximal cliques alone: an added edge strictly raises a
graph's projected cell count, so on nested graphs the last one's bounds
them all, and the earlier graphs are enumerated only to find the first
one over the cap.  Its ``before`` stats, too, are counted from each graph
when first read, except the last snapshot's, which the cap check counts.
One level join, ``persistence._level_join``, builds both clique
filtrations as per-dimension arrays, and finds each cell's faces as it
builds it; it holds the vertex rows of the vertices and the edges alone.
Both paths reduce their filtration's arrays with
:func:`~ripscollapse.persistence.compute_persistence`, and neither builds
the rows above the edges, nor the ``(simplex, grade)`` pairs of
``PipelineResult.filtration``, until they are read.  The twin is the
verification oracle: :func:`compare_pipelines` runs both paths on one
graph sequence and compares their diagrams per dimension.

Worker count never affects the output: results are merged in snapshot order.
Only the collapsing path uses workers, at most one per snapshot and per CPU.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .complexes import DEFAULT_EXPANSION_CAP, ComplexStats, Simplex, check_expansion_cap
from .errors import ReductionMemoryError
from .persistence import (
    CellArrays,
    PersistenceDiagram,
    _check_cells,
    _level_join,
    bottleneck_distance,
    compute_persistence,
)
from .rips import (
    SnapshotSchedule,
    _core_cliques,
    _flag_collapse,
    _graded_graphs,
    as_grades,
    maximal_cliques,
)
from .tower import Tower, _tower_graph, _tower_of

_S = TypeVar("_S")
_T = TypeVar("_T")
# a graph's edges u < v as sorted keys u * n + v, and the grade index of each
_Edges = tuple[np.ndarray, np.ndarray]

# held while a lazy stat enumerates its cliques, so each is counted once
_STATS_LOCK = threading.Lock()


class SnapshotStats:
    """Size of one snapshot before and after collapsing.

    A run keeps each full snapshot's graph in place of its stats: nothing on
    either path needs them, and counting the maximal cliques of a snapshot
    or of its core costs a Bron-Kerbosch run.  ``before`` is counted from
    the graph on its first read, and ``after`` from the core, the subgraph
    on the collapse's survivors, on its first read, unless the run's cap
    check counted it; the stats are kept, and the graph is dropped once
    both are known.  The uncollapsed run's ``after`` is its ``before``.
    Equality, hashing and ``repr`` go by value, so they read both.
    """

    __slots__ = ("grade", "_after", "_before", "_graph", "_survivors")

    def __init__(self, grade: float, before: ComplexStats, after: ComplexStats) -> None:
        self.grade = grade
        self._after: ComplexStats | None = after
        self._before: ComplexStats | None = before
        self._graph: list[int] | None = None
        self._survivors: tuple[int, ...] | None = None

    @classmethod
    def _of_graph(
        cls,
        grade: float,
        graph: list[int],
        survivors: tuple[int, ...] | None = None,
        after: ComplexStats | None = None,
    ) -> SnapshotStats:
        """Stats whose ``before`` is counted from *graph* when first read,
        and whose ``after`` is *after*, or else is counted from the core on
        *survivors* when first read, or is ``before`` when *survivors* is
        None."""
        s = cls.__new__(cls)
        s.grade, s._after, s._before = grade, after, None
        s._graph, s._survivors = graph, survivors
        return s

    @property
    def before(self) -> ComplexStats:
        if self._before is None:
            with _STATS_LOCK:
                if self._before is None:
                    graph = self._graph
                    self._before = _clique_stats(len(graph), maximal_cliques(graph))
                    self._release()
        return self._before

    @property
    def after(self) -> ComplexStats:
        if self._after is None:
            if self._survivors is None:
                return self.before
            with _STATS_LOCK:
                if self._after is None:
                    core = self._survivors
                    self._after = _clique_stats(len(core), _core_cliques(self._graph, core))
                    self._release()
        return self._after

    def _release(self) -> None:
        """Drop the graph once neither stat needs it."""
        if self._before is not None and (self._after is not None or self._survivors is None):
            self._graph = None

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

    # slowest single-snapshot graph collapse, flag_core's collapse step,
    # which enumerates no clique (MCT)
    collapse_max: float
    # the tower, the cap check's census of its graph and the level join of
    # its filtration's arrays and faces (AT), or the oracle's cap check on
    # its last snapshot and its level join; not the graphs, nor the stats,
    # counted when read
    assembly: float
    # the boundary-matrix reduction (PDT), after the arrays' cheap checks
    reduction: float


@dataclass(frozen=True, slots=True)
class PipelineResult:
    diagram: PersistenceDiagram
    tower: Tower
    snapshots: tuple[SnapshotStats, ...]
    timings: PipelineTimings

    @property
    def filtration(self) -> tuple[tuple[Simplex, float], ...]:
        """The tower's cells, built on their first read."""
        return self.tower.cells


def _clique_stats(n: int, cliques: list[Simplex]) -> ComplexStats:
    """Stats of the flag complex on *n* points with maximal cliques *cliques*."""
    return ComplexStats(n, len(cliques), max(map(len, cliques)) - 1)


def _map_ordered(fn: Callable[[_S], _T], items: Sequence[_S], workers: int) -> list[_T]:
    # more threads than items or cores only add threads
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    # imported here: with it, ``logging`` too, which a one-worker run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _snapshot_filtration(
    grades: list[float], graphs: list[list[int]], edges: _Edges, cap: int
) -> tuple[CellArrays, ComplexStats]:
    """Uncollapsed first-appearance filtration of the clique complexes of
    the nested snapshot *graphs* at *grades*, as per-dimension arrays, with
    the stats of the last snapshot.

    Every simplex of every snapshot appears once, graded by the first
    snapshot containing it, and cells of one grade are ordered by
    (dimension, lexicographic): the level join of the last graph's *edges*,
    sorted keys each with the index of the first graph that holds it, with
    every point at the first graph.

    The projected cell count P of a graph, the sum of 2^|c| - 1 over its
    maximal cliques c, grows strictly with each edge uv added.  Let K range
    over the maximal cliques of the common neighbourhood of u and v (the
    empty clique when there is none).  At most {u} + K and {v} + K stop
    being maximal, one pair per K, and each K gains {u, v} + K, whose
    2^(|K|+2) - 1 exceeds 2 (2^(|K|+1) - 1).  So the last snapshot's P
    bounds every earlier one's, and only the last graph's maximal cliques
    are enumerated unless it is over *cap*.  Then the snapshots are scanned
    in grade order, and :class:`ExpansionCapError` is raised at the first
    one over it.  No induced subgraph, a core for one, has a larger P than
    its graph either.

    :class:`ReductionMemoryError` is raised when the filtration has more
    cells than the boundary index's budget.  Both errors come before any
    cell is built.  The last snapshot's P bounds the filtration's cell
    count from above, so only when it passes the budget are the last
    graph's cliques counted.
    """
    cliques = maximal_cliques(graphs[-1])
    if sum(2 ** len(c) - 1 for c in cliques) > cap:
        for graph in graphs[:-1]:
            check_expansion_cap(maximal_cliques(graph), cap)
    projected = check_expansion_cap(cliques, cap)
    try:
        _check_cells(projected)
    except ReductionMemoryError:
        _check_cells(_clique_count(graphs[-1]))
    n = len(graphs[0])
    arrays = _level_join(np.zeros(n, np.intp), *edges, grades)
    return arrays, _clique_stats(n, cliques)


def _clique_count(adj: list[int]) -> int:
    """The number of cliques in the graph *adj*, found by a depth-first
    search that extends each clique by its common neighbours below its last
    vertex and builds no tuples.  Candidates that are themselves a clique
    extend it by each of their non-empty subsets, so they are counted at
    once, without a descent."""
    total = 0
    stack = [(1 << len(adj)) - 1]  # the candidates that extend one clique
    while stack:
        rest = stack.pop()
        below = rest
        while below:
            w = below.bit_length() - 1
            below ^= 1 << w
            if below & adj[w] != below:
                break
        else:
            total += (1 << rest.bit_count()) - 1
            continue
        total += rest.bit_count()
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            below = rest & adj[w]
            if below:
                stack.append(below)
    return total


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
    is the first-appearance filtration of the snapshots, the tower is the
    graph it expands, as inclusions, the stats report each snapshot
    unchanged, and *workers* is not used.  This is the oracle that
    :func:`compare_pipelines` checks the collapsed diagram against.

    A *workers* or *cap* below 1 raises ``ValueError`` before any snapshot
    is built.
    """
    grades, graphs, edges = _snapshot_graphs(D, sched, workers, cap)
    if collapse:
        return _collapsed(grades, graphs, workers, cap)
    return _uncollapsed(grades, graphs, edges, cap)


def _snapshot_graphs(
    D: np.ndarray, sched: SnapshotSchedule | Iterable[float], workers: int, cap: int
) -> tuple[list[float], list[list[int]], _Edges]:
    """The grades of *sched*, *D*'s graphs at them and the last graph's
    edges, as sorted keys with the index of the first grade that holds
    each, from one grading pass, once *workers* and *cap* pass."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_expansion_cap((), cap)
    grades = as_grades(sched)  # an iterable schedule can be read only once
    graphs, keys, first = _graded_graphs(D, grades)
    return grades, graphs, (keys, first)


def _collapsed(
    grades: list[float], graphs: list[list[int]], workers: int, cap: int
) -> PipelineResult:
    """The collapsed pipeline on the snapshot *graphs* at *grades*.

    Each snapshot is collapsed, and its core's cliques are enumerated only
    when its ``after`` stats are first read, or when the cap check below
    needs them.  The cap is checked once, on the tower's graded graph T
    before its join: every vertex and edge the tower ever includes, or a
    Contract adds.  Core j, in its tower ids S_j, is a subgraph of T on
    S_j, as :func:`~ripscollapse.tower.assemble_tower` checks that the live
    graph at grade j is core j, and T never loses an edge.  An added edge
    raises the projected cell count P, and no induced subgraph has a larger
    P than its graph (see :func:`_snapshot_filtration`), so P(core j) <=
    P(T[S_j]) <= P(T) for every j.  When P(T) is within *cap*, every core
    is; otherwise the cores are enumerated in grade order, and
    :class:`ExpansionCapError` is raised at the first one over *cap*.  Either
    way it comes before any cell is built.
    """

    def job(adj: list[int]) -> tuple[tuple[int, ...], list[int], float]:
        t0 = perf_counter()
        survivors, retraction, _, _ = _flag_collapse(adj)
        return survivors, retraction, perf_counter() - t0

    survivors, retractions, elapsed = zip(*_map_ordered(job, graphs, workers))
    t0 = perf_counter()
    cores = []
    for graph, core in zip(graphs, survivors):
        kept = sum(1 << q for q in core)
        cores.append({q: graph[q] & kept for q in core})
    tower_graph = _tower_graph(cores, retractions, grades)
    after: list[ComplexStats | None] = [None] * len(graphs)
    if _tower_projection(len(tower_graph.ids), tower_graph.keys) > cap:
        for j, (graph, core) in enumerate(zip(graphs, survivors)):
            cliques = _core_cliques(graph, core)
            check_expansion_cap(cliques, cap)
            after[j] = _clique_stats(len(core), cliques)
    tower = _tower_of(tower_graph)
    assembly = perf_counter() - t0
    t0 = perf_counter()
    diagram = compute_persistence(tower.arrays)
    timings = PipelineTimings(max(elapsed), assembly, perf_counter() - t0)
    stats = tuple(
        SnapshotStats._of_graph(g, graph, core, counted)
        for g, graph, core, counted in zip(grades, graphs, survivors, after)
    )
    return PipelineResult(diagram, tower, stats, timings)


def _tower_projection(n: int, keys: np.ndarray) -> int:
    """The projected cell count P of the graph on *n* vertices with the
    edges ``u * n + v``, *keys*: the sum of 2^|c| - 1 over its maximal
    cliques c."""
    return sum(2 ** len(c) - 1 for c in maximal_cliques(_keyed_bitsets(n, keys)))


def _keyed_bitsets(n: int, keys: np.ndarray) -> list[int]:
    """The graph on *n* vertices with the edges ``u * n + v``, *keys*, as
    one bitset of neighbours per vertex."""
    adj = [0] * n
    us, vs = np.divmod(keys, n)
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _uncollapsed(
    grades: list[float], graphs: list[list[int]], edges: _Edges, cap: int
) -> PipelineResult:
    """The uncollapsed oracle on the snapshot *graphs* at *grades*, whose
    last graph has the graded *edges*: its arrays are reduced, and its
    tower is the graph they expand, as inclusions."""
    t0 = perf_counter()
    arrays, last = _snapshot_filtration(grades, graphs, edges, cap)
    assembly = perf_counter() - t0
    t0 = perf_counter()
    diagram = compute_persistence(arrays)
    timings = PipelineTimings(0.0, assembly, perf_counter() - t0)
    # the cap check counted the last snapshot; the others are counted when read
    stats = tuple(
        SnapshotStats._of_graph(g, graph) for g, graph in zip(grades[:-1], graphs)
    ) + (SnapshotStats(grades[-1], last, last),)
    # the graph it expands: its vertices, all at the first grade, then its
    # edges, the rows the arrays hold (reading vertices would build the rest)
    ops = [
        op
        for rows, along in zip(arrays._rows[:2], arrays.grades[:2])
        for op in zip(map(tuple, rows.tolist()), along.tolist())
    ]
    return PipelineResult(diagram, Tower(arrays, ops), stats, timings)


def _oracle_diagram(
    grades: list[float], graphs: list[list[int]], edges: _Edges, cap: int
) -> PersistenceDiagram:
    """The diagram of the uncollapsed oracle on the snapshot *graphs* at
    *grades*, whose last graph has the graded *edges*, reduced from its
    arrays without a tuple."""
    return compute_persistence(_snapshot_filtration(grades, graphs, edges, cap)[0])


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

    Both paths read one snapshot graph sequence, and the uncollapsed
    diagram is reduced from the oracle's arrays, with no tuple built.
    Where a dimension's diagrams are equal their bottleneck distance is
    exactly 0.0, so it is computed only for the unequal dimensions.
    """
    grades, graphs, edges = _snapshot_graphs(D, sched, workers, cap)
    a = _collapsed(grades, graphs, workers, cap).diagram
    b = _oracle_diagram(grades, graphs, edges, cap)
    verdicts = []
    for dim in sorted(set(a.dimensions()) | set(b.dimensions())):
        equal = a.in_dimension(dim) == b.in_dimension(dim)
        verdicts.append(
            DimensionVerdict(dim, equal, 0.0 if equal else bottleneck_distance(a, b, dim))
        )
    return CompareReport(a, b, tuple(verdicts))
