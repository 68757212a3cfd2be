"""Vietoris-Rips snapshot complexes from point clouds or distance matrices.

A snapshot at threshold ``t`` is the clique complex of the graph connecting
points at distance ``<= t``; its maximal simplices are the maximal cliques,
found with Bron-Kerbosch over bitset adjacency (greedy max-degree pivot,
vertices in id order at the top level, an explicit stack instead of
recursion).  Because a snapshot is a flag complex, :func:`flag_core`
strong-collapses it on the graph itself, by closed-neighbourhood containment
on int bitsets, enumerates cliques only on the core, and returns the core as
plain data: its cliques, and its retraction as a list indexed by point.
The pipeline runs its collapse step alone, and its clique step only when a
core's cliques are needed.
Vertex ids are point indices and are identical across all snapshots, which
is what lets the collapse cores of consecutive snapshots be compared
vertex-by-vertex downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .collapse import RowEvent, _bits, _retraction
from .complexes import Simplex


def pairwise_distances(points: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of a point cloud (one point per row)."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("points must form a non-empty 2-d array")
    if not np.isfinite(X).all():
        raise ValueError("points must have finite coordinates")
    # squares summed one coordinate at a time, in order, so the result is
    # bitwise that of the plain loop over pairs and coordinates
    s = np.zeros((X.shape[0], X.shape[0]), np.float64)
    with np.errstate(over="ignore"):
        for t in range(X.shape[1]):
            d = X[:, t, None] - X[None, :, t]
            s += d * d
    if not np.isfinite(s).all():
        raise ValueError("squared distances overflow float64; rescale the points")
    return np.sqrt(s)


def validate_distance_matrix(D: np.ndarray) -> np.ndarray:
    """Check that *D* is a square, symmetric, zero-diagonal distance matrix."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 1:
        raise ValueError("distance matrix must be square and non-empty")
    if not np.isfinite(D).all():
        raise ValueError("distance matrix entries must be finite")
    if (D < 0).any():
        raise ValueError("distance matrix entries must be non-negative")
    if np.diagonal(D).any():
        raise ValueError("distance matrix diagonal must be zero")
    if (D != D.T).any():
        raise ValueError("distance matrix must be symmetric")
    return D


# Largest number of grades a schedule may have: ``grades`` builds them all as
# one list before any snapshot, and so before any expansion cap check.
_MAX_GRADES = 10**6


@dataclass(frozen=True, slots=True)
class SnapshotSchedule:
    """Uniform grid of thresholds ``start, start+step, ..., end``.

    Grades never exceed ``end``, except that the final grade is kept when it
    overshoots by mere rounding (within 1e-9 relative), so accumulated
    floating point drift cannot drop the last snapshot.  A schedule of more
    than 10**6 grades raises ``ValueError``.
    """

    start: float
    step: float
    end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.step) and math.isfinite(self.end)):
            raise ValueError("schedule bounds must be finite")
        if self.step <= 0:
            raise ValueError("schedule step must be positive")
        if self.end < self.start:
            raise ValueError("schedule end must not precede start")
        # the finiteness test comes first: ``_last`` cannot floor an infinity
        if not math.isfinite((self.end - self.start) / self.step) or self._last() >= _MAX_GRADES:
            raise ValueError(f"schedule has too many grades: more than {_MAX_GRADES:,}")

    def _last(self) -> int:
        """Index of the final grade."""
        last = int(math.floor((self.end - self.start) / self.step + 0.5))
        if last > 0:
            top = self.start + last * self.step
            if top > self.end and not math.isclose(
                top, self.end, rel_tol=1e-9, abs_tol=1e-12
            ):
                last -= 1
        return last

    def grades(self) -> list[float]:
        return [self.start + k * self.step for k in range(self._last() + 1)]


def as_grades(sched: SnapshotSchedule | Iterable[float]) -> list[float]:
    """Normalise a schedule or an explicit grade sequence to a grade list,
    checking it is strictly increasing: a schedule's grades may repeat where
    the step is below their rounding (a step of 1 at 1e16)."""
    if isinstance(sched, SnapshotSchedule):
        sched = sched.grades()
    grades = [float(g) for g in sched]
    if not grades:
        raise ValueError("at least one snapshot grade is required")
    if not all(map(math.isfinite, grades)):
        raise ValueError("snapshot grades must be finite")
    for a, b in zip(grades, grades[1:]):
        if b <= a:
            raise ValueError("snapshot grades must be strictly increasing")
    return grades


def graded_bitsets(D: np.ndarray, grades: Sequence[float]) -> list[list[int]]:
    """Adjacency of the distance-``<= g`` graph at each of the increasing
    *grades*, one int bitmask per vertex, after checking *D* and the grades
    with :func:`validate_distance_matrix` and :func:`as_grades`.

    This is the one place an edge is graded, at the first grade at or above
    its length: one ``searchsorted`` finds that grade for every edge; each
    grade's list is then a copy of the previous grade's with the edges first
    present at that grade OR-ed in, so no grade scans ``D`` again.  The
    pass, :func:`_graded_graphs`, also returns those graded edges.
    """
    return _graded_graphs(D, grades)[0]


def _graded_graphs(
    D: np.ndarray, grades: Sequence[float]
) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
    """The graphs of :func:`graded_bitsets`, and the edges ``u < v`` of the
    last, as sorted keys ``u * n + v``, with the index of the first grade
    that holds each."""
    D = validate_distance_matrix(D)
    grades = as_grades(grades)
    count = len(grades)
    first = np.searchsorted(np.asarray(grades), D, side="left")
    us, vs = np.nonzero(np.triu(first < count, 1))  # in key order
    keys, at = us * len(D) + vs, first[us, vs]
    order = np.argsort(at, kind="stable")
    ends = np.searchsorted(at[order], np.arange(1, count + 1)).tolist()
    us, vs = us[order].tolist(), vs[order].tolist()
    adj = [0] * len(D)
    out = []
    lo = 0
    for hi in ends:
        adj = adj.copy()
        for u, v in zip(us[lo:hi], vs[lo:hi]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        out.append(adj)
        lo = hi
    return out, keys, at


def _extension(P: int, X: int, adj: list[int]) -> int:
    """Vertices of *P* to branch on: those not adjacent to the pivot.

    The pivot is the vertex of ``P | X`` with the most neighbours inside
    ``P``; the smallest id wins ties, so the scan stops at the first vertex
    whose count no other vertex can exceed.
    """
    most = P.bit_count() - (X == 0)
    best_u = -1
    best = -1
    PX = P | X
    while PX:
        low = PX & -PX
        u = low.bit_length() - 1
        PX ^= low
        cnt = (P & adj[u]).bit_count()
        if cnt > best:
            best = cnt
            best_u = u
            if cnt == most:
                break
    return P & ~adj[best_u]


def _bron_kerbosch(R: int, P: int, X: int, adj: list[int], out: list[Simplex]) -> None:
    """Append every maximal clique extending clique *R* by vertices of *P*.

    Depth-first on an explicit stack of ``[R, P, X, branches left]`` frames,
    so clique size is not bounded by the interpreter's recursion limit.
    """
    stack: list[list[int]] = []
    while True:
        if P:
            stack.append([R, P, X, _extension(P, X, adj)])
        elif not X:
            out.append(_bits(R))
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return
        frame = stack[-1]
        R, P, X, ext = frame
        low = ext & -ext
        v = low.bit_length() - 1
        frame[1], frame[2], frame[3] = P ^ low, X | low, ext ^ low
        R, P, X = R | low, P & adj[v], X & adj[v]


def maximal_cliques(adj: list[int]) -> list[Simplex]:
    """All maximal cliques (isolated vertices included), sorted lexicographically."""
    out: list[Simplex] = []
    earlier = 0
    for v in range(len(adj)):
        _bron_kerbosch(1 << v, adj[v] & ~earlier, adj[v] & earlier, adj, out)
        earlier |= 1 << v
    out.sort()
    return out


class FlagCore(NamedTuple):
    """The core of a flag complex, as :func:`flag_core` returns it: the
    collapse step's survivors, retraction, events and test count, and the
    clique step's maximal cliques."""

    survivors: tuple[int, ...]  # the core's vertices, in increasing order
    cliques: list[Simplex]  # its maximal cliques, in lexicographic order
    retraction: list[int]  # the survivor each point is sent to, by point
    events: tuple[RowEvent, ...]  # one ("row", removed, by) per removal
    candidate_tests: int  # domination candidates tested, after pruning


def flag_core(adj: list[int]) -> FlagCore:
    """Strong-collapse the flag complex of the graph *adj* to its core.

    In a flag complex a vertex ``x`` is dominated by ``y`` iff the closed
    neighbourhood ``N[x]`` is contained in ``N[y]``, and the core is the
    flag complex of the surviving vertices.  A FIFO queue, seeded with every
    vertex in id order, removes ``x`` in favour of its smallest live
    neighbour ``y`` with ``N[x] <= N[y]`` (on live vertices); when the two
    sets are equal, ``y`` must also be the smaller id, so exactly one of an
    equal pair goes.  Only the live neighbours of a removed vertex can
    become dominated, so only they are queued again.

    A failed candidate ``y`` names a witness ``z``, the lowest vertex of
    ``N[x]`` outside ``N[y]``.  Every dominator of ``x`` contains ``z`` in
    its closed neighbourhood, and ``z`` is not one itself (``y`` is in
    ``N[x]`` but not in ``N[z]``), so the candidates left are cut to the
    neighbours of ``z``.  This drops only non-dominators, so the dominator
    found is the same as without it.

    The retraction composes the removals, so it sends each point to a
    survivor and fixes every survivor.  The core's maximal cliques are
    those of the survivors' induced graph.  The two steps are separate
    functions, :func:`_flag_collapse` and :func:`_core_cliques`: the
    pipeline runs the first alone, and enumerates a core's cliques only
    where its cap check or its stats need them.
    """
    survivors, retraction, events, tests = _flag_collapse(adj)
    return FlagCore(survivors, _core_cliques(adj, survivors), retraction, events, tests)


def _flag_collapse(
    adj: list[int],
) -> tuple[tuple[int, ...], list[int], tuple[RowEvent, ...], int]:
    """The collapse step of :func:`flag_core` on the graph *adj*: the
    survivors, the retraction, the events and the candidate test count."""
    n = len(adj)
    closed = [a | 1 << v for v, a in enumerate(adj)]
    # every nx lies within full, so nx - N[y] is one AND with outside[y]
    full = (1 << n) - 1
    outside = [full ^ c for c in closed]
    alive = full
    queued = alive
    queue = list(range(n))
    events: list[RowEvent] = []
    tests = 0
    for x in queue:  # also visits the vertices queued again on the way
        queued ^= 1 << x
        nx = closed[x] & alive
        cand = nx ^ 1 << x
        while cand:
            low = cand & -cand
            y = low.bit_length() - 1
            cand ^= low
            tests += 1
            miss = nx & outside[y]
            if miss:
                # a dominator of x is adjacent to the witness z, the lowest
                # vertex of miss; z itself is none, as y is in N[x], not N[z]
                cand &= adj[(miss & -miss).bit_length() - 1]
            elif y < x or nx != closed[y] & alive:
                alive ^= 1 << x
                events.append(("row", x, y))
                fresh = nx & alive & ~queued
                queued |= fresh
                queue.extend(_bits(fresh))
                break
    return _bits(alive), _retraction(list(range(n)), events), tuple(events), tests


def _core_cliques(adj: list[int], survivors: Sequence[int]) -> list[Simplex]:
    """The maximal cliques, in lexicographic order, of the subgraph of the
    graph *adj* induced on the increasing vertices *survivors*."""
    pos = {v: i for i, v in enumerate(survivors)}
    alive = sum(1 << v for v in survivors)
    sub = [0] * len(survivors)
    for i, v in enumerate(survivors):
        for w in _bits(adj[v] & alive):
            sub[i] |= 1 << pos[w]
    # survivors increase, so relabelling keeps the lexicographic order
    return [tuple(survivors[i] for i in c) for c in maximal_cliques(sub)]
