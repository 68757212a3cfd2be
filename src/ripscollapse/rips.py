"""Vietoris-Rips snapshot complexes from point clouds or distance matrices.

A snapshot at threshold ``t`` is the clique complex of the graph connecting
points at distance ``<= t``; its maximal simplices are the maximal cliques,
found with Bron-Kerbosch over bitset adjacency (greedy max-degree pivot,
vertices in id order at the top level, an explicit stack instead of
recursion).  Because a snapshot is a flag complex, :func:`flag_core`
strong-collapses it on the graph itself, by closed-neighbourhood containment
on the same int bitsets that :func:`ripscollapse.collapse.core` uses, and
enumerates cliques only on the core.  Vertex ids are point indices and
are identical across all snapshots, which is what lets the collapse cores of
consecutive snapshots be compared vertex-by-vertex downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .collapse import CollapseTrace, CoreResult, RetractionMap, _bits
from .complexes import ComplexMatrix, Simplex


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
    """Normalise a schedule or an explicit grade sequence to a grade list."""
    if isinstance(sched, SnapshotSchedule):
        return sched.grades()
    grades = [float(g) for g in sched]
    if not grades:
        raise ValueError("at least one snapshot grade is required")
    if not all(map(math.isfinite, grades)):
        raise ValueError("snapshot grades must be finite")
    for a, b in zip(grades, grades[1:]):
        if b <= a:
            raise ValueError("snapshot grades must be strictly increasing")
    return grades


def neighborhood_bitsets(D: np.ndarray, t: float) -> list[int]:
    """Adjacency of the distance-``<= t`` graph, one int bitmask per vertex."""
    mask = D <= t
    np.fill_diagonal(mask, False)
    return [
        int.from_bytes(np.packbits(mask[i], bitorder="little").tobytes(), "little")
        for i in range(D.shape[0])
    ]


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


def flag_core(adj: list[int]) -> CoreResult:
    """Strong-collapse the flag complex of the graph *adj* to its core.

    In a flag complex a vertex ``x`` is dominated by ``y`` iff the closed
    neighbourhood ``N[x]`` is contained in ``N[y]``, and the core is the
    flag complex of the surviving vertices.  A FIFO queue, seeded with every
    vertex in id order, removes ``x`` in favour of its smallest live
    neighbour ``y`` with ``N[x] <= N[y]`` (on live vertices); when the two
    sets are equal, ``y`` must also be the smaller id, so exactly one of an
    equal pair goes.  Only the live neighbours of a removed vertex can
    become dominated, so only they are queued again.

    The core's columns are its maximal cliques, numbered in lexicographic
    order; the trace lists one ``("row", removed, by)`` event per removal,
    as a single row phase with its candidate-test count.
    """
    n = len(adj)
    closed = [a | 1 << v for v, a in enumerate(adj)]
    alive = (1 << n) - 1
    queued = alive
    queue = list(range(n))
    dominator: dict[int, int] = {}  # removed -> by, in removal order
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
            ny = closed[y] & alive
            if nx & ~ny == 0 and (nx != ny or y < x):
                alive ^= 1 << x
                dominator[x] = y
                fresh = nx & alive & ~queued
                queued |= fresh
                queue.extend(_bits(fresh))
                break

    survivors = _bits(alive)
    pos = {v: i for i, v in enumerate(survivors)}
    sub = [0] * len(survivors)
    for i, v in enumerate(survivors):
        for w in _bits(adj[v] & alive):
            sub[i] |= 1 << pos[w]
    cliques = maximal_cliques(sub)
    matrix = ComplexMatrix.from_columns(
        {c: tuple(survivors[i] for i in clique) for c, clique in enumerate(cliques)}
    )
    trace = CollapseTrace(
        events=tuple(("row", x, y) for x, y in dominator.items()),
        row_phases=1,
        row_candidate_tests=tests,
    )
    return CoreResult(matrix, RetractionMap.from_dominators(range(n), dominator), trace)


def rips_snapshot(D: np.ndarray, t: float) -> ComplexMatrix:
    """Maximal-simplex matrix of the Rips complex of *D* at threshold *t*.

    Columns are numbered in lexicographic order of their vertex tuples, so
    the snapshot is a pure function of ``(D, t)``.  Bron-Kerbosch yields
    each maximal clique exactly once, so no maximality check is needed.
    """
    cliques = maximal_cliques(neighborhood_bitsets(D, t))
    return ComplexMatrix.from_columns(dict(enumerate(cliques)))


def count_rips_simplices(D: np.ndarray, t: float) -> int:
    """Total number of simplices (all dimensions) of the Rips complex at *t*.

    Counts the non-empty cliques of the neighbourhood graph directly by
    recursion over bitsets, without materialising them.
    """
    adj = neighborhood_bitsets(D, t)

    def count_from(P: int) -> int:
        total = 1
        while P:
            low = P & -P
            v = low.bit_length() - 1
            P ^= low
            total += count_from(P & adj[v])
        return total

    return count_from((1 << D.shape[0]) - 1) - 1
