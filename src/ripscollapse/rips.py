"""Vietoris-Rips snapshot complexes from point clouds or distance matrices.

A snapshot at threshold ``t`` is the clique complex of the graph connecting
points at distance ``<= t``; its maximal simplices are the maximal cliques,
found with Bron-Kerbosch over bitset adjacency (greedy max-degree pivot,
degeneracy ordering at the top level).  Vertex ids are point indices and are
identical across all snapshots, which is what lets the collapse cores of
consecutive snapshots be compared vertex-by-vertex downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    for t in range(X.shape[1]):
        d = X[:, t, None] - X[None, :, t]
        s += d * d
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


@dataclass(frozen=True, slots=True)
class SnapshotSchedule:
    """Uniform grid of thresholds ``start, start+step, ..., end``.

    Grades never exceed ``end``, except that the final grade is kept when it
    overshoots by mere rounding (within 1e-9 relative), so accumulated
    floating point drift cannot drop the last snapshot.
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

    def grades(self) -> list[float]:
        last = int(math.floor((self.end - self.start) / self.step + 0.5))
        if last > 0:
            top = self.start + last * self.step
            if top > self.end and not math.isclose(
                top, self.end, rel_tol=1e-9, abs_tol=1e-12
            ):
                last -= 1
        return [self.start + k * self.step for k in range(last + 1)]


def as_grades(sched: SnapshotSchedule | Iterable[float]) -> list[float]:
    """Normalise a schedule or an explicit grade sequence to a grade list."""
    if isinstance(sched, SnapshotSchedule):
        return sched.grades()
    grades = [float(g) for g in sched]
    if not grades:
        raise ValueError("at least one snapshot grade is required")
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


def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    remaining = set(range(n))
    alive = (1 << n) - 1
    order = []
    for _ in range(n):
        v = min(remaining, key=lambda u: ((adj[u] & alive).bit_count(), u))
        order.append(v)
        remaining.remove(v)
        alive &= ~(1 << v)
    return order


def _bron_kerbosch(R: list[int], P: int, X: int, adj: list[int], out: list[Simplex]) -> None:
    if P == 0 and X == 0:
        out.append(tuple(sorted(R)))
        return
    # pivot: vertex of P|X with the most neighbours inside P, smallest id wins
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
    ext = P & ~adj[best_u]
    while ext:
        low = ext & -ext
        v = low.bit_length() - 1
        ext ^= low
        _bron_kerbosch(R + [v], P & adj[v], X & adj[v], adj, out)
        P &= ~low
        X |= low


def maximal_cliques(adj: list[int]) -> list[Simplex]:
    """All maximal cliques (isolated vertices included), sorted lexicographically."""
    n = len(adj)
    order = _degeneracy_order(adj, n)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out: list[Simplex] = []
    for v in order:
        later = 0
        earlier = 0
        nb = adj[v]
        while nb:
            low = nb & -nb
            w = low.bit_length() - 1
            nb ^= low
            if pos[w] > pos[v]:
                later |= low
            else:
                earlier |= low
        _bron_kerbosch([v], later, earlier, adj, out)
    out.sort()
    return out


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
