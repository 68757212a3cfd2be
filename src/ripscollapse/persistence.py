"""Persistence diagrams via GF(2) boundary-matrix reduction.

Cells are reduced in the order the filtration gives them, which must put
faces first and never lower the grade; each boundary column is a Python-int
bitset over the faces of the dimension below, and the columns are reduced
left to right, one dimension block at a time (columns of different
dimensions never interact).  Dimensions are reduced top-down with clearing
(Chen & Kerber's twist): a cell already paired as the creator of a
higher-dimensional class has a column that reduces to zero, so that column
is never built.

The exact bottleneck distance between two diagrams, which compares the
collapsed pipeline's diagram with the uncollapsed oracle's, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._kernels import reduce_block
from .complexes import Simplex
from .errors import FiltrationOrderError, ReductionMemoryError
from .tower import Filtration

# Refuse reductions whose boundary blocks, counted as one bit per face and
# column rounded up to 64-bit words, would not fit comfortably in memory; at
# that size the expansion cap has usually fired already.
_MAX_BLOCK_BYTES = 1 << 30


@dataclass(frozen=True, slots=True)
class PersistenceDiagram:
    """Multiset of (dimension, birth, death) triples, death possibly inf."""

    pairs: tuple[tuple[int, float, float], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float, float]]) -> "PersistenceDiagram":
        prepared = []
        for dim, birth, death in pairs:
            if death < birth:
                raise ValueError(f"death {death} precedes birth {birth}")
            prepared.append((int(dim), float(birth), float(death)))
        return cls(tuple(sorted(prepared)))

    def __len__(self) -> int:
        return len(self.pairs)

    def dimensions(self) -> tuple[int, ...]:
        return tuple(sorted({dim for dim, _, _ in self.pairs}))

    def in_dimension(self, dim: int) -> tuple[tuple[float, float], ...]:
        return tuple((b, d) for k, b, d in self.pairs if k == dim)

    def finite(self, dim: int) -> tuple[tuple[float, float], ...]:
        return tuple((b, d) for k, b, d in self.pairs if k == dim and math.isfinite(d))

    def essential_births(self, dim: int) -> tuple[float, ...]:
        return tuple(b for k, b, d in self.pairs if k == dim and math.isinf(d))


@dataclass(frozen=True, slots=True)
class BoundaryMatrix:
    """A filtration's cells, in its own order, indexed for the reduction.

    ``by_dim[d]`` lists the indices into ``cells`` of the dimension-``d``
    cells in order, and ``columns[i]`` holds the faces of cell ``i`` as
    positions in ``by_dim[d - 1]``, unsorted (empty for a vertex).
    """

    cells: tuple[tuple[Simplex, float], ...]
    by_dim: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def from_filtration(cls, filtration: Filtration) -> "BoundaryMatrix":
        """Index *filtration* in one pass that also checks its order.

        Raises :class:`FiltrationOrderError` at the first cell that is
        empty, repeats an earlier one, lacks a face among the cells before
        it, or has a grade that is NaN or below its predecessor's.
        """
        cells = filtration.cells
        pos: dict[Simplex, int] = {}
        by_dim: list[list[int]] = []
        columns: list[tuple[int, ...]] = []
        last = -math.inf
        for i, (s, grade) in enumerate(cells):
            # written so that a NaN grade fails it too
            if not grade >= last:
                raise FiltrationOrderError(
                    f"cell {s} has grade {grade}, not at or above its predecessor's {last}", i
                )
            last = grade
            if s in pos:
                raise FiltrationOrderError(f"duplicate cell {s}", i)
            faces = []
            if len(s) > 1:
                for j in range(len(s)):
                    face = s[:j] + s[j + 1 :]
                    f = pos.get(face)
                    if f is None:
                        raise FiltrationOrderError(f"cell {s} is missing face {face}", i)
                    faces.append(f)
            elif not s:
                raise FiltrationOrderError("the empty simplex is not a cell", i)
            d = len(s) - 1
            if d == len(by_dim):
                by_dim.append([])
            cells_d = by_dim[d]
            pos[s] = len(cells_d)
            cells_d.append(i)
            columns.append(tuple(faces))
        return cls(cells, tuple(map(tuple, by_dim)), tuple(columns))


def _reduce(matrix: BoundaryMatrix):
    """Run the bitset reduction; return (pairs, essential) as cell indices."""
    by_dim = matrix.by_dim
    paired = [False] * len(matrix.cells)
    pairs: list[tuple[int, int]] = []

    for p in range(len(by_dim) - 1, 0, -1):
        # clearing: a cell that creates a class killed in dimension p + 1
        # has a column that reduces to zero, so it is never built; no dim-p
        # cell is paired as a destroyer before this block is built
        cols_g = [g for g in by_dim[p] if not paired[g]]
        if not cols_g:
            continue
        rows_g = by_dim[p - 1]
        block_bytes = len(cols_g) * ((len(rows_g) + 63) // 64) * 8
        if block_bytes > _MAX_BLOCK_BYTES:
            raise ReductionMemoryError(p, block_bytes, _MAX_BLOCK_BYTES)
        block = []
        for g in cols_g:
            c = 0
            for f in matrix.columns[g]:
                c |= 1 << f
            block.append(c)
        lows = reduce_block(block)
        del block  # free this block before the next one is built

        for g, low in zip(cols_g, lows):
            if low >= 0:
                creator = rows_g[low]
                pairs.append((creator, g))
                paired[creator] = True
                paired[g] = True

    essential = [i for i, done in enumerate(paired) if not done]
    return pairs, essential


def compute_persistence(
    filtration: Filtration,
    *,
    include_zero_pairs: bool = False,
) -> PersistenceDiagram:
    """Persistence diagram of a filtration over the two-element field.

    The cells are reduced in the filtration's own order, which must list
    every face before its cofaces and never lower the grade; a cell that
    breaks this raises :class:`FiltrationOrderError`.  Within one grade the
    order does not change the diagram.

    Zero-length pairs (birth equal to death) are computed but left out of
    the diagram unless *include_zero_pairs* is set; essential classes get an
    infinite death.
    """
    matrix = BoundaryMatrix.from_filtration(filtration)
    pairs, essential = _reduce(matrix)
    cells = matrix.cells
    out: list[tuple[int, float, float]] = []
    for creator, destroyer in pairs:
        birth = cells[creator][1]
        death = cells[destroyer][1]
        if birth == death and not include_zero_pairs:
            continue
        out.append((len(cells[creator][0]) - 1, birth, death))
    for i in essential:
        out.append((len(cells[i][0]) - 1, cells[i][1], math.inf))
    return PersistenceDiagram.from_pairs(out)


# -- bottleneck distance ---------------------------------------------------


def _augment(
    root: int,
    adj: Sequence[Sequence[int]],
    dist: list[float],
    match_l: list[int],
    match_r: list[int],
) -> bool:
    """Depth-first search for an augmenting path from free *root* along the
    BFS layers in *dist*, with an explicit stack; flips the path if found.

    A left vertex whose search fails gets an infinite layer so later searches
    of the same phase skip it.
    """
    path = [root]  # left vertices of the current alternating path
    via: list[int] = []  # via[k] is the right vertex between path[k] and path[k + 1]
    untried = [iter(adj[root])]  # per path entry, its neighbours not yet tried
    while path:
        u = path[-1]
        for v in untried[-1]:
            w = match_r[v]
            if w == -1:
                via.append(v)
                for x, y in zip(path, via):
                    match_l[x] = y
                    match_r[y] = x
                return True
            if dist[w] == dist[u] + 1:
                path.append(w)
                via.append(v)
                untried.append(iter(adj[w]))
                break
        else:
            dist[u] = math.inf
            path.pop()
            untried.pop()
            if via:
                via.pop()
    return False


def _hopcroft_karp(adj: Sequence[Sequence[int]], n_left: int, n_right: int) -> int:
    """Maximum bipartite matching size."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    inf = math.inf
    size = 0
    while True:
        dist = [inf] * n_left
        queue = [u for u in range(n_left) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        reachable_free = False
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free:
            return size
        for u in range(n_left):
            if match_l[u] == -1 and _augment(u, adj, dist, match_l, match_r):
                size += 1


def _finite_matching_feasible(
    a_pts: Sequence[tuple[float, float]],
    b_pts: Sequence[tuple[float, float]],
    r: float,
) -> bool:
    """Can all finite points be matched within radius r (diagonal allowed)?"""
    n, m = len(a_pts), len(b_pts)
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for i, (ab, ad) in enumerate(a_pts):
        for j, (bb, bd) in enumerate(b_pts):
            if max(abs(ab - bb), abs(ad - bd)) <= r:
                adj[i].append(j)
        if (ad - ab) / 2.0 <= r:
            adj[i].append(m + i)
    for j, (bb, bd) in enumerate(b_pts):
        if (bd - bb) / 2.0 <= r:
            adj[n + j].append(j)
        adj[n + j].extend(range(m, m + n))
    return _hopcroft_karp(adj, n + m, m + n) == n + m


def bottleneck_distance(
    A: PersistenceDiagram, B: PersistenceDiagram, dim: int
) -> float:
    """Exact bottleneck distance between the dimension-*dim* parts of A and B.

    Finite points may be matched to the diagonal; essential classes match
    only essential classes (infinity when their counts differ).  The finite
    part is solved by binary search over the achievable radii with a
    Hopcroft-Karp feasibility test; the essential part is the minimax of the
    sorted birth pairing.
    """
    a_ess = sorted(A.essential_births(dim))
    b_ess = sorted(B.essential_births(dim))
    if len(a_ess) != len(b_ess):
        return math.inf
    ess = max((abs(x - y) for x, y in zip(a_ess, b_ess)), default=0.0)

    a_fin = A.finite(dim)
    b_fin = B.finite(dim)
    if not a_fin and not b_fin:
        return ess

    candidates = {0.0}
    for ab, ad in a_fin:
        candidates.add((ad - ab) / 2.0)
        for bb, bd in b_fin:
            candidates.add(max(abs(ab - bb), abs(ad - bd)))
    for bb, bd in b_fin:
        candidates.add((bd - bb) / 2.0)
    ordered = sorted(candidates)

    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _finite_matching_feasible(a_fin, b_fin, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(ess, ordered[lo])
