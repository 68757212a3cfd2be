"""Persistence diagrams via GF(2) boundary-matrix reduction.

A filtration is a sequence of ``(simplex, grade)`` pairs in face-first,
non-decreasing order, and its cells are reduced in that order; each boundary
column is the index's tuple of face positions in the dimension below, and
the columns are reduced left to right, one dimension block at a time
(columns of different dimensions never interact).  Dimensions are reduced
top-down with clearing (Chen & Kerber's twist): a cell already paired as the
creator of a higher-dimensional class has a column that reduces to zero, so
that column is never built.  Of the columns built, only those whose low
collides are packed into Python-int bitsets (see :mod:`ripscollapse._kernels`).

Two bounds on the memory a run holds raise :class:`ReductionMemoryError`:
the index refuses a batch that would take it past a cell budget, and the
kernel a block once the columns it has packed pass a byte limit.

One checked builder, behind :meth:`BoundaryMatrix.from_filtration`, indexes
every filtration for the reduction, the tower's too as it is assembled.  It
checks each batch of cells in C-level passes and indexes each maximal run
of same-dimension cells in one step, since no cell of a run is a face of
another; a batch whose runs are short, and the rest of a batch from the
first run that fails a check, are indexed one cell at a time, so an error
always names the first failing cell.  An edge must list its vertices in
increasing order; a higher cell whose faces are all cells then does too.

The exact bottleneck distance between two diagrams, which compares the
collapsed pipeline's diagram with the uncollapsed oracle's, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, compress, count, pairwise, repeat, starmap
from operator import itemgetter, le, lt, ne
from typing import Iterable, Sequence

from ._kernels import reduce_block
from .complexes import Simplex
from .errors import FiltrationOrderError, ReductionMemoryError

# The most cells an index may hold.  An indexed cell costs about 410-495 B
# of peak RSS (its simplex, grade, face tuple and position), so the budget
# holds a run to about half a GiB.
_MAX_CELLS = 1 << 20

# The most bytes of packed columns the kernel may hold for one block.
_MAX_PACKED_BYTES = 1 << 30

# The builder indexes a batch run by run only when its runs of same-dimension
# cells average at least this many cells: shorter runs do not repay their
# set-up, and the tower emits many batches of runs of two or three cells.
_SHORT_RUN = 16

_simplex = itemgetter(0)
_grade = itemgetter(1)


@dataclass(frozen=True, slots=True)
class PersistenceDiagram:
    """Multiset of (dimension, birth, death) triples, death possibly inf."""

    pairs: tuple[tuple[int, float, float], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float, float]]) -> "PersistenceDiagram":
        prepared = []
        for dim, birth, death in pairs:
            birth, death = float(birth), float(death)
            if not math.isfinite(birth):
                raise ValueError(f"birth {birth} is not finite")
            if math.isnan(death):
                raise ValueError(f"death of the class born at {birth} is NaN")
            if death < birth:
                raise ValueError(f"death {death} precedes birth {birth}")
            prepared.append((int(dim), birth, death))
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
    def from_filtration(cls, filtration: Iterable[tuple[Simplex, float]]) -> "BoundaryMatrix":
        """Index the ``(simplex, grade)`` pairs of *filtration*, checking
        their order: after one pass over the grades, each maximal run of
        same-dimension cells is indexed in one step.

        Raises :class:`FiltrationOrderError` at the first cell that is
        empty, is an edge whose vertices do not increase, repeats an
        earlier one, lacks a face among the cells before it, or has a grade
        that is NaN, infinite or below its predecessor's; the index and
        message are those of a scan that checks one cell at a time.
        More cells than the cell budget raise :class:`ReductionMemoryError`
        before any is indexed.
        """
        cells = tuple(filtration)
        index = _Index()
        index.emit(cells)
        # the grades are in order now, so only the ends can be infinite
        if cells and not (math.isfinite(cells[0][1]) and math.isfinite(cells[-1][1])):
            i = next(i for i, (_, g) in enumerate(cells) if math.isinf(g))
            raise FiltrationOrderError(f"cell {cells[i][0]} has non-finite grade {cells[i][1]}", i)
        index.cells = cells  # so the matrix shares the input tuple
        return index.matrix()


class _Index:
    """A filtration's :class:`BoundaryMatrix`, built as its cells are emitted
    (by the tower while it is assembled); ``pos`` maps every cell emitted to
    its position within its dimension, which never changes."""

    __slots__ = ("cells", "pos", "by_dim", "columns", "last")

    def __init__(self) -> None:
        self.cells: list[tuple[Simplex, float]] = []
        self.pos: dict[Simplex, int] = {}
        self.by_dim: list[list[int]] = []
        self.columns: list[tuple[int, ...]] = []
        self.last = -math.inf

    def emit(self, pairs: Sequence[tuple[Simplex, float]]) -> None:
        """Append the sequence *pairs* of ``(simplex, grade)`` pairs to the
        filtration, with the checks of :meth:`BoundaryMatrix.from_filtration`.

        The grades are checked in one pass, then each maximal run of
        same-dimension cells is indexed in one step by :meth:`_run`.  The
        first run that fails a check, and every cell after it, are indexed
        one cell at a time, raising :class:`FiltrationOrderError` at the
        first failing cell; so is a batch whose runs are too short to repay
        their set-up.
        """
        _check_cells(len(self.cells) + len(pairs))
        done = 0
        # written so that a NaN grade fails it too
        if len(pairs) >= _SHORT_RUN and all(
            starmap(le, pairwise(chain((self.last,), map(_grade, pairs))))
        ):
            ends = _run_ends(pairs)
            if len(pairs) >= _SHORT_RUN * len(ends):
                for stop in ends:
                    if not self._run(pairs[done:stop]):
                        break
                    done = stop
        # the rest one cell at a time, raising at the first that fails
        cells, pos, by_dim, columns = self.cells, self.pos, self.by_dim, self.columns
        last = self.last
        lookup = pos.get
        for i, cell in enumerate(pairs[done:], len(cells)):
            s, grade = cell
            if not grade >= last:
                raise FiltrationOrderError(
                    f"cell {s} has grade {grade}, not at or above its predecessor's {last}", i
                )
            last = grade
            d = len(s) - 1
            if d > 0:
                if d == 1:
                    try:
                        increasing = s[0] < s[1]
                    except TypeError:  # vertices that do not compare
                        increasing = False
                    if not increasing:
                        raise FiltrationOrderError(
                            f"edge {s} is not in increasing vertex order", i
                        )
                faces = tuple(map(lookup, combinations(s, d)))
                if None in faces:
                    face = next(f for f in combinations(s, d) if f not in pos)
                    raise FiltrationOrderError(f"cell {s} is missing face {face}", i)
            elif d < 0:
                raise FiltrationOrderError("the empty simplex is not a cell", i)
            else:
                faces = ()
            if d == len(by_dim):
                by_dim.append([])
            cells_d = by_dim[d]
            pos[s] = len(cells_d)
            # the i cells before are distinct, so a repeat leaves i entries
            if len(pos) == i:
                raise FiltrationOrderError(f"duplicate cell {s}", i)
            cells_d.append(i)
            cells.append(cell)
            columns.append(faces)
        self.last = last

    def _run(self, run: Sequence[tuple[Simplex, float]]) -> bool:
        """Index *run*, cells of one dimension in order, in one step, or
        index none of them and return False if one fails a check.

        No cell of the run is a face of another, so every face is looked up
        among the cells before the run.  An edge must list its vertices in
        increasing order; by induction a higher cell whose faces are all
        cells then does too.
        """
        simplices = list(map(_simplex, run))
        d = len(simplices[0]) - 1
        pos, by_dim = self.pos, self.by_dim
        try:
            if d < 0 or d == 1 and not all(starmap(lt, simplices)):
                return False
            if d:
                # every face of the run, looked up in one pass and grouped
                # d + 1 to a cell
                faces_in_order = chain.from_iterable(map(combinations, simplices, repeat(d)))
                positions = map(pos.__getitem__, faces_in_order)
                faces = list(zip(*[positions] * (d + 1)))
            else:
                faces = repeat((), len(simplices))
        except (KeyError, TypeError):  # a missing face, or vertices that do not compare
            return False
        if d == len(by_dim):
            by_dim.append([])
        cells_d = by_dim[d]
        n = len(pos)
        pos.update(zip(simplices, count(len(cells_d))))
        if len(pos) != n + len(simplices):
            # a cell repeats: restore the positions the run overwrote
            for s in simplices:
                pos.pop(s, None)
            cells = self.cells
            for k, i in enumerate(cells_d):
                pos[cells[i][0]] = k
            return False
        i = len(self.cells)
        cells_d.extend(range(i, i + len(simplices)))
        self.cells.extend(run)
        self.columns.extend(faces)
        self.last = run[-1][1]
        return True

    def matrix(self) -> BoundaryMatrix:
        return BoundaryMatrix(
            tuple(self.cells), tuple(map(tuple, self.by_dim)), tuple(self.columns)
        )


def _run_ends(pairs: Sequence[tuple[Simplex, float]]) -> list[int]:
    """The end of each maximal run of same-dimension cells in *pairs*."""
    ends = list(compress(count(1), starmap(ne, pairwise(map(len, map(_simplex, pairs))))))
    ends.append(len(pairs))
    return ends


def _check_cells(held: int) -> None:
    """Raise :class:`ReductionMemoryError` when an index of *held* cells
    would pass the cell budget."""
    if held > _MAX_CELLS:
        raise ReductionMemoryError(held, _MAX_CELLS, "cells")


def compute_persistence(
    filtration: Iterable[tuple[Simplex, float]],
    *,
    include_zero_pairs: bool = False,
) -> PersistenceDiagram:
    """Persistence diagram of a filtration over the two-element field.

    *filtration* is any sequence of ``(simplex, grade)`` pairs.  The cells
    are reduced in its own order, which must list every face before its
    cofaces and never lower the grade, and every grade must be finite; a
    cell that breaks this raises :class:`FiltrationOrderError`.  Within one
    grade the order does not
    change the diagram.

    Zero-length pairs (birth equal to death) are computed but left out of
    the diagram unless *include_zero_pairs* is set; essential classes get an
    infinite death.

    A filtration of more cells than the cell budget raises
    :class:`ReductionMemoryError` before any cell is indexed, and so does a
    block whose packed columns pass the kernel's byte limit.
    """
    return _diagram(BoundaryMatrix.from_filtration(filtration), include_zero_pairs)


def _diagram(matrix: BoundaryMatrix, include_zero_pairs: bool = False) -> PersistenceDiagram:
    """Reduce an indexed filtration and read off its diagram: each pair as
    its block finds it, then an essential class for each cell left unpaired."""
    cells, by_dim, columns = matrix.cells, matrix.by_dim, matrix.columns
    paired = [False] * len(cells)
    out: list[tuple[int, float, float]] = []

    for p in range(len(by_dim) - 1, 0, -1):
        # clearing: a cell that creates a class killed in dimension p + 1
        # has a column that reduces to zero, so it is never built; no dim-p
        # cell is paired as a destroyer before this block is built
        cols_g = [g for g in by_dim[p] if not paired[g]]
        if not cols_g:
            continue
        rows_g = by_dim[p - 1]
        # the index's own face tuples: the kernel packs only colliding columns
        block = [columns[g] for g in cols_g]
        lows = reduce_block(block, _MAX_PACKED_BYTES)
        del block  # free the packed columns before the next block

        for g, low in zip(cols_g, lows):
            if low >= 0:
                creator = rows_g[low]
                paired[creator] = True
                paired[g] = True
                birth, death = cells[creator][1], cells[g][1]
                if birth != death or include_zero_pairs:
                    out.append((p - 1, birth, death))

    out.extend((len(s) - 1, g, math.inf) for (s, g), done in zip(cells, paired) if not done)
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
