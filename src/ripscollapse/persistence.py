"""Persistence diagrams via GF(2) boundary-matrix reduction.

A filtration is a sequence of ``(simplex, grade)`` pairs in face-first,
non-decreasing order, and its cells are reduced in that order.  Its
boundary index, a :class:`BoundaryMatrix`, holds per dimension the cells'
places in the filtration, their grades and an array of their faces'
positions in the dimension below; each dimension is one block of columns,
and columns of different dimensions never interact.  Dimensions are
reduced top-down with clearing (Chen & Kerber's twist): a cell already
paired as the creator of a higher-dimensional class has a column that
reduces to zero, so that column is never built.  Each block's lows are its
rows' largest faces, taken in one NumPy pass; only the columns whose low
collides are packed into Python-int bitsets (see :mod:`ripscollapse._kernels`),
and the pairs are read off the final lows one dimension at a time.

Two bounds on the memory a run holds raise :class:`ReductionMemoryError`:
the index refuses a filtration of more cells than a cell budget (so does
the tower, as it emits them), and the kernel a block once the columns it
has packed pass a byte limit.

One checked builder, behind :meth:`BoundaryMatrix.from_filtration`, indexes
every filtration for the reduction, the tower's and the oracle's alike.  It
checks the cells and finds the faces of each dimension in one NumPy pass.
Each cell gets a 64-bit key, the wrapping sum of a fixed mix of its vertex
ids, so a face's key is its cell's key less the mix of the vertex it drops,
and is looked up among the sorted keys of the dimension below.  Every face
found is then checked exactly, one face column at a time.  A cell that is
not a vertex tuple with a real grade, a grade that is NaN or below its
predecessor's, the empty simplex, a missing or later face, an edge whose
vertices do not increase, a key shared within a dimension (as a repeat's
is), or vertex ids that are not integers send every cell to a scan that
indexes one cell at a time: it raises at the first failing cell, with the
index and message of a check of each cell in turn, or, when nothing was
wrong but a key, builds the same index.  So the keys never decide a result.
An edge must list its vertices in increasing order; a higher cell whose
faces are all cells then does too.

The exact bottleneck distance between two diagrams, which compares the
collapsed pipeline's diagram with the uncollapsed oracle's, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from numbers import Real
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from ._kernels import reduce_block
from .complexes import Simplex
from .errors import FiltrationOrderError, ReductionMemoryError

# The most cells an index, or the tower that emits them, may hold.  An
# indexed cell costs a few hundred bytes of peak RSS (its simplex and grade,
# its face positions, and a few words per vertex while the faces are
# found), as a tower's run grows on circles of 1,000 and 2,000 points, so
# the budget holds a run to about a third of a GiB.
_MAX_CELLS = 1 << 20

# The most bytes of packed columns the kernel may hold for one block.
_MAX_PACKED_BYTES = 1 << 30

# splitmix64's finaliser, the fixed mix of a vertex id into its share of a key
_MIX = (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)

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


@dataclass(frozen=True, slots=True, eq=False)
class BoundaryMatrix:
    """A filtration's cells, in its own order, indexed for the reduction.

    For each dimension ``d``, ``by_dim[d]`` holds the indices into ``cells``
    of the dimension-``d`` cells in order, ``grades[d]`` their grades, and
    ``faces[d]``, an ``n_d x (d + 1)`` array, the positions in
    ``by_dim[d - 1]`` of each cell's faces, in ``itertools.combinations``
    order (``n_0 x 0`` for the vertices).  Two matrices are equal only when
    they are the same object.
    """

    cells: tuple[tuple[Simplex, float], ...]
    by_dim: tuple[np.ndarray, ...]
    faces: tuple[np.ndarray, ...]
    grades: tuple[np.ndarray, ...]

    @classmethod
    def from_filtration(cls, filtration: Iterable[tuple[Simplex, float]]) -> "BoundaryMatrix":
        """Index the ``(simplex, grade)`` pairs of *filtration*, checking
        their order, and find the faces of each dimension in one pass.

        Raises :class:`FiltrationOrderError` at the first cell that is not
        a hashable vertex tuple with a real grade, is empty, is an edge
        whose vertices do not increase, repeats an earlier one, lacks a face
        among the cells before it, or has a grade that is NaN or below its
        predecessor's, with the index and message of a scan that checks one
        cell at a time; then, at the first cell whose grade is infinite.  More cells than the cell budget raise
        :class:`ReductionMemoryError` before any is indexed.
        """
        cells = tuple(filtration)
        _check_cells(len(cells))
        matrix = _located(cells) or _scan(cells)
        # the grades are in order now, so only the ends can be infinite
        if cells and not (math.isfinite(cells[0][1]) and math.isfinite(cells[-1][1])):
            i = next(i for i, (_, g) in enumerate(cells) if math.isinf(g))
            raise FiltrationOrderError(f"cell {cells[i][0]} has non-finite grade {cells[i][1]}", i)
        return matrix


def _mixed(vertices: np.ndarray) -> np.ndarray:
    """Each vertex id's share of a key: a fixed 64-bit mix of the id."""
    a, m1, b, m2, c = _MIX
    x = vertices.astype(np.uint64)
    x ^= x >> a
    x *= m1
    x ^= x >> b
    x *= m2
    x ^= x >> c
    return x


def _located(cells: tuple[tuple[Simplex, float], ...]) -> BoundaryMatrix | None:
    """The index of *cells*, checked in one pass but for infinite grades,
    with the faces of each dimension located by key and checked exactly,
    one face column at a time; None when a check fails or a vertex id is
    not an integer."""
    simplices = list(map(_simplex, cells))
    given = list(map(_grade, cells))
    kinds = set(map(type, given))
    # a float array would read "1" as 1.0 and None as NaN
    if not (
        all(issubclass(t, tuple) for t in set(map(type, simplices)))
        and all(issubclass(t, Real) for t in kinds)
    ):
        return None
    grades = np.fromiter(given, np.float64, len(cells))
    # and would round an int past 2**53, so its order is checked on the grades given
    if kinds != {float} and grades.tolist() != given:
        return None
    del given  # the face pass needs only the float grades
    if np.isnan(grades).any() or (grades[1:] < grades[:-1]).any():
        return None
    sizes = np.fromiter(map(len, simplices), np.intp, len(cells))
    per_dim = np.bincount(sizes, minlength=1)
    # the empty simplex, or a dimension with no cells below a cell
    if per_dim[0] or not per_dim[1:].all():
        return None
    # the simplices in (dimension, filtration) order
    order = np.argsort(sizes, kind="stable")
    simplices = list(map(simplices.__getitem__, order.tolist()))
    by_dim, faces = [], []
    below = None  # the dimension below: its vertices, indices and keys
    hi = 0
    for d, n in enumerate(per_dim[1:].tolist()):
        lo, hi = hi, hi + n
        rows = order[lo:hi]
        try:
            ids = np.array(list(chain.from_iterable(simplices[lo:hi])))
        except ValueError:  # vertices that are sequences of unequal lengths
            return None
        if ids.dtype.kind not in "ib" or ids.ndim != 1:  # strings, floats, ids past 64 bits
            return None
        # row c holds each cell's c-th vertex id, and its share of the key
        vertices = ids.reshape(n, d + 1).T.copy()
        mix = _mixed(vertices)
        key = mix.sum(axis=0)  # wraps modulo 2**64
        located = np.empty((n, d + 1 if d else 0), np.intp)
        if d:
            if d == 1 and not (vertices[0] < vertices[1]).all():
                return None
            vertices_b, rows_b, keys_b = below
            for k in range(d + 1):
                j = d - k  # combinations order drops the last vertex first
                found = keys_b.find(key - mix[j])
                if not (
                    all(
                        (b.take(found) == v).all()
                        for b, v in zip(vertices_b, chain(vertices[:j], vertices[j + 1 :]))
                    )
                    and (rows_b.take(found) < rows).all()
                ):
                    return None
                located[:, k] = found
        keys = _Keys(key)
        if not keys.distinct:
            return None
        below = vertices, rows, keys
        by_dim.append(rows)
        faces.append(located)
    return _matrix(cells, by_dim, faces, grades)


class _Keys:
    """One dimension's keys, sorted and bucketed by their top bits so that
    a key is found in a step or two where a binary search takes many."""

    __slots__ = ("distinct", "padded", "rows", "first", "shift")

    def __init__(self, key: np.ndarray) -> None:
        self.rows = np.argsort(key)
        # a last key above every other stops each walk within the keys
        self.padded = padded = np.empty(len(key) + 1, np.uint64)
        ordered = key.take(self.rows, out=padded[:-1])
        padded[-1] = 2**64 - 1
        self.distinct = not (ordered[1:] == ordered[:-1]).any()
        bits = len(key).bit_length()  # about one key per bucket
        self.shift = 64 - bits
        # signed, since bincount refuses uint64 before NumPy 2.3
        load = np.bincount((ordered >> self.shift).astype(np.intp), minlength=1 << bits)
        self.first = np.cumsum(load) - load  # each bucket's first key

    def find(self, needles: np.ndarray) -> np.ndarray:
        """The row of the least key at or above each needle (the last row
        when there is none), so the row of each needle that is a key."""
        at = self.first[needles >> self.shift]
        padded = self.padded
        # walk each needle up its bucket: it passes only keys below it
        step = np.flatnonzero(padded[at] < needles)
        while step.size:
            at[step] += 1
            step = step[padded[at[step]] < needles[step]]
        np.minimum(at, len(self.rows) - 1, out=at)
        return self.rows[at]


def _scan(cells: Sequence[tuple[Simplex, float]]) -> BoundaryMatrix:
    """The index of *cells*, built one cell at a time with every check of
    :meth:`BoundaryMatrix.from_filtration` but for infinite grades, raising
    :class:`FiltrationOrderError` at the first cell that fails one."""
    pos: dict[Simplex, int] = {}
    lookup = pos.get
    by_dim: list[list[int]] = []
    faces: list[list[tuple[int, ...]]] = []
    last = -math.inf
    for i, (s, grade) in enumerate(cells):
        try:
            hash(s)
            well_formed = isinstance(s, tuple) and isinstance(grade, Real)
        except TypeError:  # a cell or vertex that is not hashable
            well_formed = False
        if not well_formed:
            raise FiltrationOrderError(
                f"malformed cell {(s, grade)!r}: not a vertex tuple with a real grade", i
            )
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
                    raise FiltrationOrderError(f"edge {s} is not in increasing vertex order", i)
            column = tuple(map(lookup, combinations(s, d)))
            if None in column:
                face = next(f for f in combinations(s, d) if f not in pos)
                raise FiltrationOrderError(f"cell {s} is missing face {face}", i)
        elif d < 0:
            raise FiltrationOrderError("the empty simplex is not a cell", i)
        else:
            column = ()
        if d == len(by_dim):
            by_dim.append([])
            faces.append([])
        cells_d = by_dim[d]
        pos[s] = len(cells_d)
        # the i cells before are distinct, so a repeat leaves i entries
        if len(pos) == i:
            raise FiltrationOrderError(f"duplicate cell {s}", i)
        cells_d.append(i)
        faces[d].append(column)
    return _matrix(
        tuple(cells),
        [np.array(rows, np.intp) for rows in by_dim],
        [np.array(f, np.intp).reshape(len(f), d + 1 if d else 0) for d, f in enumerate(faces)],
        np.fromiter(map(_grade, cells), np.float64, len(cells)),
    )


def _matrix(
    cells: tuple[tuple[Simplex, float], ...],
    by_dim: Sequence[np.ndarray],
    faces: Sequence[np.ndarray],
    grades: np.ndarray,
) -> BoundaryMatrix:
    """The :class:`BoundaryMatrix` of *cells* with their indices and faces
    per dimension, and each dimension's share of the *grades* of *cells*."""
    return BoundaryMatrix(cells, tuple(by_dim), tuple(faces), tuple(grades[i] for i in by_dim))


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

    *filtration* is any sequence of ``(simplex, grade)`` pairs, each a
    tuple of hashable vertices and a real number.  The cells are reduced in
    its own order, which must list every face before its cofaces and never
    lower the grade, and every grade must be finite; a cell that breaks
    this raises :class:`FiltrationOrderError`.  Within one grade the order
    does not change the diagram.

    Zero-length pairs (birth equal to death) are computed but left out of
    the diagram unless *include_zero_pairs* is set; essential classes get an
    infinite death.

    A filtration of more cells than the cell budget raises
    :class:`ReductionMemoryError` before any cell is indexed, and so does a
    block whose packed columns pass the kernel's byte limit.
    """
    return _diagram(BoundaryMatrix.from_filtration(filtration), include_zero_pairs)


def _diagram(matrix: BoundaryMatrix, include_zero_pairs: bool = False) -> PersistenceDiagram:
    """Reduce an indexed filtration and read off its diagram: the pairs of
    each block from its final lows, then an essential class for each cell
    left unpaired."""
    faces, grades = matrix.faces, matrix.grades
    paired = [np.zeros(len(rows), bool) for rows in matrix.by_dim]
    out: list[tuple[int, float, float]] = []

    for p in range(len(faces) - 1, 0, -1):
        # clearing: a cell that creates a class killed in dimension p + 1
        # has a column that reduces to zero, so it is never built; no dim-p
        # cell is paired as a destroyer before this block is built
        live = np.flatnonzero(~paired[p])
        if not live.size:
            continue
        block = faces[p][live]
        lows = block.max(axis=1).tolist()
        reduce_block(block, lows, _MAX_PACKED_BYTES)
        del block  # free the block before the next one
        lows = np.array(lows, np.intp)
        hit = lows >= 0
        destroyers, creators = live[hit], lows[hit]
        paired[p][destroyers] = True
        paired[p - 1][creators] = True
        birth, death = grades[p - 1][creators], grades[p][destroyers]
        if not include_zero_pairs:
            real = birth != death
            birth, death = birth[real], death[real]
        out.extend(zip(repeat(p - 1), birth.tolist(), death.tolist()))

    for p, (done, births) in enumerate(zip(paired, grades)):
        out.extend(zip(repeat(p), births[~done].tolist(), repeat(math.inf)))
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
