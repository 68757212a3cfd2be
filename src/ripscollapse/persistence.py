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
the level join below, as it builds them), and the kernel a block once the
columns it has packed pass a byte limit.

The tower's filtration and the uncollapsed oracle's are both the clique
filtration of a graded graph, built by one level join, ``_level_join``, as
a :class:`CellArrays`.  The join builds each cell from two cells of the
level below, so it hands over each cell's faces with the cell, and the
index trusts them, checks them cheaply and reads itself off them.  It
carries a cell as its prefix, its face 0, and its last vertex, so it holds
the vertex rows of the vertices and the edges alone; the rows above, which
the index never reads, are built from the faces when first read.

Pairs from outside, ``(simplex, grade)`` with vertex ids of any hashable
kind, are indexed by :meth:`BoundaryMatrix.from_filtration` in one checked
key pass, :func:`_keyed`, which finds each dimension's faces in one NumPy
pass by exact integer keys (as Ripser indexes simplices): a key reads the
ranks of a cell's vertices among the vertex cells as digits, after the
position of its prefix for a long cell, so it names exactly one vertex
tuple.  A cell that is not a pair of a vertex tuple and a real grade, a
grade that is NaN or below its predecessor's, the empty simplex, a vertex
id that is not a vertex cell's, a missing or later face, an edge whose
vertices do not increase, or a key repeated within a dimension fails the
pass; a scan that checks one cell at a time then raises at the first faulty
cell, with its index and reason.  Arrays that a cheap check refuses are
indexed as their pairs, and so raise as their pairs do.

The exact bottleneck distance between two diagrams, which compares the
collapsed pipeline's diagram with the uncollapsed oracle's, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat, starmap, zip_longest
from numbers import Real
from operator import itemgetter, le, lt
from typing import Iterable, Sequence

import numpy as np

from ._kernels import reduce_block
from .complexes import Simplex
from .errors import FiltrationOrderError, ReductionMemoryError

# The most cells an index, or the level join that builds them, may hold.  A
# cell costs a few hundred bytes of peak RSS as a tower's run grows on
# circles of 1,000 and 2,000 points, so this holds a run to about 1/3 GiB.
_MAX_CELLS = 1 << 20

# The most bytes of packed columns the kernel may hold for one block.
_MAX_PACKED_BYTES = 1 << 30

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


class CellArrays:
    """A filtration given as per-dimension vertex arrays with each cell's
    faces, not as pairs.

    For each dimension ``d``, ``vertices[d]`` is an ``n_d x (d + 1)``
    integer array whose rows are the vertex ids of the dimension-``d``
    cells in filtration order, ``grades[d]`` their grades,
    ``positions[d]`` their indices in the filtration, and ``faces[d]`` the
    places of each cell's faces among the rows of dimension ``d - 1``, in
    ``itertools.combinations`` order (``n_0 x 0`` for the vertices).  The
    faces are trusted to be those of the vertex rows, as the join that
    builds them knows them: the index checks only that each is a cell placed
    before its coface and that no cell repeats.  :meth:`cells` gives pairs.

    The level join holds the rows of the vertices and the edges alone.  A
    row of a higher dimension is its face 0's row followed by the last
    vertex of its face 1's row, so those rows are built from the faces on
    the first read of ``vertices``, and kept; the index reads none of them.
    """

    __slots__ = ("_rows", "grades", "positions", "faces")

    def __init__(
        self, vertices: Sequence[np.ndarray], grades: Sequence[np.ndarray],
        positions: Sequence[np.ndarray], faces: Sequence[np.ndarray],
    ) -> None:
        self._rows, self.grades = tuple(vertices), tuple(grades)
        self.positions, self.faces = tuple(positions), tuple(faces)

    @property
    def vertices(self) -> tuple[np.ndarray, ...]:
        if any(rows is _DERIVED for rows in self._rows):
            built = list(self._rows)
            for d, faces in enumerate(self.faces):
                if built[d] is _DERIVED:
                    built[d] = _rows_above(built[d - 1], faces)
            self._rows = tuple(built)
        return self._rows

    def __len__(self) -> int:
        return sum(map(len, self.positions))

    def cells(self) -> tuple[tuple[Simplex, float], ...]:
        """The ``(simplex, grade)`` pairs, ordered by position (stably, so
        a position held twice keeps the lower dimension first).  Each pair
        is put in its place as it is made, and the cells of a dimension
        share one Python object per distinct vertex id and grade."""
        order = np.argsort(np.concatenate((np.empty(0, np.intp),) + self.positions), kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        cells = np.empty(len(order), object)
        start = 0
        for v, g in zip(self.vertices, self.grades):
            pairs = zip(zip(*_shared(v).T.tolist()), _shared(g).tolist())
            cells[place[start : start + len(v)]] = np.fromiter(pairs, object, len(v))
            start += len(v)
        return tuple(cells)


# stands in the join's arrays for the rows of a level above the edges
_DERIVED = object()


def _rows_above(below: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The vertex rows of the cells whose *faces* are among the rows
    *below*: each cell's face 0's row followed by its face 1's last vertex."""
    return np.column_stack((below.take(faces[:, 0], axis=0), below[:, -1].take(faces[:, 1])))


def _shared(values: np.ndarray) -> np.ndarray:
    """*values* as an object array holding one Python object per distinct
    value, where ``tolist`` would make one per entry."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array(distinct.tolist(), object)[at.reshape(values.shape)]


@dataclass(frozen=True, slots=True, eq=False)
class BoundaryMatrix:
    """A filtration's cells, in its own order, indexed for the reduction.

    ``cells`` is the filtration as given: its pairs, or its
    :class:`CellArrays`.  For each dimension ``d``, ``by_dim[d]`` holds the
    indices in the filtration of the dimension-``d`` cells in order,
    ``grades[d]`` their grades, and ``faces[d]``, an ``n_d x (d + 1)``
    array, the positions in ``by_dim[d - 1]`` of each cell's faces, in
    ``itertools.combinations`` order (``n_0 x 0`` for the vertices).  Two
    matrices are equal only when they are the same object.
    """

    cells: tuple[tuple[Simplex, float], ...] | CellArrays
    by_dim: tuple[np.ndarray, ...]
    faces: tuple[np.ndarray, ...]
    grades: tuple[np.ndarray, ...]

    @classmethod
    def from_filtration(cls, filtration: Iterable[tuple[Simplex, float]]) -> "BoundaryMatrix":
        """Index the ``(simplex, grade)`` pairs of *filtration*, checking
        their order, and find the faces of each dimension in one pass.

        Raises :class:`FiltrationOrderError` at the first faulty cell (see
        the module docstring), with the index and message of a scan that
        checks one cell at a time; then at the first cell whose grade is
        infinite, or an int past the float range.  More cells than the cell
        budget raise :class:`ReductionMemoryError` before any is indexed.
        """
        cells = tuple(filtration)
        _check_cells(len(cells))
        matrix = _located(cells)
        if matrix is None:
            _scan(cells)  # raises at the first faulty cell
        # the grades are in order now, so only the ends can be infinite
        if cells and not (math.isfinite(cells[0][1]) and math.isfinite(cells[-1][1])):
            _refuse_non_finite(cells)
        return matrix


def _located(cells: tuple[tuple[Simplex, float], ...]) -> BoundaryMatrix | None:
    """The index of *cells*, checked in one pass but for infinite grades;
    None when a check fails.  The pairs, their types, the grade order and
    the vertex ids are checked here, and each cell's vertices ranked among
    the vertex cells; :func:`_keyed` checks and locates the faces."""
    pairs = all(issubclass(t, tuple) for t in set(map(type, cells))) and set(map(len, cells)) <= {2}
    if not pairs:
        return None
    simplices = list(map(_simplex, cells))
    given = list(map(_grade, cells))
    kinds = set(map(type, given))
    # a float array would read "1" as 1.0 and None as NaN
    if not (
        all(issubclass(t, tuple) for t in set(map(type, simplices)))
        and all(issubclass(t, Real) for t in kinds)
    ):
        return None
    try:
        grades = np.fromiter(given, np.float64, len(cells))
    except OverflowError:  # an int past the float range, which is not finite
        return None
    # and rounds an int past 2**53, so the order of such grades is checked as given
    if kinds != {float} and grades.tolist() != given and not all(map(le, given, given[1:])):
        return None
    del given  # the face pass needs only the float grades
    if np.isnan(grades).any() or (grades[1:] < grades[:-1]).any():
        return None
    sizes = np.fromiter(map(len, simplices), np.intp, len(cells))
    per_dim = np.bincount(sizes, minlength=1).tolist()
    # the empty simplex, or a dimension with no cells below a cell
    if per_dim[0] or not all(per_dim[1:]):
        return None
    # the cells in (dimension, filtration) order
    order = np.argsort(sizes, kind="stable")
    n_vertices, n_edges = (per_dim + [0, 0])[1:3]
    vertices = map(simplices.__getitem__, order[:n_vertices].tolist())
    edges = map(simplices.__getitem__, order[n_vertices : n_vertices + n_edges].tolist())
    try:
        # each vertex id's rank among the vertex cells; an id of none is a missing face
        rank = dict(zip(chain.from_iterable(vertices), range(n_vertices)))
        if not all(starmap(lt, edges)):
            return None
        ranks = np.fromiter(map(rank.get, chain.from_iterable(simplices)), np.int32, sizes.sum())
    except TypeError:  # an id that does not hash, a missing one, or an edge's that do not compare
        return None
    del simplices
    first = np.cumsum(sizes) - sizes  # where each cell's ranks start
    levels = (
        (rows, ranks[first[rows, None] + np.arange(d + 1)], grades[rows])
        for d, rows in enumerate(np.split(order, np.cumsum(per_dim[1:]))[:-1])
    )
    return _keyed(cells, n_vertices, len(per_dim) - 1, levels)


def _arrays_located(arrays: CellArrays) -> BoundaryMatrix | None:
    """The index of *arrays*, read off their faces once a vectorised pass
    has checked the positions, the grade order, the edges, the faces and
    that no cell repeats; None when a check fails.  Arrays whose shapes
    disagree, which no pairs show, raise :class:`FiltrationOrderError` at
    the count of cells of the dimensions below the first that disagrees.
    The rows the join derives from the faces are read nowhere here: only
    the vertices' and the edges' rows are."""
    vertices, positions, faces = arrays._rows, arrays.positions, arrays.faces
    below = 0
    for d, level in enumerate(zip_longest(vertices, arrays.grades, positions, faces)):
        v, g, p, f = map(np.shape, level)  # a missing array has shape ()
        n = p[0] if len(p) == 1 else -1
        if level[0] is _DERIVED:  # built from the faces, so of this shape
            v = (n, d + 1)
        if (v, g, p, f) != ((n, d + 1), (n,), (n,), (n, d + 1 if d else 0)):
            shapes = f"vertices {v}, grades {g}, positions {p} and faces {f}"
            raise FiltrationOrderError(f"dimension {d} of the arrays has shapes {shapes}", below)
        below += n
    if not vertices or not all(
        len(p) and (v is _DERIVED or v.dtype.kind == "i") and p.dtype.kind == f.dtype.kind == "i"
        for v, p, f in zip(vertices, positions, faces)
    ):
        return None  # no cells, or a dimension with no cells below a cell
    total = len(arrays)
    if any(p[0] < 0 or p[-1] >= total or (p[1:] <= p[:-1]).any() for p in positions):
        return None
    along = np.full(total, np.nan)
    for p, g in zip(positions, arrays.grades):
        along[p] = g
    # the positions increase in each dimension, so a NaN left is a position no cell holds
    if not (np.isfinite(along).all() and (along[1:] >= along[:-1]).all()):
        return None
    if len(vertices) > 1 and (vertices[1][:, 0] >= vertices[1][:, 1]).any():
        return None
    # every face is a cell below placed before its coface, and no cell repeats:
    # no vertex id, nor a higher cell's first two faces, which hold its vertices
    keys = [vertices[0][:, 0]]
    for p, f, lower in zip(positions[1:], faces[1:], positions):
        if f.min() < 0 or f.max() >= len(lower) or (lower.take(f) >= p[:, None]).any():
            return None
        keys.append(f[:, 0].astype(np.int64) * len(lower) + f[:, 1])
    repeated = any((k[1:] == k[:-1]).any() for k in map(np.sort, keys))
    return None if repeated else BoundaryMatrix(arrays, positions, faces, arrays.grades)


def _keyed(
    cells: tuple[tuple[Simplex, float], ...], n_vertices: int, n_dims: int, levels
) -> BoundaryMatrix | None:
    """The index of the pairs *cells*, given as *levels*: for each of its
    *n_dims* dimensions, lowest first, the cells' places in the filtration
    (which increase), their vertices' ranks among the *n_vertices* vertex
    cells (one row per cell) and their grades.  Each cell gets an exact key
    and its faces are located by key; None when a face is missing or comes
    later, or a key repeats within a dimension.  (The edges were checked to
    increase, so a higher cell whose faces are all cells does too.)"""
    # m vertices per digit run: a key of any dimension stays below 2**63
    m = 1
    while m < n_dims - 1 and _MAX_CELLS * n_vertices ** (m + 1) < 2**63:
        m += 1
    base = n_vertices**m
    by_dim, faces, grades = [], [], []
    keys = []  # keys[d]: dimension d's sorted keys and their positions

    def find(d: int, needle: np.ndarray) -> np.ndarray | None:
        """Each needle's position in dimension *d*, or None if one is no key there."""
        ordered, positions = keys[d]
        at = np.searchsorted(ordered, needle)
        np.minimum(at, len(ordered) - 1, out=at)
        return positions.take(at) if (ordered.take(at) == needle).all() else None

    for d, (rows, digits, level_grades) in enumerate(levels):
        n = len(rows)
        # a cell's key: the position of all but its last m vertices, then their digits
        stop = d % m + 1
        key = digits[:, :stop] @ _powers(n_vertices, stop)
        for stop in range(stop, d + 1, m):
            prefix = find(stop - 1, key)
            if prefix is None:
                return None
            key = prefix * base + digits[:, stop : stop + m] @ _powers(n_vertices, m)
        sort = np.argsort(key)
        ordered = key.take(sort)
        if (ordered[1:] == ordered[:-1]).any():  # a repeat
            return None
        located = np.empty((n, d + 1 if d else 0), np.intp)
        if d:
            # row c reads the digits of face c's last m vertices; face c lacks vertex d - c
            weights = np.zeros((d + 1, d + 1), np.int64)
            for c in range(d + 1):
                kept = [i for i in range(d + 1) if i != d - c][-m:]
                weights[c, kept] = _powers(n_vertices, len(kept))
            # the cells in key order keep each face's needles close to sorted
            needles = weights @ digits[sort].T
            if d > m:
                # face c's prefix is the face of the cell's prefix (vertices 0..p)
                # that lacks vertex d - c, or, if the prefix holds no such vertex, vertex p
                p = d - m
                drop = [p - min(d - c, p) for c in range(d + 1)]
                needles += faces[p][prefix[sort]][:, drop].T * base
            found = find(d - 1, needles)
            if found is None or not (by_dim[d - 1].take(found) < rows.take(sort)).all():
                return None
            located[sort] = found.T
        keys.append((ordered, sort))
        by_dim.append(rows)
        faces.append(located)
        grades.append(level_grades)
    return BoundaryMatrix(cells, tuple(by_dim), tuple(faces), tuple(grades))


def _powers(base: int, k: int) -> np.ndarray:
    """The weights that read *k* digits in *base*, most significant first."""
    return base ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _scan(cells: Sequence[tuple[Simplex, float]]) -> None:
    """Raise :class:`FiltrationOrderError` at the first cell that fails a
    check of :meth:`BoundaryMatrix.from_filtration` but for infinite
    grades, checking one cell at a time; when no cell does, at the first
    grade that is not finite, as an int past the float range refuses the
    index."""
    seen: set[Simplex] = set()
    last = -math.inf
    for i, cell in enumerate(cells):
        try:
            s, grade = cell
            hash(s)
        except (TypeError, ValueError):  # not a pair, or a simplex or vertex that is not hashable
            s = grade = None
        if not (isinstance(cell, tuple) and isinstance(s, tuple) and isinstance(grade, Real)):
            raise FiltrationOrderError(
                f"malformed cell {_shown(cell, repr)}: not a vertex tuple with a real grade", i
            )
        if not grade >= last:
            raise FiltrationOrderError(
                f"cell {_shown(s)} has grade {_shown(grade)}, "
                f"not at or above its predecessor's {_shown(last)}",
                i,
            )
        last = grade
        d = len(s) - 1
        if d < 0:
            raise FiltrationOrderError("the empty simplex is not a cell", i)
        if d == 1:
            try:
                increasing = s[0] < s[1]
            except TypeError:  # vertices that do not compare
                increasing = False
            if not increasing:
                raise FiltrationOrderError(f"edge {_shown(s)} is not in increasing vertex order", i)
        if d > 0:
            face = next((f for f in combinations(s, d) if f not in seen), None)
            if face is not None:
                raise FiltrationOrderError(f"cell {_shown(s)} is missing face {_shown(face)}", i)
        if s in seen:
            raise FiltrationOrderError(f"duplicate cell {_shown(s)}", i)
        seen.add(s)
    _refuse_non_finite(cells)
    raise AssertionError("no cell is faulty, yet the index refused the cells")


def _refuse_non_finite(cells: Sequence[tuple[Simplex, float]]) -> None:
    """Raise :class:`FiltrationOrderError` at the first of the pairs
    *cells* whose grade is infinite or an int past the float range."""
    for i, (s, grade) in enumerate(cells):
        try:
            if math.isfinite(grade):
                continue
        except OverflowError:  # an int past the float range, maybe too long to print
            grade = "past the float range"
        raise FiltrationOrderError(f"cell {_shown(s)} has non-finite grade {grade}", i)


def _shown(value: object, form=str) -> str:
    """*value* in a refusal's message: ``form(value)``, cut to 100
    characters, or its type's name where that would print an int past the
    interpreter's digit limit, alone or inside a tuple."""
    try:
        text = form(value)
    except ValueError:  # an int too long to print
        return f"<{type(value).__name__} holding an int too long to print>"
    return text if len(text) <= 100 else text[:97] + "..."


def _check_cells(held: int) -> None:
    """Raise :class:`ReductionMemoryError` when an index of *held* cells
    would pass the cell budget."""
    if held > _MAX_CELLS:
        raise ReductionMemoryError(held, _MAX_CELLS, "cells")


# the most vertex pairs one step of a sibling join tests at once
_JOIN_CHUNK = 1 << 16


def _level_join(
    vertex_at: np.ndarray, keys: np.ndarray, first: np.ndarray, grades: Sequence[float]
) -> CellArrays:
    """The clique (flag) filtration of a graded graph, as per-dimension
    arrays with each cell's faces.

    The graph's vertices are ``0 .. n - 1``, each included at the grade of
    index ``vertex_at[v]``, and its edges ``u < v`` the sorted keys
    ``u * n + v``, each included at the grade of index ``first``.  Every
    clique is a cell, at the latest grade of its vertices and edges, and
    the cells are in (grade, dimension, lexicographic) order.  They are
    built level by level in NumPy, with no tuple per clique (Zomorodian's
    inductive construction): the vertices, the edges in key order, then the
    cliques one vertex larger than a level's, with their faces, by
    :func:`_sibling_join`.  A level is carried in lexicographic order as
    each cell's last vertex, grade index and faces: face 0, the cell
    without its last vertex, is the row of its prefix in the level below
    (``u`` for an edge ``uv``), so no vertex row is built past the edges.
    Once the level above has read its faces, a level is sorted stably by
    grade, its faces renumbered, and placed at the offsets of the (grade,
    dimension) buckets.  The arrays hold the vertices' and the edges' rows;
    the rows above are built from the faces when first read (see
    :class:`CellArrays`).  Raises :class:`ReductionMemoryError` once the
    cells built pass the cell budget, checked once per join chunk.
    """
    n = len(vertex_at)
    u, v = np.divmod(keys, n)
    edges = np.column_stack((u, v))  # their faces are their vertices, which are in id order
    at = np.maximum(first, np.maximum(vertex_at.take(u), vertex_at.take(v)))
    held = n + len(keys)
    _check_cells(held)
    levels, placed, lookup = [], np.empty(0, np.int32), None
    rows, lexicographic = [], [np.arange(n)[:, None], edges]  # the rows held
    level, above = (None, vertex_at, np.empty((n, 0), np.intp)), (v, at, edges)
    while len(level[1]):
        if levels:  # the level above the edges is joined from them, and so on
            above, lookup, held = _sibling_join(*level, lookup, keys, first, n, held)
        order, *done, placed = _by_grade(*level[1:], placed)
        if lexicographic:
            rows.append(lexicographic.pop(0).take(order, axis=0))
        levels.append(done)
        level = above  # frees the level's lexicographic copy
    # the cells of one (grade, dimension) bucket are contiguous, buckets in that order
    counts = np.array([np.bincount(at, minlength=len(grades)) for at, _ in levels]).T
    bucket = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    bucket -= np.cumsum(counts, axis=0) - counts  # less the rows before it in its dimension
    along = np.asarray(grades, np.float64)
    return CellArrays(
        rows + [_DERIVED] * (len(levels) - len(rows)),
        [along.take(at) for at, _ in levels],
        [np.arange(len(at)) + bucket[:, d].take(at) for d, (at, _) in enumerate(levels)],
        [faces for _, faces in levels],
    )


def _by_grade(at: np.ndarray, faces: np.ndarray, below: np.ndarray) -> tuple:
    """The stable sort by grade of a level's cells at grade indices *at*
    with *faces*; their grade indices and faces in it, the faces renumbered
    by *below*, the place of each cell of the level below in its sort; and
    the place of each cell of this level."""
    order = np.argsort(at, kind="stable")
    placed = np.empty(len(order), np.int32)  # halves the faces the result holds
    placed[order] = np.arange(len(order))
    return order, at.take(order), below.take(faces.take(order, axis=0)), placed


def _sibling_join(
    last: np.ndarray, at: np.ndarray, faces: np.ndarray, lookup: tuple | None,
    keys: np.ndarray, first: np.ndarray, n: int, held: int,
) -> tuple[tuple, tuple, int]:
    """The cliques one vertex larger than the cliques of a level in
    lexicographic order, given as their *last* vertices, grade indices *at*
    and *faces* among the sorted level below, as ``(last, at, faces)`` in
    lexicographic order; the *lookup* of their pairs; and *held*, the cells
    built before them, plus their count, given the edges' sorted *keys* and
    *first* grade indices.  Cells ``i < j`` that share all but their last
    vertex share face 0, their prefix, and are contiguous; when those last
    vertices are an edge, cell ``i`` followed by cell ``j``'s last vertex
    is a clique.  Its faces are ``i``, ``j``, and, without each earlier
    vertex, the pair ``(i', j')`` of ``i``'s and ``j``'s faces without it,
    which is candidate ``start[i'] + j'`` of the *lookup* of the join that
    built this level; ``locate`` maps it to its cell by a table of every
    candidate, or by a search among those joined where they are sparser
    than one in four past a chunk (for a triangle, the edge of its last two
    vertices)."""
    m = len(last)
    prefix = faces[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1])))
    sizes = np.diff(np.append(starts, m))
    partners = np.repeat(starts + sizes, sizes) - np.arange(m) - 1  # cells after each in its run
    ends = np.cumsum(partners)
    lower = faces[:, 1:]
    joined, graded, found, picked = [], [], [], []
    lo = 0
    while lo < m:
        # the cells from lo whose pairs fit in one chunk, or cell lo alone
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - partners[lo] + _JOIN_CHUNK, "right")))
        count = partners[lo:hi]
        i = np.repeat(np.arange(lo, hi), count)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        key = last.take(i) * n + last.take(j)
        e = np.searchsorted(keys, key)
        np.minimum(e, len(keys) - 1, out=e)
        pick = np.flatnonzero(keys.take(e) == key)
        i, j, e = i.take(pick), j.take(pick), e.take(pick)
        held += len(i)
        _check_cells(held)
        picked.append(ends[lo] - partners[lo] + pick)  # candidate index of each hit
        joined.append(last.take(j))
        graded.append(np.maximum(np.maximum(at.take(i), at.take(j)), first.take(e)))
        if lookup is None:
            rest = e[:, None]
        else:
            start, locate = lookup
            rest = locate(start.take(lower.take(i, axis=0)) + lower.take(j, axis=0))
        found.append(np.column_stack((i, j, rest)))
        lo = hi
    hits = np.concatenate(picked)
    locate = hits.searchsorted
    if ends[-1] <= _JOIN_CHUNK + 4 * len(hits):
        table = np.zeros(ends[-1], np.int32)
        table[hits] = np.arange(len(hits), dtype=np.int32)
        locate = table.take
    above = np.concatenate(joined), np.concatenate(graded), np.concatenate(found)
    return above, (ends - partners - np.arange(m) - 1, locate), held


def compute_persistence(
    filtration: Iterable[tuple[Simplex, float]] | CellArrays, *, include_zero_pairs: bool = False
) -> PersistenceDiagram:
    """Persistence diagram of a filtration over the two-element field.

    *filtration* is any sequence of ``(simplex, grade)`` pairs, each a
    tuple of hashable vertices and a real number, or a :class:`CellArrays`,
    which is indexed without a tuple and refused as its pairs would be, but
    for a face placed at a wrong earlier cell (its faces are trusted).
    The cells are reduced in its own order, which must list every face
    before its cofaces and never lower the grade, and every grade must be
    finite; a cell that breaks this raises :class:`FiltrationOrderError`.
    Within one grade the order does not change the diagram.

    Zero-length pairs (birth equal to death) are computed but left out of
    the diagram unless *include_zero_pairs* is set; essential classes get an
    infinite death.

    A filtration of more cells than the cell budget raises
    :class:`ReductionMemoryError` before any cell is indexed, and so does a
    block whose packed columns pass the kernel's byte limit.
    """
    if isinstance(filtration, CellArrays):
        matrix = _arrays_indexed(filtration)
    else:
        matrix = BoundaryMatrix.from_filtration(filtration)
    return _diagram(matrix, include_zero_pairs)


def _arrays_indexed(arrays: CellArrays) -> BoundaryMatrix:
    """The index of *arrays*, or, when a check refuses them, that of their
    pairs, which raises as :meth:`BoundaryMatrix.from_filtration` does."""
    _check_cells(len(arrays))
    matrix = _arrays_located(arrays)
    return BoundaryMatrix.from_filtration(arrays.cells()) if matrix is None else matrix


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
