"""Core towers and their equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a simplex at a
grade, Contract merges a live vertex into another.  Because a filtration
cannot express vertex merges directly, each Contract(u, v) is realised by
coning: every cell of the closed star of ``u`` gains the cone cell with apex
``v``, which makes ``u`` dominated by ``v`` from that grade on without ever
renaming existing cells.  A map that sends ``u`` to a vertex not in the
complex is an isomorphism, so it needs no op: that vertex takes over the
tower id ``u``.

A filtration is a sequence of ``(simplex, grade)`` pairs in face-first,
non-decreasing order.  Every Include is a cell of the tower's filtration
and only a Contract adds more, so a :class:`Tower` is that filtration's
cells and one record per Contract.  It holds the cells as per-dimension
vertex-id rows, with their grades and positions in the filtration (a
:class:`~ripscollapse.persistence.CellArrays`), which
:func:`~ripscollapse.persistence.compute_persistence` checks and indexes
for the reduction with no tuple built; the ``(simplex, grade)`` pairs are
built only when they are first read.

:func:`assemble_tower` builds the tower of a sequence of cores, and so its
filtration, in one pass.  It replays the ops on a :class:`_Complex`, so a
core's Includes cost in proportion to the faces of its maximal simplices
that are not yet cells, and a Contract(u, v) to the star of ``u``, never to
the whole complex.  A core's new cells are found level by level: the
k-vertex faces of those maximal simplices, less the live cells, sorted, for
k = 1, 2, ...  Each batch of new cells is recorded per dimension as it is
emitted, and each dimension's rows become one integer array at the end.
The tower holds no more cells than the boundary index's cell budget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, groupby, repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .collapse import _bits
from .complexes import DEFAULT_EXPANSION_CAP, Simplex, check_expansion_cap
from .errors import CollapseConsistencyError, EmptyComplexError, SimplexError
from .persistence import CellArrays, _check_cells
from .rips import as_grades


@dataclass(frozen=True, slots=True)
class Include:
    """Add *simplex* (and implicitly its missing faces) at *grade*."""

    simplex: Simplex
    grade: float


@dataclass(frozen=True, slots=True)
class Contract:
    """Merge live vertex *source* into live vertex *target* at *grade*."""

    source: int
    target: int
    grade: float


ElementaryOp = Union[Include, Contract]


class Tower:
    """Ordered elementary ops building a complex from nothing, kept as the
    cells of the tower's filtration and one ``(start, stop, source, target,
    grade)`` record per Contract, whose cone ``cells[start:stop]`` may be
    empty; every other cell is an Include.

    ``arrays`` holds the cells as a
    :class:`~ripscollapse.persistence.CellArrays`.  ``cells`` is the same
    filtration as ``(simplex, grade)`` pairs, faces first: it is built on
    its first read, by *pairs* when given and else from the arrays, and
    kept.  ``len`` builds no tuple, and the ops are built only while the
    tower is iterated.  Towers are equal when their cells and contractions
    are.

    Grades are non-decreasing; a Contract's endpoints must be live (present
    in the current complex) and its source is dead afterwards.
    """

    __slots__ = ("arrays", "contractions", "_cells")

    def __init__(
        self,
        arrays: CellArrays,
        contractions: Sequence[tuple[int, int, int, int, float]],
        pairs: Callable[[], tuple[tuple[Simplex, float], ...]] | None = None,
    ) -> None:
        self.arrays = arrays
        self.contractions = tuple(contractions)
        # what builds the cells on their first read, then the cells
        self._cells = arrays.cells if pairs is None else pairs

    @property
    def cells(self) -> tuple[tuple[Simplex, float], ...]:
        if callable(self._cells):
            self._cells = self._cells()
        return self._cells

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cells, self.contractions) == (other.cells, other.contractions)

    def __hash__(self) -> int:
        return hash((self.cells, self.contractions))

    def __len__(self) -> int:
        return len(self.arrays) - sum(stop - start - 1 for start, stop, *_ in self.contractions)

    def __iter__(self) -> Iterator[ElementaryOp]:
        cells = self.cells
        done = 0
        for start, stop, source, target, grade in self.contractions:
            for s, g in cells[done:start]:
                yield Include(s, g)
            yield Contract(source, target, grade)
            done = stop
        for s, g in cells[done:]:
            yield Include(s, g)


class _Complex:
    """The filtration emitted so far, as its cells per dimension and the set
    of their simplices, ``emitted``, and the complex it has reached, with a
    per-vertex index of cofaces.

    ``rows[d]`` lists the dimension-``d`` cells in filtration order, and
    ``batches`` records each run of one dimension emitted at once, in
    order, as ``(d, start in rows[d], count, grade)``; ``size`` counts the
    cells.

    A cell is live (in the complex) iff it has been emitted and contains no
    vertex of ``dead``, the renamed-away ones; so a cell on live vertices
    is live iff it is in ``emitted``.

    ``cofaces[x]`` lists, in order of addition, the live cells added that
    contain ``x``.  The lists are append-only: a cell that has left the
    complex stays listed, and readers skip it by its dead vertex.  A
    vertex's own list is dropped when the vertex is renamed away, because
    no cell that contains it is left.
    """

    __slots__ = ("dead", "cofaces", "emitted", "rows", "batches", "size")

    def __init__(self) -> None:
        self.dead: set[int] = set()
        self.cofaces: defaultdict[int, list[Simplex]] = defaultdict(list)
        self.emitted: set[Simplex] = set()
        self.rows: list[list[Simplex]] = []
        self.batches: list[tuple[int, int, int, float]] = []
        self.size = 0

    def emit(self, new: Sequence[Simplex], grade: float) -> None:
        """Append the simplices *new*, in (dimension, lexicographic) order,
        to the filtration at *grade*, unless the cells would pass the cell
        budget, which raises
        :class:`~ripscollapse.errors.ReductionMemoryError` first."""
        _check_cells(self.size + len(new))
        self.emitted.update(new)
        self.size += len(new)
        for k, run in groupby(new, len):
            while len(self.rows) < k:
                self.rows.append([])
            rows = self.rows[k - 1]
            start = len(rows)
            rows.extend(run)
            self.batches.append((k - 1, start, len(rows) - start, grade))

    def tower(self, contractions: Sequence[tuple[int, int, int, int, float]]) -> Tower:
        """The tower of the filtration emitted, with *contractions*: each
        dimension's rows as one vertex-id array, and the pairs built from
        the emitted simplices when first read."""
        rows, batches = self.rows, self.batches
        dim, start, count, grade = map(np.array, zip(*batches))
        at = np.cumsum(count) - count - start  # a batch's position, less its start in its dimension
        vertices, grades, positions = [], [], []
        for d, simplices in enumerate(rows):
            ids = np.fromiter(chain.from_iterable(simplices), np.int64, len(simplices) * (d + 1))
            vertices.append(ids.reshape(-1, d + 1))
            mine = dim == d
            grades.append(np.repeat(grade[mine], count[mine]))
            positions.append(np.repeat(at[mine], count[mine]) + np.arange(len(simplices)))

        def pairs() -> tuple[tuple[Simplex, float], ...]:
            runs = (zip(rows[d][s : s + c], repeat(g)) for d, s, c, g in batches)
            return tuple(chain.from_iterable(runs))

        return Tower(CellArrays(vertices, grades, positions), contractions, pairs)

    def add_cofaces(self, new: Iterable[Simplex]) -> None:
        """List the new live cells *new* under each of their vertices."""
        cofaces = self.cofaces
        for s in new:
            for x in s:
                cofaces[x].append(s)

    def contract(self, u: int, v: int, grade: float) -> None:
        """Rename vertex *u* to *v*, emitting at *grade* the cells of the
        cone over the closed star of *u* with apex *v* that are new to the
        complex, in (dimension, lexicographic) order.

        The closed star of ``u`` is ``star(u)`` together with ``s - {u}`` for
        each ``s`` in it, so the cone is ``s + {v}`` and ``(s - {u}) + {v}``
        over ``star(u)``; the images ``(s - {u}) + {v}`` then replace
        ``star(u)``.  The cost is in proportion to the star of ``u``.
        """
        dead, emitted = self.dead, self.emitted
        images: set[Simplex] = set()
        joins: list[Simplex] = []  # s + {v} for each s in star(u) without v
        for s in self.cofaces.pop(u, ()):
            if not dead.isdisjoint(s):
                continue
            i = bisect_left(s, u)
            rest = s[:i] + s[i + 1 :]  # s - {u}
            k = bisect_left(rest, v)
            if rest[k : k + 1] == (v,):  # v in s: the image is s - {u}
                images.add(rest)
            else:
                images.add(rest[:k] + (v,) + rest[k:])
                k = bisect_left(s, v)
                joins.append(s[:k] + (v,) + s[k:])
        cone = images.union(joins)
        # every cone cell is on live vertices, so it is live iff emitted
        fresh = images.difference(emitted)
        new = sorted(cone.difference(emitted))
        new.sort(key=len)
        self.emit(new, grade)
        dead.add(u)
        self.add_cofaces(fresh)


def assemble_tower(
    cores: Sequence[Sequence[Simplex]],
    retractions: Sequence[Sequence[int]],
    grades: Sequence[float],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> Tower:
    """Assemble per-snapshot cores into one tower.

    Each core is given by its maximal simplices, tuples of point ids, and
    each retraction by a list whose entry ``p`` is the core point that point
    ``p`` is sent to.  The *grades* must be finite and strictly increasing,
    as :func:`~ripscollapse.rips.as_grades` checks; otherwise ``ValueError``
    is raised.  Each snapshot's retraction must fix every vertex of its core
    and send every live point into that core, and for each snapshot j > 0
    the image of every maximal simplex of core j - 1 must be a face of core
    j; otherwise :class:`CollapseConsistencyError` is raised.  A core with no
    maximal simplex raises :class:`EmptyComplexError`, and a simplex that
    :func:`~ripscollapse.complexes.as_simplex` would refuse
    :class:`SimplexError`.  For each snapshot j > 0, every live vertex whose
    image under the snapshot's retraction differs from it is contracted into
    that image (in increasing vertex id), or relabelled, as below, when the
    image is not live.  Then every simplex of core j
    missing from the complex is included, in (dimension, lexicographic)
    order; for j = 0 that is all of core 0.

    The ops are replayed on one complex as they are met, and the tower's
    cells (its filtration) are each Include's cell and, for each
    Contract(u, v), the cells of the cone over the closed star of ``u`` with
    apex ``v`` that are new to that complex.  No cell is emitted twice: the
    complex holds only live vertices, and a cell that has left it contains a
    contracted id, which never returns.  A tower of more cells than the
    boundary index's cell budget raises
    :class:`~ripscollapse.errors.ReductionMemoryError` before its cells pass
    the budget.

    A live vertex whose image is not live is not contracted: the image's
    point takes over the vertex's tower id, with no op and no cell, and the
    live vertices after it with that image are contracted into that id.

    Tower ids are permanent: a contracted id never reappears.  Cores may
    nevertheless mention a point whose id was contracted or taken over at an
    earlier grade (collapses are independent per snapshot), so each core is
    rewritten through a point-to-tower-id table; a returning point is given
    a fresh id.
    """
    if not (len(cores) == len(retractions) == len(grades)):
        raise ValueError("cores, retractions and grades must have equal length")
    if not all(cores):
        raise EmptyComplexError("every core needs a maximal simplex")
    grades = as_grades(grades)
    # per core, vertex -> masks of the maximal simplices holding it, checked first
    holdings: list[defaultdict[int, list[int]]] = []
    for j, maximal in enumerate(cores):
        holdings.append(holding := defaultdict(list))
        for s in maximal:
            mask = 0
            for q in s:
                if q.__class__ is not int or q < 0:  # as in as_simplex, no bool
                    raise SimplexError(f"vertex ids must be non-negative integers, got {q!r}")
                mask |= 1 << q
            if not s or mask.bit_count() != len(s):
                raise SimplexError(f"simplex {s} of core {j} is empty or repeats a vertex")
            for q in s:
                holding[q].append(mask)
    next_fresh = 1 + max(max(holding) for holding in holdings)

    contractions: list[tuple[int, int, int, int, float]] = []
    current = _Complex()
    emitted = current.emitted
    # point id -> live tower id; identical until a contracted id returns
    ident: dict[int, int] = {}
    used: set[int] = set()

    for j, (maximal, r, g, holding) in enumerate(zip(cores, retractions, grades, holdings)):
        vertices = sorted(holding)
        new_ident: dict[int, int] = {}
        for q in vertices:
            # a retraction that moved a core vertex would contract an id
            # that the core's Include ops then use again
            if not (q < len(r) and r[q] == q):
                raise CollapseConsistencyError(
                    f"retraction of snapshot {j} does not fix core vertex {q}"
                )
            if q in ident:
                new_ident[q] = ident[q]
            elif q in used:
                new_ident[q] = next_fresh
                next_fresh += 1
            else:
                new_ident[q] = q
        used.update(new_ident.values())

        # stage map on live tower ids; targets are fixed points because the
        # retraction fixes core vertices and their tower ids carry over; a
        # live point is a vertex of core j - 1, so it is not negative
        mapping: dict[int, int] = {}
        for p, x in ident.items():
            w = r[p] if p < len(r) else None
            if w not in new_ident:
                raise CollapseConsistencyError(
                    f"retraction of snapshot {j} does not send point {p} into its core"
                )
            mapping[x] = new_ident[w]

        check_expansion_cap(maximal, cap)
        # After snapshot j-1 the complex equals core j-1 (in tower ids) and the
        # retraction is simplicial, so the contracted complex lies in core j
        # iff the image of every maximal simplex of core j-1 is a face of it,
        # that is, lies in a maximal simplex holding its lowest vertex.
        # Pairwise adjacency would not do: core j need not be a flag complex.
        if j:
            for s in cores[j - 1]:
                image = 0
                for p in s:
                    image |= 1 << r[p]
                low = (image & -image).bit_length() - 1
                if not any(image & mask == image for mask in holding[low]):
                    raise CollapseConsistencyError(
                        f"snapshot {j}: contracted cell {_bits(image)} is not in the next core"
                    )

        # contracting u into a target that is not live is an isomorphism, so
        # the target's point takes over u's id instead; u is not a target,
        # since a live core vertex is fixed, so the alias clashes with no id
        alias: dict[int, int] = {}
        for u, w in sorted(mapping.items()):
            w = alias.get(w, w)
            if w == u:
                continue
            if (w,) not in emitted:
                alias[w] = u
                continue
            start = current.size
            current.contract(u, w, g)
            contractions.append((start, current.size, u, w, g))
        if alias:
            new_ident = {q: alias.get(x, x) for q, x in new_ident.items()}

        # the new cells are the faces of core j's maximal simplices that are
        # not live, found level by level, so each level sorts into
        # lexicographic order; a live maximal simplex has no such face, and
        # no contraction follows the last core to read its cofaces
        tops = [tuple(sorted(new_ident[q] for q in s)) for s in maximal]
        tops = [t for t in tops if t not in emitted]
        k = 1
        while tops:
            level: set[Simplex] = set()
            for t in tops:
                level.update(combinations(t, k))
            new = sorted(level.difference(emitted))
            current.emit(new, g)
            if j < len(cores) - 1:
                current.add_cofaces(new)
            tops = [t for t in tops if len(t) > k]
            k += 1
        ident = new_ident

    return current.tower(contractions)
