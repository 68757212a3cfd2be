"""Core towers and their equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a simplex at a
grade, Contract merges a live vertex into another.  Because a filtration
cannot express vertex merges directly, each Contract(u, v) is realised by
coning: every cell of the closed star of ``u`` gains the cone cell with apex
``v``, which makes ``u`` dominated by ``v`` from that grade on without ever
renaming existing cells.

A filtration is a sequence of ``(simplex, grade)`` pairs in face-first,
non-decreasing order.  Every Include is a cell of the tower's filtration
and only a Contract adds more, so a :class:`Tower` is that filtration's
cell tuple and one record per Contract.

:func:`assemble_tower` builds the tower of a sequence of cores, and so its
filtration, in one pass.  It replays the ops on a :class:`_Complex`, so a
core's Includes cost in proportion to the faces of its maximal simplices
that are not yet cells, and a Contract(u, v) to the star of ``u``, never to
the whole complex.  A core's new cells are found level by level: the
k-vertex faces of those maximal simplices, less the live cells, sorted, for
k = 1, 2, ...  They are emitted into the checked builder behind
:meth:`~ripscollapse.persistence.BoundaryMatrix.from_filtration`, so the
same pass builds the boundary index the reduction reads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterable, Iterator, Sequence, Union

from .collapse import _bits
from .complexes import DEFAULT_EXPANSION_CAP, Simplex, check_expansion_cap
from .errors import CollapseConsistencyError, EmptyComplexError, SimplexError
from .persistence import BoundaryMatrix, _Index
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


@dataclass(frozen=True, slots=True)
class Tower:
    """Ordered elementary ops building a complex from nothing, kept as the
    *cells* of the tower's filtration (``(simplex, grade)`` pairs, faces
    first) and one ``(start, stop, source, target, grade)`` record per
    Contract, whose cone ``cells[start:stop]`` may be empty; every other
    cell is an Include.  The ops are built only while the tower is
    iterated.

    Grades are non-decreasing; a Contract's endpoints must be live (present
    in the current complex) and its source is dead afterwards.
    """

    cells: tuple[tuple[Simplex, float], ...]
    contractions: tuple[tuple[int, int, int, int, float], ...]

    def __len__(self) -> int:
        return len(self.cells) - sum(stop - start - 1 for start, stop, *_ in self.contractions)

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
    """The filtration emitted so far, as its boundary ``index``, and the
    complex it has reached, with a per-vertex index of cofaces.

    A cell is live (in the complex) iff it has been emitted and contains no
    vertex of ``dead``, the renamed-away ones; so a cell on live vertices
    is live iff it is in ``index.pos``.

    ``cofaces[x]`` lists, in order of addition, the live cells added that
    contain ``x``.  The lists are append-only: a cell that has left the
    complex stays listed, and readers skip it by its dead vertex.  A
    vertex's own list is dropped when the vertex is renamed away, because
    no cell that contains it is left.
    """

    __slots__ = ("dead", "cofaces", "index")

    def __init__(self) -> None:
        self.dead: set[int] = set()
        self.cofaces: defaultdict[int, list[Simplex]] = defaultdict(list)
        self.index = _Index()

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
        dead, pos = self.dead, self.index.pos
        star = [s for s in self.cofaces.pop(u, ()) if dead.isdisjoint(s)]
        images = {tuple(sorted({v if x == u else x for x in s})) for s in star}
        cone = images.union(tuple(sorted(s + (v,))) for s in star if v not in s)
        # every cone cell is on live vertices, so it is live iff emitted
        fresh = images.difference(pos)
        new = sorted(cone.difference(pos))
        new.sort(key=len)
        self.index.emit(zip(new, repeat(grade)))
        dead.add(u)
        self.add_cofaces(fresh)


def assemble_tower(
    cores: Sequence[Sequence[Simplex]],
    retractions: Sequence[Sequence[int]],
    grades: Sequence[float],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> tuple[Tower, BoundaryMatrix]:
    """Assemble per-snapshot cores into one tower, and the
    :class:`BoundaryMatrix` of its cells, built as they are emitted.

    Each core is given by its maximal simplices, tuples of point ids, and
    each retraction by a list whose entry ``p`` is the core point that point
    ``p`` is sent to.  The *grades* must be finite and strictly increasing,
    as :func:`~ripscollapse.rips.as_grades` checks; otherwise ``ValueError``
    is raised.  Each snapshot's retraction must fix every vertex of
    its core and send every live point into that core, and for each
    snapshot j > 0 the image of every maximal simplex of core j - 1 must be
    a face of core j; otherwise :class:`CollapseConsistencyError` is
    raised.  A core with no maximal simplex raises
    :class:`EmptyComplexError`, and a simplex that repeats a vertex
    :class:`SimplexError`.  For each snapshot j > 0, every live vertex whose image under
    the snapshot's retraction differs from it is contracted into that image
    (in increasing vertex id).  Then every simplex of core j missing from
    the complex is included, in (dimension, lexicographic) order; for j = 0
    that is all of core 0.

    The ops are replayed on one complex as they are met, and the tower's
    cells (its filtration) are each Include's cell and, for each
    Contract(u, v), the cells of the cone over the closed star of ``u`` with
    apex ``v`` that are new to that complex.  No cell is emitted twice: the
    complex holds only live vertices, and a cell that has left it contains a
    contracted id, which never returns.  The cells are indexed with the
    checks of :meth:`BoundaryMatrix.from_filtration`, so a cell emitted
    twice, or before one of its faces, raises :class:`FiltrationOrderError`.

    Tower ids are permanent: a contracted id never reappears.  Cores may
    nevertheless mention a point whose id was contracted at an earlier grade
    (collapses are independent per snapshot), so each core is rewritten
    through a point-to-tower-id table; a returning point is given a fresh
    id.  A contract whose target id is not yet live is preceded by the
    inclusion of that single vertex, keeping every op valid.
    """
    if not (len(cores) == len(retractions) == len(grades)):
        raise ValueError("cores, retractions and grades must have equal length")
    if not all(cores):
        raise EmptyComplexError("every core needs a maximal simplex")
    grades = as_grades(grades)

    next_fresh = 1 + max(max(map(max, core)) for core in cores)

    contractions: list[tuple[int, int, int, int, float]] = []
    current = _Complex()
    index = current.index
    # point id -> live tower id; identical until a contracted id returns
    ident: dict[int, int] = {}
    used: set[int] = set()

    for j, (maximal, r, g) in enumerate(zip(cores, retractions, grades)):
        vertices = sorted({q for s in maximal for q in s})
        new_ident: dict[int, int] = {}
        for q in vertices:
            # a retraction that moved a core vertex would contract an id
            # that the core's Include ops then use again
            if not (0 <= q < len(r) and r[q] == q):
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
        # vertex -> bitmasks of the maximal simplices of core j that hold it
        holding: defaultdict[int, list[int]] = defaultdict(list)
        for s in maximal:
            mask = 0
            for q in s:
                mask |= 1 << q
            if mask.bit_count() != len(s):
                raise SimplexError(f"simplex {s} of core {j} repeats a vertex")
            for q in s:
                holding[q].append(mask)
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

        for u in sorted(mapping):
            w = mapping[u]
            if w == u:
                continue
            if (w,) not in index.pos:
                index.emit([((w,), g)])
                current.add_cofaces([(w,)])
            start = len(index.cells)
            current.contract(u, w, g)
            contractions.append((start, len(index.cells), u, w, g))

        # the new cells are the faces of core j's maximal simplices that are
        # not live, found level by level, so each level sorts into
        # lexicographic order; a live maximal simplex has no such face, and
        # no contraction follows the last core to read its cofaces
        pos = index.pos
        tops = [tuple(sorted(new_ident[q] for q in s)) for s in maximal]
        tops = [t for t in tops if t not in pos]
        k = 1
        while tops:
            level: set[Simplex] = set()
            for t in tops:
                level.update(combinations(t, k))
            new = sorted(level.difference(pos))
            index.emit(zip(new, repeat(g)))
            if j < len(cores) - 1:
                current.add_cofaces(new)
            tops = [t for t in tops if len(t) > k]
            k += 1
        ident = new_ident

    matrix = index.matrix()
    return Tower(matrix.cells, tuple(contractions)), matrix
