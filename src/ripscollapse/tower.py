"""Core towers and their equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a vertex or an
edge at a grade, Contract merges a live vertex into another.  Every core
is a flag complex, so the tower works on graphs alone (as Boissonnat &
Pritam's flag-complex collapses do): its filtration is the clique
filtration of one graded graph on tower ids, every clique at the latest
grade of its vertices and edges.  A Contract(u, v) adds the edge ``uv`` and
an edge ``vy`` for each live neighbour ``y`` of ``u`` at its grade, so
``u`` is dominated by ``v`` from that grade on, and ``u``'s neighbourhood
is frozen.  Removing the dead vertices in order of death then
strong-collapses each grade's flag complex onto the live one, which is that
grade's core, so the filtration has the tower's persistence.  A map that
sends ``u`` to a vertex not in the complex is an isomorphism, so it needs
no op: that vertex takes over the tower id ``u``.

A filtration is a sequence of ``(simplex, grade)`` pairs in face-first,
non-decreasing order.  A :class:`Tower` holds its ops and its filtration's
cells, in (grade, dimension, lexicographic) order, as per-dimension
vertex-id rows with their grades, positions and faces (a
:class:`~ripscollapse.persistence.CellArrays`), built by the level join
that also builds the uncollapsed oracle's filtration.
:func:`~ripscollapse.persistence.compute_persistence` checks them and reads
their index off the faces with no tuple built; the rows above the edges,
and the ``(simplex, grade)`` pairs, are built only when they are first
read.

:func:`assemble_tower` builds the tower of a sequence of cores, each given
as its graph, in one pass over live adjacency bitsets: a Contract(u, v)
costs in proportion to the neighbours of ``u``, and a core's Includes to
its vertices and its edges that are not yet live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .collapse import _bits
from .complexes import Simplex
from .errors import CollapseConsistencyError, EmptyComplexError, SimplexError
from .persistence import CellArrays, _level_join
from .rips import as_grades


@dataclass(frozen=True, slots=True)
class Include:
    """Add *simplex*, a vertex or an edge, at *grade*."""

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
    """Ordered elementary ops building a flag complex from nothing, and the
    cells of the tower's filtration.

    The ops are kept as records, ``(simplex, grade)`` for an Include and
    ``(source, target, grade)`` for a Contract, and built only while the
    tower is iterated; ``contractions`` lists the Contract records.
    ``arrays`` holds the cells as a
    :class:`~ripscollapse.persistence.CellArrays`.  ``cells`` is the same
    filtration as ``(simplex, grade)`` pairs, faces first: it is built on
    its first read and kept.  Towers are equal when their ops are.

    Grades are non-decreasing; a Contract's endpoints must be live (present
    in the current complex) and its source is dead afterwards.
    """

    __slots__ = ("arrays", "_ops", "_cells")

    def __init__(
        self, arrays: CellArrays, ops: Sequence[tuple[Simplex, float] | tuple[int, int, float]]
    ) -> None:
        self.arrays = arrays
        self._ops = tuple(ops)
        self._cells: tuple[tuple[Simplex, float], ...] | None = None

    @property
    def cells(self) -> tuple[tuple[Simplex, float], ...]:
        if self._cells is None:
            self._cells = self.arrays.cells()
        return self._cells

    @property
    def contractions(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(op for op in self._ops if len(op) == 3)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[ElementaryOp]:
        for op in self._ops:
            yield Include(*op) if len(op) == 2 else Contract(*op)


def assemble_tower(
    cores: Sequence[Mapping[int, int]],
    retractions: Sequence[Sequence[int]],
    grades: Sequence[float],
) -> Tower:
    """Assemble per-snapshot flag cores into one tower.

    Each core is given by its graph, a dict from each core vertex (a point
    id) to the bitset of its core neighbours, and each retraction by a list
    whose entry ``p`` is the core point that point ``p`` is sent to.  The
    *grades* must be finite and strictly increasing, as
    :func:`~ripscollapse.rips.as_grades` checks; otherwise ``ValueError`` is
    raised.  Each snapshot's retraction must fix every vertex of its core
    and send every live point into that core, and for each snapshot j > 0
    the image of every edge of core j - 1 must be an edge or a vertex of
    core j; otherwise :class:`CollapseConsistencyError` is raised.  A core
    with no vertex raises :class:`EmptyComplexError`, and a vertex id that
    is not a non-negative int, or a graph that is not a symmetric bitset
    adjacency of its other vertices, :class:`SimplexError`.

    For each snapshot j > 0, every live vertex whose image under the
    snapshot's retraction differs from it is contracted into that image (in
    increasing vertex id), or relabelled, as below, when the image is not
    live.  Then every vertex and every edge of core j missing from the
    complex is included, vertices first, each in increasing order; for
    j = 0 that is all of core 0.  The tower's cells are the cliques of the
    graph of every vertex and edge included or added by a Contract, dead
    vertices' too, built by the level join, which raises
    :class:`~ripscollapse.errors.ReductionMemoryError` once they pass the
    cell budget.

    A live vertex whose image is not live is not contracted: the image's
    point takes over the vertex's tower id, with no op, and the live
    vertices after it with that image are contracted into that id.

    Tower ids are permanent: a contracted id never reappears.  Cores may
    nevertheless mention a point whose id was contracted or taken over at an
    earlier grade (collapses are independent per snapshot), so each core is
    rewritten through a point-to-tower-id table; a returning point is given
    a fresh id.
    """
    return _tower_of(_tower_graph(cores, retractions, grades))


class _TowerGraph(NamedTuple):
    """The graded graph of a tower, whose level join builds its cells, and
    the tower's ops."""

    ids: np.ndarray  # the tower ids, increasing
    at: np.ndarray  # the index of the grade that includes each id
    keys: np.ndarray  # each edge as rank(a) * len(ids) + rank(b), a < b, sorted
    first: np.ndarray  # the index of the grade that adds each edge
    ops: list[tuple[Simplex, float] | tuple[int, int, float]]
    grades: list[float]


def _tower_graph(
    cores: Sequence[Mapping[int, int]],
    retractions: Sequence[Sequence[int]],
    grades: Sequence[float],
) -> _TowerGraph:
    """The checks and the ops of :func:`assemble_tower`, and the graded
    graph its cells are the cliques of."""
    if not (len(cores) == len(retractions) == len(grades)):
        raise ValueError("cores, retractions and grades must have equal length")
    if not all(cores):
        raise EmptyComplexError("every core needs a vertex")
    grades = as_grades(grades)
    top = 0
    for j, graph in enumerate(cores):
        mask = 0
        for q in graph:
            if q.__class__ is not int or q < 0:  # as in as_simplex, no bool
                raise SimplexError(f"vertex ids must be non-negative integers, got {q!r}")
            mask |= 1 << q
        for q, nbrs in graph.items():
            if nbrs.__class__ is not int or nbrs < 0 or nbrs & ~mask or nbrs >> q & 1:
                raise SimplexError(f"core {j}: the neighbours of {q} are no set of other vertices")
        top = max(top, mask)
    next_fresh = top.bit_length()

    ops: list[tuple[Simplex, float] | tuple[int, int, float]] = []
    vertex_at: dict[int, int] = {}  # tower id -> index of the grade that includes it
    edges: list[tuple[int, int, int]] = []  # (grade index, a, b), a < b
    adj: dict[int, int] = {}  # live tower id -> bitset of its live neighbours
    # point id -> live tower id; identical until a contracted id returns
    ident: dict[int, int] = {}
    used: set[int] = set()

    for j, (graph, r, g) in enumerate(zip(cores, retractions, grades)):
        new_ident: dict[int, int] = {}
        for q in sorted(graph):
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

        # contracting u into a target that is not live is an isomorphism, so
        # the target's point takes over u's id instead; u is not a target,
        # since a live core vertex is fixed, so the alias clashes with no id
        alias: dict[int, int] = {}
        for u, w in sorted(mapping.items()):
            w = alias.get(w, w)
            if w == u:
                continue
            if w not in adj:
                alias[w] = u
                continue
            # u's live neighbours become w's, and u dies with its edges frozen
            bit_u, bit_w = 1 << u, 1 << w
            nbrs = adj.pop(u) & ~bit_w
            if not adj[w] & bit_u:
                edges.append((j, min(u, w), max(u, w)))
            for y in _bits(nbrs):
                adj[y] ^= bit_u
            for y in _bits(nbrs & ~adj[w]):
                adj[y] |= bit_w
                edges.append((j, min(w, y), max(w, y)))
            adj[w] = (adj[w] | nbrs) & ~bit_u
            ops.append((u, w, g))
        if alias:
            new_ident = {q: alias.get(x, x) for q, x in new_ident.items()}

        # core j in tower ids; most points keep their own id
        moved = {q: x for q, x in new_ident.items() if q != x}
        moved_mask = sum(1 << q for q in moved)
        for x in sorted(x for x in new_ident.values() if x not in adj):
            adj[x] = 0
            vertex_at[x] = j
            ops.append(((x,), g))
        want: dict[int, int] = {}
        new_edges = []
        for q, x in new_ident.items():
            nbrs = graph[q]
            if nbrs & moved_mask:
                nbrs &= ~moved_mask
                for p in _bits(graph[q] & moved_mask):
                    nbrs |= 1 << moved[p]
            want[x] = nbrs
            fresh = nbrs & ~adj[x]
            adj[x] |= fresh
            for y in _bits(fresh):
                adj[y] |= 1 << x
                new_edges.append((x, y) if x < y else (y, x))
        new_edges.sort()
        ops.extend((e, g) for e in new_edges)
        edges.extend((j, a, b) for a, b in new_edges)
        # The complex contracted from core j - 1 is the image of its graph,
        # and core j's graph was added to it, so it is core j iff that image
        # lies in core j and core j's graph is symmetric.  For flag cores
        # that image lies in core j iff the image of every maximal simplex
        # of core j - 1 is a face of core j.
        for x, nbrs in want.items():
            extra = adj[x] & ~nbrs
            if extra:
                y = (extra & -extra).bit_length() - 1
                point = {t: q for q, t in new_ident.items()}
                cell = tuple(sorted((point[x], point[y])))
                if want[y] >> x & 1:
                    raise SimplexError(f"core {j}: edge {cell} is listed at one end only")
                raise CollapseConsistencyError(
                    f"snapshot {j}: contracted cell {cell} is not in the next core"
                )
        ident = new_ident

    # the join ranks the tower ids, which fresh ids spread past the points
    ids, at = np.array(sorted(vertex_at.items())).T
    first, a, b = np.array(edges, np.int64).reshape(-1, 3).T
    keys = np.searchsorted(ids, a) * len(ids) + np.searchsorted(ids, b)
    order = np.argsort(keys)
    return _TowerGraph(ids, at, keys.take(order), first.take(order), ops, grades)


def _tower_of(graph: _TowerGraph) -> Tower:
    """The tower of the graded *graph*: its ops, and its cells built by the
    level join of the graph, on the ranks of its ids.  Only the rows the
    join holds, the vertices' and the edges', are renamed to tower ids; the
    rows above are built from them and the faces when first read, and so
    carry tower ids too."""
    ranked = _level_join(graph.at, graph.keys, graph.first, graph.grades)
    # ids are sorted, so renamed rows still increase; faces name rows, not ids
    vertices = [graph.ids.take(v) for v in ranked._rows[:2]] + list(ranked._rows[2:])
    cells = CellArrays(vertices, ranked.grades, ranked.positions, ranked.faces)
    return Tower(cells, graph.ops)
