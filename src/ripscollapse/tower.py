"""Core towers and their equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a simplex at a
grade, Contract merges a live vertex into another.  Because a filtration
cannot express vertex merges directly, each Contract(u, v) is realised by
coning: every cell of the closed star of ``u`` gains the cone cell with apex
``v``, which makes ``u`` dominated by ``v`` from that grade on without ever
renaming existing cells.

:func:`assemble_tower_filtration` builds the tower of a sequence of cores
and emits that filtration in the same pass.  It replays the ops on a
:class:`_Complex`, so an Include costs in proportion to the faces it adds
and a Contract(u, v) to the star of ``u``, never to the whole complex.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .collapse import RetractionMap
from .complexes import DEFAULT_EXPANSION_CAP, ComplexMatrix, Simplex, check_expansion_cap
from .errors import CollapseConsistencyError


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
    """Ordered elementary ops building a complex from nothing.

    Grades are non-decreasing; a Contract's endpoints must be live (present
    in the current complex) and its source is dead afterwards.
    """

    ops: tuple[ElementaryOp, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ElementaryOp]:
        return iter(self.ops)


@dataclass(frozen=True, slots=True)
class Filtration:
    """Cells with grades, ordered so every face precedes its cofaces and
    grades never decrease."""

    cells: tuple[tuple[Simplex, float], ...]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[tuple[Simplex, float]]:
        return iter(self.cells)


def _by_dim(s: Simplex) -> tuple[int, Simplex]:
    return len(s), s


class _Complex:
    """A downward-closed set of cells with a per-vertex index of cofaces.

    ``cofaces[x]`` lists, in order of addition, the cells added that contain
    ``x``.  The lists are append-only: a cell that has left ``cells`` stays
    listed, and readers skip it by testing membership in ``cells``.  A
    vertex's own list is dropped when the vertex is renamed away, because
    no cell that contains it is left.
    """

    __slots__ = ("cells", "cofaces")

    def __init__(self) -> None:
        self.cells: set[Simplex] = set()
        self.cofaces: defaultdict[int, list[Simplex]] = defaultdict(list)

    def missing_faces(self, target: Simplex) -> set[Simplex]:
        """Faces of *target*, itself included, that are not cells, unordered.

        They form an upward-closed set, so a top-down search from *target*
        that follows only missing codimension-1 faces finds all of them.
        """
        cells = self.cells
        if target in cells:
            return set()
        missing = {target}
        stack = [target]
        while stack:
            s = stack.pop()
            if len(s) > 1:
                for j in range(len(s)):
                    face = s[:j] + s[j + 1 :]
                    if face not in cells and face not in missing:
                        missing.add(face)
                        stack.append(face)
        return missing

    def add(self, new: Iterable[Simplex]) -> None:
        """Add the cells *new*, none of which may be present yet."""
        cells, cofaces = self.cells, self.cofaces
        for s in new:
            cells.add(s)
            for x in s:
                cofaces[x].append(s)

    def contract(self, u: int, v: int) -> list[Simplex]:
        """Rename vertex *u* to *v*; return the cells of the cone over the
        closed star of *u* with apex *v* that are new to the complex, in
        (dimension, lexicographic) order.

        The closed star of ``u`` is ``star(u)`` together with ``s - {u}`` for
        each ``s`` in it, so the cone is ``s + {v}`` and ``(s - {u}) + {v}``
        over ``star(u)``; the images ``(s - {u}) + {v}`` then replace
        ``star(u)``.  The cost is in proportion to the star of ``u``.
        """
        cells = self.cells
        # a listed cell may repeat if it left and was added again
        star = [s for s in self.cofaces.pop(u, ()) if s in cells]
        images = {tuple(sorted({v if x == u else x for x in s})) for s in star}
        cone = images.union(tuple(sorted(s + (v,))) for s in star if v not in s)
        new = sorted(cone.difference(cells), key=_by_dim)
        cells.difference_update(star)
        self.add(images.difference(cells))
        return new


def assemble_tower_filtration(
    cores: Sequence[ComplexMatrix],
    retractions: Sequence[RetractionMap],
    grades: Sequence[float],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> tuple[Tower, Filtration]:
    """Assemble per-snapshot cores into one tower and its filtration.

    Each snapshot's retraction must fix every vertex of its core and send
    every live point into that core.  For each snapshot j > 0, every live
    vertex whose image under the snapshot's retraction differs from it is
    contracted into that image (in increasing vertex id).  Then every
    simplex of core j missing from the complex is included, in (dimension,
    lexicographic) order; for j = 0 that is all of core 0.

    The ops are replayed on one complex as they are recorded, and the
    filtration is each Include's cell and, for each Contract(u, v), the cells
    of the cone over the closed star of ``u`` with apex ``v`` that are new to
    that complex.  No cell is emitted twice: the complex holds only live
    vertices, and a cell that has left it contains a contracted id, which
    never returns.

    Tower ids are permanent: a contracted id never reappears.  Cores may
    nevertheless mention a point whose id was contracted at an earlier grade
    (collapses are independent per snapshot), so each core is rewritten
    through a point-to-tower-id table; a returning point is given a fresh
    id.  A contract whose target id is not yet live is preceded by the
    inclusion of that single vertex, keeping every op valid.
    """
    if not (len(cores) == len(retractions) == len(grades)):
        raise ValueError("cores, retractions and grades must have equal length")
    if len(cores) == 0:
        raise ValueError("at least one snapshot is required")
    grades = [float(g) for g in grades]
    for a, b in zip(grades, grades[1:]):
        if b <= a:
            raise ValueError("snapshot grades must be strictly increasing")

    next_fresh = 1 + max(max(c.vertex_ids) for c in cores)

    ops: list[ElementaryOp] = []
    cells: list[tuple[Simplex, float]] = []
    current = _Complex()
    # point id -> live tower id; identical until a contracted id returns
    ident: dict[int, int] = {}
    used: set[int] = set()

    for j, (core, r, g) in enumerate(zip(cores, retractions, grades)):
        new_ident: dict[int, int] = {}
        for q in core.vertex_ids:
            if q in ident:
                new_ident[q] = ident[q]
            elif q in used:
                new_ident[q] = next_fresh
                next_fresh += 1
            else:
                new_ident[q] = q
        used.update(new_ident.values())

        # a retraction that moved a core vertex would contract an id that
        # the core's Include ops then use again
        for q in core.vertex_ids:
            if r.target.get(q) != q:
                raise CollapseConsistencyError(
                    f"retraction of snapshot {j} does not fix core vertex {q}"
                )
        # stage map on live tower ids; targets are fixed points because the
        # retraction fixes core vertices and their tower ids carry over
        mapping: dict[int, int] = {}
        for p, x in ident.items():
            if r.target.get(p) not in new_ident:
                raise CollapseConsistencyError(
                    f"retraction of snapshot {j} does not send point {p} into its core"
                )
            mapping[x] = new_ident[r.target[p]]

        maximal = core.maximal_simplices()
        check_expansion_cap(maximal, cap)
        # After snapshot j-1 the complex equals core j-1 (in tower ids) and the
        # retraction is simplicial, so the contracted complex lies in core j
        # iff the image of every maximal simplex of core j-1 is a face of it.
        if j:
            for s in cores[j - 1].maximal_simplices():
                image = {r.target[p] for p in s}
                if not core.contains_simplex(image):
                    raise CollapseConsistencyError(
                        f"snapshot {j}: contracted cell {tuple(sorted(image))}"
                        " is not in the next core"
                    )

        for u in sorted(mapping):
            w = mapping[u]
            if w == u:
                continue
            if (w,) not in current.cells:
                ops.append(Include((w,), g))
                cells.append(((w,), g))
                current.add([(w,)])
            ops.append(Contract(u, w, g))
            cells.extend((s, g) for s in current.contract(u, w))

        new: list[Simplex] = []
        for s in maximal:
            faces = current.missing_faces(tuple(sorted(new_ident[x] for x in s)))
            current.add(faces)
            new.extend(faces)
        new.sort(key=_by_dim)
        ops.extend(Include(t, g) for t in new)
        cells.extend((t, g) for t in new)
        ident = new_ident

    return Tower(tuple(ops)), Filtration(tuple(cells))
