"""Core towers and their conversion to equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a simplex at a
grade, Contract merges a live vertex into another.  Because a filtration
cannot express vertex merges directly, :func:`tower_to_filtration` realises
each Contract(u, v) by coning: every cell of the closed star of ``u`` gains
the cone cell with apex ``v``, which makes ``u`` dominated by ``v`` from
that grade on without ever renaming existing cells.

Both the conversion and :meth:`Tower.validate` keep the complex the tower
has reached with a per-vertex index of the cells containing each vertex,
so an Include costs in proportion to the faces it adds and a Contract(u, v)
to the star of ``u``, never to the whole complex.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .collapse import RetractionMap
from .complexes import DEFAULT_EXPANSION_CAP, ComplexMatrix, Simplex, as_simplex
from .errors import (
    CollapseConsistencyError,
    FiltrationOrderError,
    TowerOpError,
)


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

    def validate(self) -> None:
        """Replay the ops, checking the elementary-op invariants.

        The replayed complex keeps a per-vertex index of its cells, so an
        Include costs in proportion to its missing faces and a
        Contract(u, v) to the star of ``u``.
        """
        present = _Complex()
        live: set[int] = set()
        prev_grade: float | None = None
        for i, op in enumerate(self.ops):
            if prev_grade is not None and op.grade < prev_grade:
                raise TowerOpError(f"op {i}: grade decreases along the tower")
            prev_grade = op.grade
            if isinstance(op, Include):
                s = as_simplex(op.simplex)
                if s in present.cells:
                    raise TowerOpError(f"op {i}: include of already present {s}")
                present.add(present.missing_faces(s))
                live.update(s)
            elif isinstance(op, Contract):
                u, v = op.source, op.target
                if u == v:
                    raise TowerOpError(f"op {i}: contract of a vertex into itself")
                if u not in live or v not in live:
                    raise TowerOpError(f"op {i}: contract ({u} -> {v}) of a non-live vertex")
                star = present.star(u)
                present.replace(star, [_rename(s, u, v) for s in star])
                live.discard(u)
            else:  # pragma: no cover - type misuse
                raise TowerOpError(f"op {i}: unknown op {op!r}")


@dataclass(frozen=True, slots=True)
class Filtration:
    """Cells with grades, ordered so every face precedes its cofaces."""

    cells: tuple[tuple[Simplex, float], ...]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[tuple[Simplex, float]]:
        return iter(self.cells)

    def validate(self) -> None:
        """Check downward closure by prefix and non-decreasing grades."""
        seen: set[Simplex] = set()
        prev_grade: float | None = None
        for i, (s, g) in enumerate(self.cells):
            if prev_grade is not None and g < prev_grade:
                raise FiltrationOrderError("grade decreases along the filtration", i)
            prev_grade = g
            if s in seen:
                raise FiltrationOrderError(f"duplicate cell {s}", i)
            for j in range(len(s)):
                face = s[:j] + s[j + 1 :]
                if face and face not in seen:
                    raise FiltrationOrderError(f"cell {s} precedes its face {face}", i)
            seen.add(s)


def _by_dim(s: Simplex) -> tuple[int, Simplex]:
    return len(s), s


def _rename(s: Simplex, u: int, v: int) -> Simplex:
    """Image of *s* under the vertex map ``u -> v``."""
    return tuple(sorted({v if x == u else x for x in s}))


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

    def missing_faces(self, target: Simplex) -> list[Simplex]:
        """Faces of *target*, itself included, that are not cells, in
        (dimension, lexicographic) order.

        They form an upward-closed set, so a top-down search from *target*
        that follows only missing codimension-1 faces finds all of them.
        """
        cells = self.cells
        if target in cells:
            return []
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
        return sorted(missing, key=_by_dim)

    def add(self, new: Iterable[Simplex]) -> None:
        """Add the cells *new*, none of which may be present yet."""
        cells, cofaces = self.cells, self.cofaces
        for s in new:
            cells.add(s)
            for x in s:
                cofaces[x].append(s)

    def star(self, u: int) -> list[Simplex]:
        """Cells containing *u*, forgetting *u*'s index (a listed cell may
        repeat if it left and was added again)."""
        cells = self.cells
        return [s for s in self.cofaces.pop(u, ()) if s in cells]

    def replace(self, old: Iterable[Simplex], new: Iterable[Simplex]) -> None:
        """Remove the cells *old*, then add those of *new* not present."""
        self.cells.difference_update(old)
        self.add(set(new).difference(self.cells))


def assemble_core_tower(
    cores: Sequence[ComplexMatrix],
    retractions: Sequence[RetractionMap],
    grades: Sequence[float],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> Tower:
    """Assemble per-snapshot cores into one tower.

    For each snapshot j > 0, every live vertex whose image under the
    snapshot's retraction differs from it is contracted into that image (in
    increasing vertex id), then every simplex of core j missing from the
    contracted complex is included, in (dimension, lexicographic) order.

    Tower ids are permanent: a contracted id never reappears.  Cores may
    nevertheless mention a point whose id was contracted at an earlier grade
    (collapses are independent per snapshot), so each core is rewritten
    through a point-to-tower-id table before comparison; a returning point
    is given a fresh id.  A contract whose target id is not yet live is
    preceded by the inclusion of that single vertex, keeping every op valid.
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
    first_cells = cores[0].expand_all_simplices(cap)
    ops.extend(Include(s, grades[0]) for s in first_cells)
    present: set[Simplex] = set(first_cells)
    # point id -> live tower id; identical until a contracted id returns
    ident: dict[int, int] = {p: p for p in cores[0].vertex_ids}
    used: set[int] = set(ident)

    for j in range(1, len(cores)):
        g = grades[j]
        r = retractions[j]

        new_ident: dict[int, int] = {}
        for q in cores[j].vertex_ids:
            if q in ident:
                new_ident[q] = ident[q]
            elif q in used:
                new_ident[q] = next_fresh
                next_fresh += 1
            else:
                new_ident[q] = q
        used.update(new_ident.values())

        # stage map on live tower ids; targets are fixed points because the
        # retraction fixes core vertices and their tower ids carry over
        mapping: dict[int, int] = {}
        for p, x in ident.items():
            if p not in r.target:
                raise CollapseConsistencyError(
                    f"retraction of snapshot {j} is undefined on point {p}"
                )
            mapping[x] = new_ident[r.target[p]]

        live = set(ident.values())
        for u in sorted(mapping):
            w = mapping[u]
            if w == u:
                continue
            if w not in live:
                ops.append(Include((w,), g))
                present.add((w,))
                live.add(w)
            ops.append(Contract(u, w, g))
            live.discard(u)
        # vertices included just-in-time above already carry stage-j ids
        present = {tuple(sorted({mapping.get(x, x) for x in s})) for s in present}

        target_cells: set[Simplex] = set()
        rewritten: list[Simplex] = []
        for s in cores[j].expand_all_simplices(cap):
            t = tuple(sorted(new_ident[x] for x in s))
            target_cells.add(t)
            rewritten.append(t)
        rewritten.sort(key=lambda s: (len(s), s))

        for s in present:
            if s not in target_cells:
                raise CollapseConsistencyError(
                    f"snapshot {j}: contracted cell {s} is not in the next core"
                )

        for t in rewritten:
            if t not in present:
                ops.append(Include(t, g))
                present.add(t)
        ident = new_ident

    return Tower(tuple(ops))


def tower_to_filtration(tower: Tower) -> Filtration:
    """Convert a tower into a filtration with the same persistence.

    Include ops append their missing faces (vertices rewritten through the
    current alias map, so deleted ids are tolerated).  Contract(u, v) cones
    the closed star of ``u`` with apex ``v`` and then aliases ``u`` to ``v``
    permanently; no cell is ever renamed or removed, so earlier prefixes
    stay intact.

    The closed star is taken in the complex the tower has reached (the
    *current* complex), not in the accumulated filtration: the contracted
    image is carried forward separately, so cone cells from one contraction
    never feed the star of the next and the filtration stays within a
    constant factor of the tower itself.  The closed star of ``u`` is
    ``star(u)`` together with ``s - {u}`` for each ``s`` in it, so the cone
    is ``s + {v}`` and ``(s - {u}) + {v}`` over ``star(u)``; the contraction
    then replaces ``star(u)`` by its images.  Each op therefore costs in
    proportion to the faces it adds or to the star of ``u``.

    A cell is emitted exactly when it is new to the current complex.  That
    is the same as new to the filtration: the current complex holds only
    live vertices (Include resolves aliases, Contract renames ``u`` away),
    and every emitted cell that has left it contains a dead vertex, since
    a Contract removes only cells of ``star(u)``.  So emitted-but-absent
    cells can never be emitted again, and no record of emitted cells is
    needed.
    """
    alias: dict[int, int] = {}
    known: set[int] = set()

    def resolve(x: int) -> int:
        while x in alias:
            x = alias[x]
        return x

    cells: list[tuple[Simplex, float]] = []
    current = _Complex()
    prev_grade: float | None = None

    for i, op in enumerate(tower.ops):
        if prev_grade is not None and op.grade < prev_grade:
            raise TowerOpError(f"op {i}: grade decreases along the tower")
        prev_grade = op.grade
        if isinstance(op, Include):
            raw = as_simplex(op.simplex)
            known.update(raw)
            new = current.missing_faces(tuple(sorted({resolve(x) for x in raw})))
            current.add(new)
            cells.extend((s, op.grade) for s in new)
        elif isinstance(op, Contract):
            if op.source not in known or op.target not in known:
                raise TowerOpError(
                    f"op {i}: contract ({op.source} -> {op.target}) of an unknown vertex"
                )
            u = resolve(op.source)
            v = resolve(op.target)
            if u == v:
                continue
            star = current.star(u)
            images = [_rename(s, u, v) for s in star]
            cone = set(images)
            cone.update(tuple(sorted(s + (v,))) for s in star if v not in s)
            new = sorted(cone - current.cells, key=_by_dim)
            cells.extend((s, op.grade) for s in new)
            current.replace(star, images)
            alias[u] = v
        else:  # pragma: no cover - type misuse
            raise TowerOpError(f"op {i}: unknown op {op!r}")

    return Filtration(tuple(cells))
