"""Core towers and their conversion to equivalent filtrations.

The cores of consecutive snapshots are connected by the composite maps
"include into the next snapshot, then retract onto its core".  A tower
encodes those maps as elementary operations: Include adds a simplex at a
grade, Contract merges a live vertex into another.  Because a filtration
cannot express vertex merges directly, :func:`tower_to_filtration` realises
each Contract(u, v) by coning: every cell of the closed star of ``u`` gains
the cone cell with apex ``v``, which makes ``u`` dominated by ``v`` from
that grade on without ever renaming existing cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
        """Replay the ops, checking the elementary-op invariants."""
        present: set[Simplex] = set()
        live: set[int] = set()
        prev_grade: float | None = None
        for i, op in enumerate(self.ops):
            if prev_grade is not None and op.grade < prev_grade:
                raise TowerOpError(f"op {i}: grade decreases along the tower")
            prev_grade = op.grade
            if isinstance(op, Include):
                s = as_simplex(op.simplex)
                if s in present:
                    raise TowerOpError(f"op {i}: include of already present {s}")
                for k in range(1, len(s) + 1):
                    present.update(combinations(s, k))
                live.update(s)
            elif isinstance(op, Contract):
                u, v = op.source, op.target
                if u == v:
                    raise TowerOpError(f"op {i}: contract of a vertex into itself")
                if u not in live or v not in live:
                    raise TowerOpError(f"op {i}: contract ({u} -> {v}) of a non-live vertex")
                present = {
                    tuple(sorted({v if x == u else x for x in s})) for s in present
                }
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

    The closed star is taken in the complex the tower has reached, not in
    the accumulated filtration: the contracted image is carried forward
    separately, so cone cells from one contraction never feed the star of
    the next and the filtration stays within a constant factor of the tower
    itself.
    """
    alias: dict[int, int] = {}
    known: set[int] = set()

    def resolve(x: int) -> int:
        while x in alias:
            x = alias[x]
        return x

    cells: list[tuple[Simplex, float]] = []
    present: set[Simplex] = set()
    current: set[Simplex] = set()
    prev_grade: float | None = None

    for i, op in enumerate(tower.ops):
        if prev_grade is not None and op.grade < prev_grade:
            raise TowerOpError(f"op {i}: grade decreases along the tower")
        prev_grade = op.grade
        if isinstance(op, Include):
            raw = as_simplex(op.simplex)
            known.update(raw)
            target = tuple(sorted({resolve(x) for x in raw}))
            for k in range(1, len(target) + 1):
                for face in combinations(target, k):
                    current.add(face)
                    if face not in present:
                        present.add(face)
                        cells.append((face, op.grade))
        elif isinstance(op, Contract):
            if op.source not in known or op.target not in known:
                raise TowerOpError(
                    f"op {i}: contract ({op.source} -> {op.target}) of an unknown vertex"
                )
            u = resolve(op.source)
            v = resolve(op.target)
            if u == v:
                continue
            closed_star: set[Simplex] = set()
            for s in current:
                if u in s:
                    for k in range(1, len(s) + 1):
                        closed_star.update(combinations(s, k))
            cone = {tuple(sorted(set(t) | {v})) for t in closed_star}
            for c in sorted(cone - present, key=lambda s: (len(s), s)):
                present.add(c)
                cells.append((c, op.grade))
            current = {
                tuple(sorted({v if x == u else x for x in s})) for s in current
            }
            alias[u] = v
        else:  # pragma: no cover - type misuse
            raise TowerOpError(f"op {i}: unknown op {op!r}")

    return Filtration(tuple(cells))
