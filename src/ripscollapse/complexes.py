"""Simplicial complexes represented by their maximal simplices.

A complex is stored as a sparse 0/1 incidence structure between vertices
(rows) and maximal simplices (columns).  Only the maximal simplices are
materialised; every lower face is implicit.  This keeps the representation
proportional to the number of maximal simplices instead of the total cell
count, which is what makes strong collapse cheap on clique-like complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EmptyComplexError, ExpansionCapError, SimplexError

VertexId = int

# A simplex is a non-empty tuple of distinct vertex ids in strictly
# increasing order.  Plain tuples keep hashing/comparison cheap and make the
# lexicographic orderings used elsewhere trivial.
Simplex = tuple[VertexId, ...]

#: Default ceiling on the number of cells a full expansion may produce.
DEFAULT_EXPANSION_CAP = 10**7


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Normalise *vertices* into a valid simplex tuple.

    Vertices are sorted; duplicates or negative ids are rejected.
    """
    verts = tuple(sorted(vertices))
    if not verts:
        raise SimplexError("a simplex needs at least one vertex")
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool):
            raise SimplexError(f"vertex ids must be integers, got {v!r}")
        if v < 0:
            raise SimplexError(f"vertex ids must be non-negative, got {v}")
    for a, b in zip(verts, verts[1:]):
        if a == b:
            raise SimplexError(f"duplicate vertex {a} in simplex")
    return verts


def check_expansion_cap(
    maximal: Iterable[Simplex], cap: int = DEFAULT_EXPANSION_CAP
) -> None:
    """Raise :class:`ExpansionCapError` when the projected cell count of the
    complex with maximal simplices *maximal* (sum of their subset counts, an
    upper bound) exceeds *cap*, and ``ValueError`` when *cap* is below 1."""
    if cap < 1:
        raise ValueError(f"expansion cap must be at least 1, got {cap}")
    projected = sum(2 ** len(s) - 1 for s in maximal)
    if projected > cap:
        raise ExpansionCapError(projected, cap)


@dataclass(frozen=True, slots=True)
class ComplexStats:
    """Size summary of a complex: vertex and maximal-simplex counts and
    dimension."""

    n_vertices: int
    n_maximal: int
    dimension: int


class ComplexMatrix:
    """Immutable vertex-by-maximal-simplex incidence matrix.

    Rows are indexed by vertex id, columns by simplex id.  Row ``v`` holds
    the ids of the maximal simplices containing ``v``; column ``c`` holds the
    vertex set of maximal simplex ``c``.  Ids are stable: operations that
    shrink a complex keep the surviving ids unchanged and never reuse ids.

    Instances built through :meth:`from_simplex_list` are canonical (no
    column contains another, no duplicates).  :meth:`from_columns` trusts the
    caller to pass maximal columns: :func:`ripscollapse.collapse.core` builds
    its cores with it, whose surviving columns are maximal.
    """

    __slots__ = ("_cols", "_rows")

    def __init__(self, cols: Mapping[int, Simplex], *, _trusted: bool = False) -> None:
        if not _trusted:
            raise TypeError(
                "use ComplexMatrix.from_simplex_list or ComplexMatrix.from_columns"
            )
        self._cols: dict[int, Simplex] = dict(cols)
        rows: dict[int, list[int]] = {}
        for cid in sorted(self._cols):
            for v in self._cols[cid]:
                rows.setdefault(v, []).append(cid)
        self._rows: dict[int, tuple[int, ...]] = {
            v: tuple(cids) for v, cids in sorted(rows.items())
        }

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_simplex_list(cls, simplices: Iterable[Iterable[int]]) -> "ComplexMatrix":
        """Build a canonical complex from an iterable of simplices.

        Exact duplicates are dropped, simplices contained in another are
        dropped, and the survivors are numbered 0..m-1 in order of first
        appearance.
        """
        unique: list[Simplex] = []
        seen: set[Simplex] = set()
        for raw in simplices:
            s = as_simplex(raw)
            if s not in seen:
                seen.add(s)
                unique.append(s)
        if not unique:
            raise EmptyComplexError()
        as_sets = [frozenset(s) for s in unique]
        survivors = [
            s
            for i, s in enumerate(unique)
            if not any(j != i and as_sets[i] < as_sets[j] for j in range(len(unique)))
        ]
        return cls({cid: s for cid, s in enumerate(survivors)}, _trusted=True)

    @classmethod
    def from_columns(cls, cols: Mapping[int, Iterable[int]]) -> "ComplexMatrix":
        """Build a complex with explicit column ids, trusting maximality.

        Vertex tuples are still validated and sorted, but a column nested
        in another is kept as given: maximality is the caller's to ensure.
        """
        if not cols:
            raise EmptyComplexError()
        prepared: dict[int, Simplex] = {}
        for cid, verts in cols.items():
            if not isinstance(cid, int) or cid < 0:
                raise SimplexError(f"column ids must be non-negative integers, got {cid!r}")
            prepared[cid] = as_simplex(verts)
        return cls(prepared, _trusted=True)

    # -- accessors ------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        """Vertex ids in increasing order."""
        return tuple(self._rows)

    @property
    def column_ids(self) -> tuple[int, ...]:
        """Column (maximal simplex) ids in increasing order."""
        return tuple(sorted(self._cols))

    def column(self, c: int) -> Simplex:
        """Vertex set of maximal simplex *c*."""
        return self._cols[c]

    def columns_sorted(self) -> list[tuple[int, Simplex]]:
        """``(column id, vertex tuple)`` pairs in increasing column id."""
        return [(cid, self._cols[cid]) for cid in sorted(self._cols)]

    def maximal_simplices(self) -> list[Simplex]:
        """Vertex tuples of the maximal simplices, in column id order."""
        return [s for _, s in self.columns_sorted()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self._cols == other._cols

    def __repr__(self) -> str:
        cols = ", ".join(f"{cid}:{list(s)}" for cid, s in self.columns_sorted())
        return f"ComplexMatrix({{{cols}}})"

    # -- queries --------------------------------------------------------

    def stats(self) -> ComplexStats:
        """Vertex and maximal-simplex counts and dimension."""
        return ComplexStats(
            n_vertices=len(self._rows),
            n_maximal=len(self._cols),
            dimension=max(len(s) for s in self._cols.values()) - 1,
        )
