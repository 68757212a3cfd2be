"""Simplicial complexes represented by their maximal simplices.

A complex is a ``dict[int, Simplex]`` that maps each column (maximal
simplex) id to its sorted vertex tuple.  Only the maximal simplices are
materialised; every lower face is implicit.  This keeps the representation
proportional to the number of maximal simplices instead of the total cell
count, which is what makes strong collapse cheap on clique-like complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def maximal_columns(simplices: Iterable[Iterable[int]]) -> dict[int, Simplex]:
    """The maximal members of *simplices*, as a complex.

    Each simplex goes through :func:`as_simplex`; exact duplicates and
    simplices contained in another are dropped, and the survivors are
    numbered 0..m-1 in order of first appearance.  Every superset of a
    simplex holds its lowest vertex, so a simplex is compared only with the
    simplices that hold that vertex.
    """
    unique = list(dict.fromkeys(map(as_simplex, simplices)))
    if not unique:
        raise EmptyComplexError()
    holding: dict[int, list[frozenset[int]]] = {}
    sets = [frozenset(s) for s in unique]
    for a in sets:
        for v in a:
            holding.setdefault(v, []).append(a)
    survivors = (
        s for s, a in zip(unique, sets) if not any(a < b for b in holding[s[0]])
    )
    return dict(enumerate(survivors))


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
