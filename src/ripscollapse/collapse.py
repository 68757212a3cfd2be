"""Strong collapse of complexes given by their maximal simplices.

A vertex ``v`` is dominated by a vertex ``w`` when every maximal simplex
containing ``v`` also contains ``w``; deleting a dominated vertex preserves
the homotopy type.  Dually, a column whose vertex set is contained in
another column's is redundant.  :func:`core` alternates row and column
deletion phases, driven by FIFO queues of candidates, until neither applies.
With the deterministic tie-breaks used here (smallest candidate wins; on
equal sets the larger id is removed) the result is a function of the input,
and ids of surviving rows and columns are preserved.

:func:`core` serves general complexes and ``ripscollapse core``.  It takes a
complex as a ``dict[int, Simplex]`` from column (maximal simplex) id to
vertex tuple and returns its core in the same form, with the retraction as
a ``dict[int, int]``; it keeps each row and each column as a Python-int
bitset of positions on the other side, so it needs no compiled kernel.
Rips snapshots are flag complexes, so the pipeline collapses them on their
neighbourhood graph instead (:func:`ripscollapse.rips.flag_core`, also on
int bitsets), which returns its core as plain data: the survivors' cliques,
the retraction as a list indexed by point, and its row removals.

Each collapse logs every removal in its trace, and that log is its one
record of them: the retraction onto the core is the composite of the
trace's row removals, each sending the removed vertex to its dominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .complexes import Simplex, as_simplex
from .errors import CollapseConsistencyError, EmptyComplexError, SimplexError

RowEvent = tuple[str, int, int]  # ("row" | "col", removed id, dominating id)
_Target = TypeVar("_Target", dict[int, int], list[int])  # vertex -> its image


@dataclass(frozen=True, slots=True)
class CollapseTrace:
    """Ordered log of one collapse run.

    ``events`` interleaves row and column removals exactly as they were
    executed; ``row_phases`` and ``col_phases`` count the phases of each
    kind that ran.  The work counters record how many domination candidates
    each phase kind examined, for the complexity smoke tests.
    """

    events: tuple[RowEvent, ...]
    row_phases: int = 0
    col_phases: int = 0
    row_candidate_tests: int = 0
    col_candidate_tests: int = 0


class CoreResult(NamedTuple):
    """Core of a complex: its surviving columns (id to vertex tuple, in
    increasing id), the retraction sending every input vertex to its
    survivor (keys in increasing order), and the run log."""

    columns: dict[int, Simplex]
    retraction: dict[int, int]
    trace: CollapseTrace


def _bits(mask: int) -> Simplex:
    """Set bits of *mask* in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _retraction(target: _Target, events: Sequence[RowEvent]) -> _Target:
    """Compose the removals *events* into *target*, the identity on the
    vertices, so that it maps each vertex to its survivor in the core the
    removals leave; *target* is changed in place and returned.

    A row event ``("row", x, y)`` sends ``x`` to ``y``, which is live when it
    dominates ``x``; read right to left, every later removal has already set
    ``y``'s image, so one reverse pass composes them.  Column events move no
    vertex.
    """
    for kind, x, y in reversed(events):
        if kind == "row":
            target[x] = target[y]
    return target


def _check_fixed_points(target: dict[int, int]) -> None:
    """Raise :class:`CollapseConsistencyError` unless every image under the
    retraction *target* is a vertex that *target* fixes."""
    for v, w in target.items():
        if target.get(w) != w:
            raise CollapseConsistencyError(
                f"retraction target {w} of vertex {v} is not a fixed point"
            )


def core(columns: Mapping[int, Iterable[int]]) -> CoreResult:
    """Collapse the complex *columns* (column id to vertex set) to its core.

    Column ids must be non-negative ints and every column goes through
    :func:`as_simplex`; maximality is the caller's to ensure
    (:func:`ripscollapse.complexes.maximal_columns` gives it).

    Rows and columns are int bitsets of positions on the other side.  Each
    phase takes one side's FIFO queue, rows first, and removes an entry
    ``x`` when a live ``y`` of the same side has ``live(x) <= live(y)``,
    with ``y < x`` required when the two are equal (so the earlier id
    survives).  Every dominator of ``x`` is a member of ``x``'s first live
    entry on the other side, so only those are tested.  A removal queues
    the live entries of ``x`` for the other side's next phase; the phases
    alternate until the next one has nothing queued.

    The core keeps the surviving row and column ids of the input; the
    retraction maps every input vertex to its survivor.  Running
    :func:`core` on the result's columns again changes nothing.
    """
    if not columns:
        raise EmptyComplexError()
    prepared: dict[int, Simplex] = {}
    for cid, verts in columns.items():
        if not isinstance(cid, int) or cid < 0:
            raise SimplexError(f"column ids must be non-negative integers, got {cid!r}")
        prepared[cid] = as_simplex(verts)
    ids = (sorted({v for s in prepared.values() for v in s}), sorted(prepared))
    vpos = {v: i for i, v in enumerate(ids[0])}
    rows = [0] * len(ids[0])
    cols = []
    for j, c in enumerate(ids[1]):
        col = 0
        for v in prepared[c]:
            rows[vpos[v]] |= 1 << j
            col |= 1 << vpos[v]
        cols.append(col)
    masks = (rows, cols)
    alive = [(1 << len(rows)) - 1, (1 << len(cols)) - 1]
    # row phases, column phases, row tests, column tests
    counters = [0] * 4
    events: list[RowEvent] = []
    queue = list(range(len(rows)))
    side = 0
    while queue:
        other = 1 - side
        own, oth = masks[side], masks[other]
        counters[side] += 1
        queued = 0
        next_queue: list[int] = []
        for x in queue:
            # never 0: a removed row's dominator stays in all of its columns,
            # and a removed column's vertices stay in the column containing it
            lx = own[x] & alive[other]
            cand = oth[(lx & -lx).bit_length() - 1] & alive[side] & ~(1 << x)
            while cand:
                low = cand & -cand
                y = low.bit_length() - 1
                cand ^= low
                counters[2 + side] += 1
                ly = own[y] & alive[other]
                if lx & ~ly == 0 and (lx != ly or y < x):
                    alive[side] ^= 1 << x
                    events.append((("row", "col")[side], ids[side][x], ids[side][y]))
                    fresh = lx & ~queued
                    queued |= fresh
                    next_queue.extend(_bits(fresh))
                    break
        queue = next_queue
        side = other

    vids, cids = ids
    survivors = {
        cids[j]: tuple(vids[i] for i in _bits(cols[j] & alive[0])) for j in _bits(alive[1])
    }
    trace = CollapseTrace(
        events=tuple(events),
        row_phases=counters[0],
        col_phases=counters[1],
        row_candidate_tests=counters[2],
        col_candidate_tests=counters[3],
    )
    retraction = _retraction({v: v for v in vids}, events)
    _check_fixed_points(retraction)
    return CoreResult(survivors, retraction, trace)


def trace_to_text(trace: CollapseTrace) -> str:
    """Dump trace events, one ``r <removed> <by>`` / ``c <removed> <by>`` line each."""
    return "".join(f"{kind[0]} {removed} {by}\n" for kind, removed, by in trace.events)

