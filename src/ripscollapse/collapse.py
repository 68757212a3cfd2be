"""Strong collapse of complexes given by their maximal simplices.

A vertex ``v`` is dominated by a vertex ``w`` when every maximal simplex
containing ``v`` also contains ``w``; deleting a dominated vertex preserves
the homotopy type.  Dually, a column whose vertex set is contained in
another column's is redundant.  :func:`core` alternates row and column
deletion phases, driven by FIFO queues of candidates, until neither applies.
With the deterministic tie-breaks used here (smallest candidate wins; on
equal sets the larger id is removed) the result is a function of the input,
and ids of surviving rows and columns are preserved.

:func:`core` serves general complexes and ``ripscollapse core``; it keeps
each row and each column as a Python-int bitset of positions on the other
side, so it needs no compiled kernel.  Rips snapshots are flag complexes, so
the pipeline collapses them on their neighbourhood graph instead
(:func:`ripscollapse.rips.flag_core`, also on int bitsets), which returns
the same :class:`CoreResult` with a row-only trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .complexes import ComplexMatrix, Simplex, as_simplex
from .errors import CollapseConsistencyError

RowEvent = tuple[str, int, int]  # ("row" | "col", removed id, dominating id)


@dataclass(frozen=True, slots=True)
class RetractionMap:
    """Vertex map sending each vertex of a complex to its core survivor.

    ``target`` maps every vertex of the input complex to a vertex of the
    core; core vertices map to themselves.  The map is idempotent and the
    composition of the individual domination steps that removed vertices.
    """

    target: dict[int, int]

    def __post_init__(self) -> None:
        for v, w in self.target.items():
            if w not in self.target or self.target[w] != w:
                raise CollapseConsistencyError(
                    f"retraction target {w} of vertex {v} is not a fixed point"
                )

    @classmethod
    def from_dominators(
        cls, vertices: Iterable[int], dominator: dict[int, int]
    ) -> "RetractionMap":
        """Compose removal steps: each removed vertex follows its chain of
        dominators (``removed -> by``) to the vertex that survived."""
        target: dict[int, int] = {}
        for v in vertices:
            u = v
            chain = []
            while u in dominator:
                chain.append(u)
                u = dominator[u]
                if u in target:
                    u = target[u]
                    break
            for x in chain:
                target[x] = u
            target[v] = u
        return cls(target)

    def __call__(self, v: int) -> int:
        return self.target[v]

    def apply_to(self, simplex: Iterable[int]) -> Simplex:
        """Image of a simplex under the map (duplicate targets merge)."""
        return as_simplex(set(self.target[v] for v in simplex))


@dataclass(frozen=True, slots=True)
class CollapseTrace:
    """Ordered log of one collapse run.

    ``events`` interleaves row and column removals exactly as they were
    executed; ``row_phases`` and ``col_phases`` count the phases of each
    kind that ran.  The work counters record how many domination candidates
    each phase kind examined, for the complexity smoke tests.  A graph
    collapse (``flag_core``) is one row phase with row events only.
    """

    events: tuple[RowEvent, ...]
    row_phases: int = 0
    col_phases: int = 0
    row_candidate_tests: int = 0
    col_candidate_tests: int = 0

    @property
    def rounds(self) -> int:
        """Phases run in total, of either kind."""
        return self.row_phases + self.col_phases

    @property
    def removed_rows(self) -> tuple[int, ...]:
        return tuple(e[1] for e in self.events if e[0] == "row")

    @property
    def removed_cols(self) -> tuple[int, ...]:
        return tuple(e[1] for e in self.events if e[0] == "col")


@dataclass(frozen=True, slots=True)
class CoreResult:
    """Core complex together with the retraction onto it and the run log."""

    matrix: ComplexMatrix
    retraction: RetractionMap
    trace: CollapseTrace

    def __iter__(self) -> Iterator:
        return iter((self.matrix, self.retraction, self.trace))


def _bits(mask: int) -> Simplex:
    """Set bits of *mask* in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def core(matrix: ComplexMatrix) -> CoreResult:
    """Collapse *matrix* to its core.

    Rows and columns are int bitsets of positions on the other side.  Each
    phase takes one side's FIFO queue, rows first, and removes an entry
    ``x`` when a live ``y`` of the same side has ``live(x) <= live(y)``,
    with ``y < x`` required when the two are equal (so the earlier id
    survives).  Every dominator of ``x`` is a member of ``x``'s first live
    entry on the other side, so only those are tested.  A removal queues
    the live entries of ``x`` for the other side's next phase; the phases
    alternate until the next one has nothing queued.

    The returned matrix keeps the surviving row and column ids of the input;
    the retraction maps every input vertex to its survivor.  Running
    :func:`core` on the result again changes nothing.
    """
    ids = (matrix.vertex_ids, matrix.column_ids)
    vpos = {v: i for i, v in enumerate(ids[0])}
    rows = [0] * len(ids[0])
    cols = []
    for j, c in enumerate(ids[1]):
        col = 0
        for v in matrix.column(c):
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
    core_matrix = ComplexMatrix.from_columns(
        {cids[j]: [vids[i] for i in _bits(cols[j] & alive[0])] for j in _bits(alive[1])}
    )
    dominator = {removed: by for kind, removed, by in events if kind == "row"}
    trace = CollapseTrace(
        events=tuple(events),
        row_phases=counters[0],
        col_phases=counters[1],
        row_candidate_tests=counters[2],
        col_candidate_tests=counters[3],
    )
    return CoreResult(core_matrix, RetractionMap.from_dominators(vids, dominator), trace)


def find_dominating_row(matrix: ComplexMatrix, v: int) -> int | None:
    """Smallest vertex dominating *v* in *matrix*, or ``None``.

    A vertex ``w`` dominates ``v`` when ``row(v)`` is contained in
    ``row(w)``; when the two rows are equal, only the smaller id counts as
    the dominator, so exactly one of an equal pair is removable.
    """
    row_v = matrix.row(v)
    set_v = set(row_v)
    n_v = len(row_v)
    for w in matrix.column(row_v[0]):
        if w == v:
            continue
        row_w = matrix.row(w)
        if len(row_w) < n_v:
            continue
        if len(row_w) == n_v and w > v:
            continue
        if set_v.issubset(row_w):
            return w
    return None


def find_dominating_column(matrix: ComplexMatrix, c: int) -> int | None:
    """Smallest column containing column *c*'s vertex set, or ``None``.

    Mirrors :func:`find_dominating_row` on the transpose: equal columns keep
    the smaller id.
    """
    col_c = matrix.column(c)
    set_c = set(col_c)
    n_c = len(col_c)
    for d in matrix.row(col_c[0]):
        if d == c:
            continue
        col_d = matrix.column(d)
        if len(col_d) < n_c:
            continue
        if len(col_d) == n_c and d > c:
            continue
        if set_c.issubset(col_d):
            return d
    return None


def nerve_step(matrix: ComplexMatrix) -> ComplexMatrix:
    """One nerve: drop non-maximal rows, then transpose.

    The new matrix has the old column ids as vertices and the kept old
    vertex ids as columns (each column listing the maximal simplices that
    vertex belonged to).  Equal rows keep the smallest id.  Applying this
    twice yields the full subcomplex of the input spanned by the vertices
    that survive the first step; on a core it returns the input itself.
    """
    rows = {v: matrix.row(v) for v in matrix.vertex_ids}
    row_sets = {v: set(r) for v, r in rows.items()}
    kept = [
        v
        for v in rows
        if not any(
            w != v
            and row_sets[v] <= row_sets[w]
            and (len(rows[w]) > len(rows[v]) or w < v)
            for w in matrix.column(rows[v][0])
        )
    ]
    return ComplexMatrix.from_columns({v: rows[v] for v in kept})


def replay_trace(
    matrix: ComplexMatrix, events: Iterable[RowEvent], check: bool = False
) -> ComplexMatrix:
    """Apply recorded removal events to *matrix* and return the result.

    With ``check=True`` every event is verified: the removed and dominating
    objects must be alive and the domination containment must hold at that
    moment; violations raise :class:`CollapseConsistencyError`.
    """
    cols = {cid: set(s) for cid, s in matrix.columns_sorted()}
    rows = {v: set(matrix.row(v)) for v in matrix.vertex_ids}
    for kind, removed, by in events:
        if kind == "row":
            if removed not in rows or by not in rows:
                raise CollapseConsistencyError(
                    f"row event ({removed} -> {by}) references a dead vertex"
                )
            if check and not rows[removed] <= rows[by]:
                raise CollapseConsistencyError(
                    f"vertex {removed} is not dominated by {by} at its event"
                )
            for c in rows.pop(removed):
                cols[c].discard(removed)
        elif kind == "col":
            if removed not in cols or by not in cols:
                raise CollapseConsistencyError(
                    f"column event ({removed} -> {by}) references a dead column"
                )
            if check and not cols[removed] <= cols[by]:
                raise CollapseConsistencyError(
                    f"column {removed} is not contained in {by} at its event"
                )
            for v in cols.pop(removed):
                rows[v].discard(removed)
        else:
            raise CollapseConsistencyError(f"unknown event kind {kind!r}")
    return ComplexMatrix.from_columns(
        {cid: tuple(sorted(vs)) for cid, vs in cols.items()}
    )


def trace_to_text(trace: CollapseTrace) -> str:
    """Dump trace events, one ``r <removed> <by>`` / ``c <removed> <by>`` line each."""
    return "".join(f"{kind[0]} {removed} {by}\n" for kind, removed, by in trace.events)

