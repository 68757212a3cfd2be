"""Deliberately naive reference implementations used to pin expected values.

Everything here favours obviousness over speed and shares no code with the
package: maximality by pairwise subset tests, expansion by powersets, domination
by set containment (on the graph, :func:`naive_flag_core` tests every live
neighbour, where the package prunes), the retraction by following chains of
dominators, the collapse's events by replaying them on row and column sets,
the nerve by a pairwise row scan, faces of a complex by a set test against
each maximal simplex, distances by loops, clique enumeration by
subset scan, Betti numbers by dense GF(2) rank, persistence by the textbook
set-based column reduction, the snapshot filtration by expanding every
snapshot and dropping the cells seen before, the exact edge-length Rips
filtration, bottleneck distance by exhaustive matching, tower assembly,
replay and coning by whole-complex rewrites, the flag tower's filtration by
replaying its ops on a plain graph and listing its cliques, and face-first
order by a set of the cells seen so far.  The coned tower is the judge of
the package's flag tower diagram by diagram, and the replayed graph cell by
cell.  The collapse judges read and return complexes in the
package's form, a dict from column id to sorted vertex tuple, and raise its
``CollapseConsistencyError``, so that they compare with ``core`` directly.
The tower oracles take the package's op types and ``as_simplex``, and the
assembly oracle its inputs (maximal simplices, and retractions as lists
indexed by point) and error types, so that their output and their errors
compare with the package's one for one; replay and coning raise the local
:class:`TowerOpError`.  The snapshot-filtration oracle expands snapshots in
that form after their own cap check and so raises the package's cap error;
:func:`rips_snapshot` builds those snapshots from the package's clique
enumeration, on the graph of one ``D <= t`` comparison per threshold
(:func:`neighborhood_bitsets`, the judge of the package's one-pass
``graded_bitsets``), and :func:`complex_stats` sizes them as the package's
``ComplexStats``.  :func:`graded_edges` grades a graph sequence's edges by
testing each graph in turn, as the oracle's level join takes them.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, combinations, permutations
from numbers import Real
from typing import Iterable

import numpy as np

from ripscollapse.collapse import RowEvent
from ripscollapse.complexes import (
    DEFAULT_EXPANSION_CAP,
    ComplexStats,
    Simplex,
    as_simplex,
    check_expansion_cap,
)
from ripscollapse.errors import CollapseConsistencyError, ExpansionCapError
from ripscollapse.rips import maximal_cliques
from ripscollapse.tower import Contract, Include


class TowerOpError(ValueError):
    """A tower op references vertices in an inconsistent way."""


# -- complexes ---------------------------------------------------------------


def canonical(simplices):
    """Sorted tuples, first-appearance deduplication."""
    out, seen = [], set()
    for s in simplices:
        t = tuple(sorted(set(s)))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def maximal_by_pairwise_subset(simplices):
    """Maximal members, by comparing every pair of simplices as sets."""
    cand = canonical(simplices)
    sets = [set(s) for s in cand]
    return [
        s
        for s, a in zip(cand, sets)
        if not any(a < b for b in sets)
    ]


def expand_by_powerset(simplices):
    """Every non-empty subset of every simplex, sorted by (dim, lex)."""
    cells = set()
    for s in simplices:
        s = tuple(sorted(set(s)))
        for k in range(1, len(s) + 1):
            cells.update(combinations(s, k))
    return sorted(cells, key=lambda t: (len(t), t))


def naive_is_face(maximal, s):
    """True iff the vertex set *s* lies in one of the simplices *maximal*,
    by a set test against each of them."""
    return any(set(s) <= set(m) for m in maximal)


def random_maximal_simplices(rng, n_vertices, n_simplices, max_card):
    """Random generating simplices (not necessarily mutually maximal)."""
    out = []
    for _ in range(n_simplices):
        k = rng.randint(1, max_card)
        out.append(tuple(sorted(rng.sample(range(n_vertices), min(k, n_vertices)))))
    return out


def neighborhood_bitsets(D, t):
    """Adjacency of the distance-``<= t`` graph, one int bitmask per vertex,
    from one full comparison of *D* with *t*."""
    mask = D <= t
    np.fill_diagonal(mask, False)
    return [
        int.from_bytes(np.packbits(mask[i], bitorder="little").tobytes(), "little")
        for i in range(D.shape[0])
    ]


def graded_edges(graphs):
    """The edges ``u < v`` of the last of the nested bitset *graphs*, as
    sorted keys ``u * n + v``, and the index of the first graph that holds
    each, found by testing the graphs in turn for each edge."""
    n = len(graphs[0])
    keys, first = [], []
    for u, nbrs in enumerate(graphs[-1]):
        bits = bin(nbrs)[:1:-1]  # bits[v] is bit v of nbrs
        for v in range(u + 1, len(bits)):
            if bits[v] == "1":
                keys.append(u * n + v)
                first.append(next(i for i, graph in enumerate(graphs) if graph[u] >> v & 1))
    return np.array(keys, np.int64), np.array(first, np.intp)


def tower_graph(tower):
    """The graph whose clique filtration is *tower*'s, read off its cells:
    a vertex per vertex cell and an edge per edge cell, as bitsets on the
    vertices' ranks."""
    vertices = tower.arrays.vertices
    rank = {v: i for i, v in enumerate(vertices[0][:, 0].tolist())}
    adj = [0] * len(rank)
    for a, b in vertices[1].tolist() if len(vertices) > 1 else ():
        adj[rank[a]] |= 1 << rank[b]
        adj[rank[b]] |= 1 << rank[a]
    return adj


def rips_snapshot(D, t):
    """Maximal simplices of the Rips complex of *D* at threshold *t*, as
    columns numbered in lexicographic order of their cliques."""
    return dict(enumerate(maximal_cliques(neighborhood_bitsets(D, t))))


def vertices_of(columns) -> list[int]:
    """Vertex ids of the complex *columns*, in increasing order."""
    return sorted(set(chain.from_iterable(columns.values())))


def maximal_simplices(columns) -> list[Simplex]:
    """Vertex tuples of the complex *columns*, in column id order."""
    return [columns[c] for c in sorted(columns)]


def complex_stats(columns) -> ComplexStats:
    """Vertex and maximal-simplex counts and dimension of *columns*."""
    top = max(len(s) for s in columns.values()) - 1
    return ComplexStats(len(vertices_of(columns)), len(columns), top)


def matrix_rows(columns) -> dict[int, tuple[int, ...]]:
    """Ids of the columns containing each vertex, in increasing order."""
    rows: dict[int, list[int]] = {v: [] for v in vertices_of(columns)}
    for c in sorted(columns):
        for v in columns[c]:
            rows[v].append(c)
    return {v: tuple(r) for v, r in rows.items()}


# -- collapse ----------------------------------------------------------------


def find_dominating_row(columns, v: int) -> int | None:
    """Smallest vertex dominating *v* in the complex *columns*, or ``None``.

    A vertex ``w`` dominates ``v`` when ``row(v)`` is contained in
    ``row(w)``; when the two rows are equal, only the smaller id counts as
    the dominator, so exactly one of an equal pair is removable.
    """
    rows = matrix_rows(columns)
    row_v = rows[v]
    set_v = set(row_v)
    n_v = len(row_v)
    for w in columns[row_v[0]]:
        if w == v:
            continue
        row_w = rows[w]
        if len(row_w) < n_v:
            continue
        if len(row_w) == n_v and w > v:
            continue
        if set_v.issubset(row_w):
            return w
    return None


def find_dominating_column(columns, c: int) -> int | None:
    """Smallest column containing column *c*'s vertex set, or ``None``.

    Mirrors :func:`find_dominating_row` on the transpose: equal columns keep
    the smaller id.
    """
    col_c = columns[c]
    set_c = set(col_c)
    n_c = len(col_c)
    for d in matrix_rows(columns)[col_c[0]]:
        if d == c:
            continue
        col_d = columns[d]
        if len(col_d) < n_c:
            continue
        if len(col_d) == n_c and d > c:
            continue
        if set_c.issubset(col_d):
            return d
    return None


def nerve_step(columns):
    """One nerve: drop non-maximal rows, then transpose.

    The new complex has the old column ids as vertices and the kept old
    vertex ids as columns (each column listing the maximal simplices that
    vertex belonged to).  Equal rows keep the smallest id.  Applying this
    twice yields the full subcomplex of the input spanned by the vertices
    that survive the first step; on a core it returns the input itself.
    """
    rows = matrix_rows(columns)
    row_sets = {v: set(r) for v, r in rows.items()}
    kept = [
        v
        for v in rows
        if not any(
            w != v
            and row_sets[v] <= row_sets[w]
            and (len(rows[w]) > len(rows[v]) or w < v)
            for w in columns[rows[v][0]]
        )
    ]
    return {v: rows[v] for v in kept}


def naive_flag_core(adj):
    """Strong collapse of the flag complex of the graph *adj* (one int
    bitmask per vertex), on Python sets: ``(events, survivors, tests)``.

    A FIFO queue, seeded with every vertex in id order, removes ``x`` in
    favour of the first live neighbour ``y``, in id order, with
    ``N[x] <= N[y]`` on live vertices (``y < x`` too when the two are
    equal), and queues again the live neighbours of ``x`` not in the queue.
    Every live neighbour is tested until one dominates; ``tests`` counts
    those tests.
    """
    n = len(adj)
    closed = [{u for u in range(n) if adj[v] >> u & 1} | {v} for v in range(n)]
    alive = set(range(n))
    queue = deque(range(n))
    queued = set(queue)
    events: list[RowEvent] = []
    tests = 0
    while queue:
        x = queue.popleft()
        queued.remove(x)
        nx = closed[x] & alive
        for y in sorted(nx - {x}):
            tests += 1
            ny = closed[y] & alive
            if nx <= ny and (nx != ny or y < x):
                alive.remove(x)
                events.append(("row", x, y))
                fresh = sorted(nx & alive - queued)
                queue.extend(fresh)
                queued.update(fresh)
                break
    return tuple(events), tuple(sorted(alive)), tests


def naive_retraction(vertices, dominator):
    """Survivor of each vertex, found by following its chain of dominators
    (``removed -> by``) until the chain leaves *dominator*.  A cycle raises
    :class:`CollapseConsistencyError`."""
    target = {}
    for v in vertices:
        u, seen = v, set()
        while u in dominator:
            if u in seen:
                raise CollapseConsistencyError(f"the dominator chain of vertex {v} is a cycle")
            seen.add(u)
            u = dominator[u]
        target[v] = u
    return target


def replay_trace(columns, events: Iterable[RowEvent], check: bool = False):
    """Apply recorded removal events to the complex *columns* and return the
    complex they leave.

    With ``check=True`` every event is verified: the removed and dominating
    objects must be alive and the domination containment must hold at that
    moment; violations raise :class:`CollapseConsistencyError`.
    """
    cols = {cid: set(s) for cid, s in columns.items()}
    rows = {v: set(r) for v, r in matrix_rows(columns).items()}
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
    return {cid: tuple(sorted(vs)) for cid, vs in cols.items()}


# -- distances ---------------------------------------------------------------


def naive_pairwise_distances(points):
    """Euclidean distances by explicit loops over pairs and coordinates."""
    n = len(points)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = 0.0
            for a, b in zip(points[i], points[j]):
                s += (a - b) * (a - b)
            D[i, j] = D[j, i] = math.sqrt(s)
    return D


# -- cliques -----------------------------------------------------------------


def naive_maximal_cliques(adjacency):
    """All maximal cliques by scanning every vertex subset (n <= ~14)."""
    n = len(adjacency)
    cliques = []
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if all(adjacency[u][v] for u, v in combinations(verts, 2)):
            cliques.append(tuple(verts))
    sets = [set(c) for c in cliques]
    return sorted(
        c for c, a in zip(cliques, sets) if not any(a < b for b in sets)
    )


def naive_clique_count(adjacency):
    """Number of non-empty cliques by scanning every vertex subset."""
    n = len(adjacency)
    count = 0
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if all(adjacency[u][v] for u, v in combinations(verts, 2)):
            count += 1
    return count


# -- homology ----------------------------------------------------------------


def _gf2_rank(rows):
    """Rank of a GF(2) matrix given as an iterable of int bitmasks."""
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def betti_by_rank(cells):
    """Betti numbers of a complex (iterable of simplices) via GF(2) ranks."""
    cells = sorted({tuple(sorted(set(s))) for s in cells}, key=lambda t: (len(t), t))
    by_dim = {}
    for s in cells:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    index = {s: i for d in by_dim.values() for i, s in enumerate(d)}
    ranks = {}
    for d in range(1, top + 1):
        rows = []
        for s in by_dim.get(d, []):
            mask = 0
            for face in combinations(s, d):
                mask |= 1 << index[face]
            rows.append(mask)
        ranks[d] = _gf2_rank(rows)
    betti = []
    for d in range(top + 1):
        n_d = len(by_dim.get(d, []))
        betti.append(n_d - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return tuple(betti)


def naive_column_reduction(columns):
    """Textbook left-to-right GF(2) reduction of columns given as row sets.

    Each column, in order, adds the reduced column owning its largest row
    until that row is unowned or the column is empty.  Returns the reduced
    columns; the largest row of a non-empty one is its pivot.
    """
    low_of = {}
    reduced = []
    for j, col in enumerate(columns):
        col = set(col)
        while col and max(col) in low_of:
            col ^= reduced[low_of[max(col)]]
        if col:
            low_of[max(col)] = j
        reduced.append(col)
    return reduced


def naive_persistence(cells):
    """Textbook set-based reduction of an ordered filtration.

    ``cells`` is a sequence of (simplex, grade) in filtration order; faces
    must precede cofaces.  Returns the multiset of (dim, birth, death) pairs
    with death == inf for essential classes and zero-length pairs dropped,
    sorted like the package's diagrams.
    """
    order = {s: i for i, (s, _) in enumerate(cells)}
    columns = []
    for s, _ in cells:
        if len(s) == 1:
            columns.append(set())
        else:
            columns.append({order[f] for f in combinations(s, len(s) - 1)})
    pairs = []
    killed = set()
    for j, col in enumerate(naive_column_reduction(columns)):
        if col:
            low = max(col)
            pairs.append((low, j))
            killed.add(low)
            killed.add(j)
    out = []
    for i, j in pairs:
        (s, b), (_, d) = cells[i], cells[j]
        if b != d:
            out.append((len(s) - 1, b, d))
    for j, (s, b) in enumerate(cells):
        if j not in killed:
            out.append((len(s) - 1, b, math.inf))
    return sorted(out)


def naive_filtration_from_snapshots(snapshots, grades, cap=DEFAULT_EXPANSION_CAP):
    """First-appearance filtration of fully expanded nested snapshots.

    Every simplex of every snapshot appears once, graded by the first
    snapshot containing it; cells of one grade are ordered by (dimension,
    lexicographic).  ``snapshots`` are complexes (dicts from column id to
    vertex tuple), each expanded by powerset after ``check_expansion_cap``
    on its maximal simplices.
    """
    if len(snapshots) != len(grades):
        raise ValueError("snapshots and grades must have equal length")
    seen: set[Simplex] = set()
    cells: list[tuple[Simplex, float]] = []
    for snapshot, g in zip(snapshots, grades):
        maximal = maximal_simplices(snapshot)
        check_expansion_cap(maximal, cap)
        for s in expand_by_powerset(maximal):
            if s not in seen:
                seen.add(s)
                cells.append((s, float(g)))
    return tuple(cells)


#: The reasons :func:`naive_filtration_fault` gives, each a phrase of the
#: message ``FiltrationOrderError`` carries for that fault.
FAULT_REASONS = (
    "malformed cell",
    "has grade",
    "the empty simplex",
    "not in increasing vertex order",
    "is missing face",
    "duplicate cell",
)


def naive_filtration_fault(cells):
    """``(index, reason)`` of the first cell that breaks face-first,
    non-decreasing order, or None.  Each cell is judged in this order: not
    a pair of a hashable tuple of vertices and a real grade, a grade below its
    predecessor's or NaN, the empty simplex, an edge whose vertices do not
    increase, a codimension-1 face not among the cells before it, a
    repeat.  A higher cell whose faces all came before is
    sorted when every edge is, so only edges are checked for order."""
    seen = set()
    prev = -math.inf
    for i, cell in enumerate(cells):
        if not (isinstance(cell, tuple) and len(cell) == 2):
            return i, "malformed cell"
        s, g = cell
        try:
            hash(s)
        except TypeError:
            return i, "malformed cell"
        if not (isinstance(s, tuple) and isinstance(g, Real)):
            return i, "malformed cell"
        if not g >= prev:
            return i, "has grade"
        if not s:
            return i, "the empty simplex"
        if len(s) == 2 and not s[0] < s[1]:
            return i, "not in increasing vertex order"
        if any(f not in seen for f in combinations(s, len(s) - 1) if f):
            return i, "is missing face"
        if s in seen:
            return i, "duplicate cell"
        seen.add(s)
        prev = g
    return None


def naive_check_filtration(cells):
    """Fail unless grades never decrease, no cell repeats, every edge is
    sorted and every cell's codimension-1 faces come before it, so that
    every prefix is downward closed."""
    fault = naive_filtration_fault(cells)
    assert fault is None, f"cell {fault[0]}: {fault[1]}"


def naive_boundary_index(cells):
    """``(by_dim, columns)`` of *cells*, built one cell at a time:
    ``by_dim[d]`` lists the indices of the dimension-d cells in order, and
    ``columns[i]`` the positions in ``by_dim[d - 1]`` of the faces of cell
    ``i``, in ``combinations`` order."""
    pos = {}
    by_dim = []
    columns = []
    for i, (s, _) in enumerate(cells):
        d = len(s) - 1
        if d == len(by_dim):
            by_dim.append([])
        columns.append(tuple(pos[f] for f in combinations(s, d)) if d else ())
        pos[s] = len(by_dim[d])
        by_dim[d].append(i)
    return tuple(map(tuple, by_dim)), tuple(columns)


def boundary_index_of(matrix):
    """``(by_dim, columns)`` of a ``BoundaryMatrix``, laid out as
    :func:`naive_boundary_index` lays them out, once each dimension's face
    array is checked for its shape and its grades against the cells."""
    by_dim = tuple(tuple(rows.tolist()) for rows in matrix.by_dim)
    columns = [None] * len(matrix.cells)
    for d, (rows, faces, grades) in enumerate(zip(by_dim, matrix.faces, matrix.grades)):
        assert faces.shape == (len(rows), d + 1 if d else 0)
        assert grades.tolist() == [matrix.cells[i][1] for i in rows]
        for i, column in zip(rows, faces.tolist()):
            columns[i] = tuple(column)
    return by_dim, tuple(columns)


def exact_rips_filtration(D, max_dim=None):
    """Edge-length Rips filtration of a full distance matrix (n <= ~12).

    Every subset enters at the length of its longest edge; cells sorted by
    (grade, dim, lex).
    """
    n = len(D)
    top = n if max_dim is None else max_dim + 1
    cells = []
    for k in range(1, top + 1):
        for s in combinations(range(n), k):
            grade = max((D[u][v] for u, v in combinations(s, 2)), default=0.0)
            cells.append((s, float(grade)))
    cells.sort(key=lambda c: (c[1], len(c[0]), c[0]))
    return cells


# -- bottleneck --------------------------------------------------------------


def brute_bottleneck(a_pts, b_pts):
    """Exact bottleneck distance between two small finite-pair lists.

    Considers every way of matching a subset of A to B injectively and
    sending the rest to the diagonal (feasible for len <= ~6).
    """

    def linf(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def diag(p):
        return (p[1] - p[0]) / 2.0

    best = math.inf
    m = len(b_pts)
    for k in range(min(len(a_pts), m) + 1):
        for chosen in combinations(range(len(a_pts)), k):
            for targets in permutations(range(m), k):
                cost = 0.0
                matched_b = set(targets)
                for i, j in zip(chosen, targets):
                    cost = max(cost, linf(a_pts[i], b_pts[j]))
                for i in range(len(a_pts)):
                    if i not in chosen:
                        cost = max(cost, diag(a_pts[i]))
                for j in range(m):
                    if j not in matched_b:
                        cost = max(cost, diag(b_pts[j]))
                best = min(best, cost)
    return best if (a_pts or b_pts) else 0.0


# -- towers ------------------------------------------------------------------


def naive_assemble_core_tower(cores, retractions, grades, cap):
    """The ops of the core tower, by expanding every core (a list of
    maximal simplices) in full, rewriting the whole contracted complex after
    every snapshot and comparing it cell by cell with the next core.  A
    retraction is a list indexed by point, read here as a dict.  Ids sent to
    a vertex that is not live map isomorphically onto it, so the least of
    them becomes that vertex's id, with no op, and the rest contract into
    it."""

    def expand(c):
        projected = sum(2 ** len(s) - 1 for s in c)
        if projected > cap:
            raise ExpansionCapError(projected, cap)
        return expand_by_powerset(c)

    def vertex_ids(c):
        return sorted(set(chain.from_iterable(c)))

    retractions = [dict(enumerate(r)) for r in retractions]

    def check_fixed(j):
        if any(retractions[j].get(q) != q for q in vertex_ids(cores[j])):
            raise CollapseConsistencyError(f"snapshot {j}: a core vertex is moved")

    grades = [float(g) for g in grades]
    next_fresh = 1 + max(max(vertex_ids(c)) for c in cores)
    check_fixed(0)
    first_cells = expand(cores[0])
    ops = [Include(s, grades[0]) for s in first_cells]
    present = set(first_cells)
    ident = {p: p for p in vertex_ids(cores[0])}
    used = set(ident)

    for j in range(1, len(cores)):
        g, r = grades[j], retractions[j]
        new_ident = {}
        for q in vertex_ids(cores[j]):
            if q in ident:
                new_ident[q] = ident[q]
            elif q in used:
                new_ident[q] = next_fresh
                next_fresh += 1
            else:
                new_ident[q] = q
        used.update(new_ident.values())

        check_fixed(j)
        mapping = {}
        for p, x in ident.items():
            if r.get(p) not in new_ident:
                raise CollapseConsistencyError(f"snapshot {j}: no core image of point {p}")
            mapping[x] = new_ident[r[p]]

        # a target outside the complex is renamed, not contracted into: the
        # least of the ids sent to it takes its place, and the others follow
        live = set(ident.values())
        renamed = {}
        for u, w in mapping.items():
            if w not in live:
                renamed[w] = min(renamed.get(w, u), u)
        image = {u: renamed.get(w, w) for u, w in mapping.items()}
        for u in sorted(mapping):
            if image[u] != u:
                ops.append(Contract(u, image[u], g))
        present = {tuple(sorted({image[x] for x in s})) for s in present}
        new_ident = {q: renamed.get(x, x) for q, x in new_ident.items()}

        target = [tuple(sorted(new_ident[x] for x in s)) for s in expand(cores[j])]
        if not present <= set(target):
            raise CollapseConsistencyError(f"snapshot {j}: contracted cell not in the next core")
        for t in sorted(target, key=lambda s: (len(s), s)):
            if t not in present:
                ops.append(Include(t, g))
                present.add(t)
        ident = new_ident

    return tuple(ops)


def naive_validate_tower(tower):
    """Replay the ops, rewriting the whole complex on every Contract, and
    raise :class:`TowerOpError` at the first op that breaks the tower's
    invariants: a grade decreases, an Include of a present cell, or a
    Contract of a vertex into itself or of one that is not live."""
    present: set = set()
    live: set[int] = set()
    prev_grade: float | None = None
    for i, op in enumerate(tower):
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


def naive_tower_to_filtration(tower):
    """The filtration with the persistence of *tower*, by walking every face
    of every Include and rebuilding the whole complex on every Contract.

    An Include adds its missing faces, its vertices rewritten through the
    aliases of earlier Contracts.  Contract(u, v) adds the cone with apex
    ``v`` over the closed star of ``u`` in the current complex, then
    aliases ``u`` to ``v``; one whose ends resolve to one vertex does
    nothing.  A decreasing grade, or a Contract of an id no Include named,
    raises :class:`TowerOpError`."""
    alias: dict[int, int] = {}
    known: set[int] = set()

    def resolve(x: int) -> int:
        while x in alias:
            x = alias[x]
        return x

    cells: list = []
    present: set = set()
    current: set = set()
    prev_grade: float | None = None

    for i, op in enumerate(tower):
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
            closed_star: set = set()
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

    return tuple(cells)


def naive_flag_tower_filtration(tower):
    """The filtration of a flag tower, by replaying its ops on a plain graph
    and listing every clique of the final graph.

    Include((v,), g) adds the vertex v and Include((a, b), g) the edge ab at
    g; Contract(u, v, g) adds at g the edge uv and an edge vy for each live
    neighbour y of u, where they are missing, and u dies.  Every vertex and
    edge keeps the grade it first appears at, dead vertices' too.  Each
    clique of the final graph is a cell at the latest grade of its vertices
    and edges, and the cells are listed in (grade, dimension, lexicographic)
    order.  A decreasing grade, an Include that is not a vertex or an edge,
    or is of a present cell or on a vertex that is not live, and a Contract
    of a vertex into itself or of one that is not live raise
    :class:`TowerOpError`."""
    grade = {}  # vertex or edge -> the grade it first appears at
    neighbours: dict[int, set[int]] = {}
    live: set[int] = set()
    prev_grade = None

    def add_edge(a, b, g):
        edge = (min(a, b), max(a, b))
        if edge not in grade:
            grade[edge] = g
            neighbours[a].add(b)
            neighbours[b].add(a)

    for i, op in enumerate(tower):
        if prev_grade is not None and op.grade < prev_grade:
            raise TowerOpError(f"op {i}: grade decreases along the tower")
        prev_grade = op.grade
        if isinstance(op, Include):
            s = as_simplex(op.simplex)
            if len(s) > 2 or s in grade:
                raise TowerOpError(f"op {i}: include of {s}, present or not a vertex or edge")
            if len(s) == 1:
                grade[s] = op.grade
                neighbours[s[0]] = set()
                live.add(s[0])
            elif set(s) <= live:
                add_edge(*s, op.grade)
            else:
                raise TowerOpError(f"op {i}: include of {s} on a vertex that is not live")
        elif isinstance(op, Contract):
            u, v = op.source, op.target
            if u == v or u not in live or v not in live:
                raise TowerOpError(f"op {i}: contract ({u} -> {v}) of a non-live vertex")
            add_edge(u, v, op.grade)
            for y in sorted(neighbours[u] & live - {v}):
                add_edge(v, y, op.grade)
            live.discard(u)
        else:  # pragma: no cover - type misuse
            raise TowerOpError(f"op {i}: unknown op {op!r}")

    # every clique, grown by one larger common neighbour at a time
    vertices = sorted(v for (v, *rest) in grade if not rest)
    level = [((v,), grade[(v,)], {y for y in neighbours[v] if y > v}) for v in vertices]
    cells = []
    while level:
        cells.extend((c, g) for c, g, _ in level)
        level = [
            (
                c + (w,),
                max([g, grade[(w,)]] + [grade[(x, w)] for x in c]),
                {y for y in above if y > w and y in neighbours[w]},
            )
            for c, g, above in level
            for w in sorted(above)
        ]
    return tuple(sorted(cells, key=lambda cell: (cell[1], len(cell[0]), cell[0])))
