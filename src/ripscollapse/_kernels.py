"""The two hot numeric kernels: strong collapse and GF(2) block reduction.

Each kernel is one loop.  The collapse runs a single domination phase for
rows and for columns, on the incidence matrix or its transpose, alternating
sides.  The block reduction sees only the columns the caller packed, which
excludes those that clearing has already shown to vanish.

Each kernel is written once as a plain Python/NumPy function.  It is
compiled with numba's ``@njit`` only when numba is importable (the optional
``fast`` extra: ``pip install ripscollapse[fast]``) and the environment
variable ``RIPSCOLLAPSE_DISABLE_NUMBA`` is unset at import; otherwise the
uncompiled fallback runs.  Results are identical either way, only speed
differs.  ``benchmarks/bench_kernels.py`` compares the two paths.

Kernels operate on positional indices (0..n-1), not on public ids; the
wrappers in :mod:`ripscollapse.collapse` and :mod:`ripscollapse.persistence`
translate back and forth.
"""

from __future__ import annotations

import os

import numpy as np

ENV_FLAG = "RIPSCOLLAPSE_DISABLE_NUMBA"

# Single-bit masks for the packed GF(2) words; indexing this table avoids
# mixed-type shift pitfalls between the compiled and interpreted paths.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_U0 = np.uint64(0)


def _flag_disabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


def _collapse_py(row_ptr, row_entries, col_ptr, col_entries):
    """Queue-driven strong-collapse engine on a static CSR incidence matrix.

    ``row_ptr``/``row_entries`` give, per row (vertex), the sorted column
    positions it belongs to; ``col_ptr``/``col_entries`` the transpose.
    Membership arrays never change; deletions only flip aliveness masks and
    decrement live-entry counters.

    Rows (``side`` 0) and columns (``side`` 1) run the same phase on their
    own CSR half: an entry ``x`` is removed when some live ``y`` of the same
    side satisfies ``live(x) <= live(y)`` as sets, with ``y < x`` required
    when the two sets are equal (so the earlier id survives).  Candidates for
    ``y`` are read off the first live entry of ``x`` on the other side, which
    must contain every possible dominator.  A phase empties its own FIFO
    queue and only appends to the other side's, so the phases alternate,
    rows first, until the next one has nothing queued.

    Returns ``(alive_rows, alive_cols, ev_kind, ev_removed, ev_by, n_events,
    counters)`` where the ``ev_*`` arrays have length ``n_events``,
    ``ev_kind`` is the side of each removal, in execution order, and
    ``counters`` holds ``[phases_total, row_phases, col_phases,
    row_candidate_tests, col_candidate_tests]``.
    """
    n_rows = row_ptr.shape[0] - 1
    n_cols = col_ptr.shape[0] - 1
    # per side: CSR half, aliveness, and live-entry counts (used both for
    # O(1) "cannot contain" pruning and for the equal-set tie-break)
    ptr = (row_ptr, col_ptr)
    ent = (row_entries, col_entries)
    alive = (np.ones(n_rows, np.bool_), np.ones(n_cols, np.bool_))
    size = (row_ptr[1:] - row_ptr[:-1], col_ptr[1:] - col_ptr[:-1])
    # per side: the candidates of its next phase in FIFO order, with
    # membership flags for de-duplication; every row starts queued
    queue = (np.arange(n_rows), np.empty(n_cols, np.int64))
    queued = (np.ones(n_rows, np.bool_), np.zeros(n_cols, np.bool_))
    n_queued = n_rows

    ev_kind = np.empty(n_rows + n_cols, np.int8)
    ev_removed = np.empty(n_rows + n_cols, np.int64)
    ev_by = np.empty(n_rows + n_cols, np.int64)
    n_ev = 0

    counters = np.zeros(5, np.int64)

    side = 0
    while n_queued > 0:
        other = 1 - side
        own_ptr, own_ent, own_alive, own_size = ptr[side], ent[side], alive[side], size[side]
        oth_ptr, oth_ent, oth_alive, oth_size = ptr[other], ent[other], alive[other], size[other]
        own_queue, own_queued = queue[side], queued[side]
        oth_queue, oth_queued = queue[other], queued[other]
        counters[0] += 1
        counters[1 + side] += 1
        n_next = 0
        for q in range(n_queued):
            x = own_queue[q]
            own_queued[x] = False
            if not own_alive[x]:
                continue
            first = -1
            for i in range(own_ptr[x], own_ptr[x + 1]):
                if oth_alive[own_ent[i]]:
                    first = own_ent[i]
                    break
            dom = -1
            if first >= 0:
                for j in range(oth_ptr[first], oth_ptr[first + 1]):
                    y = oth_ent[j]
                    if y == x or not own_alive[y]:
                        continue
                    counters[3 + side] += 1
                    if own_size[y] < own_size[x]:
                        continue
                    if own_size[y] == own_size[x] and y > x:
                        continue
                    ok = True
                    p = own_ptr[y]
                    pe = own_ptr[y + 1]
                    for i in range(own_ptr[x], own_ptr[x + 1]):
                        e = own_ent[i]
                        if not oth_alive[e]:
                            continue
                        while p < pe and own_ent[p] < e:
                            p += 1
                        if p >= pe or own_ent[p] != e:
                            ok = False
                            break
                        p += 1
                    if ok:
                        dom = y
                        break
            if dom >= 0:
                own_alive[x] = False
                ev_kind[n_ev] = side
                ev_removed[n_ev] = x
                ev_by[n_ev] = dom
                n_ev += 1
                for i in range(own_ptr[x], own_ptr[x + 1]):
                    e = own_ent[i]
                    if oth_alive[e]:
                        oth_size[e] -= 1
                        if not oth_queued[e]:
                            oth_queue[n_next] = e
                            n_next += 1
                            oth_queued[e] = True
        n_queued = n_next
        side = other

    return (
        alive[0],
        alive[1],
        ev_kind[:n_ev],
        ev_removed[:n_ev],
        ev_by[:n_ev],
        n_ev,
        counters,
    )


def _reduce_block_py(R, pivot_of_row, pair_local):
    """Left-to-right GF(2) column reduction of one packed boundary block.

    ``R`` is a ``(n_cols, n_words)`` uint64 matrix; bit ``r`` of column ``j``
    says face ``r`` occurs in the boundary of cell ``j``.
    ``pivot_of_row`` (init -1) maps a face index to the column that owns it
    as lowest bit; ``pair_local[j]`` receives the final lowest face index of
    column ``j`` or -1 when the column vanishes.  ``R`` is modified in place.
    """
    n_cols, n_words = R.shape
    for j in range(n_cols):
        low = -1
        w = n_words - 1
        while w >= 0:
            x = R[j, w]
            if x != _U0:
                b = 63
                while (x & _BIT[b]) == _U0:
                    b -= 1
                low = (w << 6) + b
                break
            w -= 1
        while low >= 0:
            k = pivot_of_row[low]
            if k < 0:
                break
            wl = (low >> 6) + 1
            R[j, :wl] ^= R[k, :wl]
            low = -1
            w = wl - 1
            while w >= 0:
                x = R[j, w]
                if x != _U0:
                    b = 63
                    while (x & _BIT[b]) == _U0:
                        b -= 1
                    low = (w << 6) + b
                    break
                w -= 1
        if low >= 0:
            pivot_of_row[low] = j
        pair_local[j] = low


#: Uncompiled reference implementations, exposed for the benchmark and for
#: the compiled-vs-fallback equivalence tests.
PY_IMPLS = {
    "collapse": _collapse_py,
    "reduce_block": _reduce_block_py,
}

USING_NUMBA = False
if not _flag_disabled():
    try:
        import numba
    except ImportError:  # numba is the optional ``fast`` extra
        numba = None
    else:
        USING_NUMBA = True

if USING_NUMBA:
    _jit = numba.njit(cache=True, nogil=True)
    collapse_kernel = _jit(_collapse_py)
    reduce_block = _jit(_reduce_block_py)
else:
    collapse_kernel = _collapse_py
    reduce_block = _reduce_block_py
