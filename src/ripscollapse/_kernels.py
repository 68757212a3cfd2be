"""The two hot numeric kernels: strong collapse and GF(2) block reduction.

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

    A row ``v`` is removed when some live row ``w`` satisfies
    ``live_row(v) <= live_row(w)`` as sets, with ``w < v`` required when the
    two sets are equal (so the earlier id survives); columns symmetrically.
    Candidates for ``w`` are read off the first live column of ``v``, which
    must contain every possible dominator.

    Returns ``(alive_rows, alive_cols, ev_kind, ev_removed, ev_by, n_events,
    counters)`` where the ``ev_*`` arrays have length ``n_events``,
    ``ev_kind`` is 0 for row removals and 1 for column removals, in execution
    order, and ``counters`` holds ``[phases_total, row_phases, col_phases,
    row_candidate_tests, col_candidate_tests]``.
    """
    n_rows = row_ptr.shape[0] - 1
    n_cols = col_ptr.shape[0] - 1

    alive_r = np.ones(n_rows, np.bool_)
    alive_c = np.ones(n_cols, np.bool_)

    # live-entry counts, used both for O(1) "cannot contain" pruning and for
    # detecting the equal-set case of the domination predicate
    r_len = np.empty(n_rows, np.int64)
    for v in range(n_rows):
        r_len[v] = row_ptr[v + 1] - row_ptr[v]
    c_len = np.empty(n_cols, np.int64)
    for c in range(n_cols):
        c_len[c] = col_ptr[c + 1] - col_ptr[c]

    # FIFO ring buffers with membership flags for de-duplication
    cap_r = n_rows + 1
    cap_c = n_cols + 1
    rq = np.empty(cap_r, np.int64)
    rq_head = 0
    rq_tail = 0
    in_rq = np.zeros(n_rows, np.bool_)
    cq = np.empty(cap_c, np.int64)
    cq_head = 0
    cq_tail = 0
    in_cq = np.zeros(n_cols, np.bool_)

    ev_kind = np.empty(n_rows + n_cols, np.int8)
    ev_removed = np.empty(n_rows + n_cols, np.int64)
    ev_by = np.empty(n_rows + n_cols, np.int64)
    n_ev = 0

    counters = np.zeros(5, np.int64)

    for v in range(n_rows):
        rq[rq_tail] = v
        rq_tail = (rq_tail + 1) % cap_r
        in_rq[v] = True

    while True:
        if rq_head == rq_tail:
            break
        counters[0] += 1
        counters[1] += 1
        while rq_head != rq_tail:
            v = rq[rq_head]
            rq_head = (rq_head + 1) % cap_r
            in_rq[v] = False
            if not alive_r[v]:
                continue
            # candidates live in the first live column of v
            first = -1
            for i in range(row_ptr[v], row_ptr[v + 1]):
                c = row_entries[i]
                if alive_c[c]:
                    first = c
                    break
            dom = -1
            if first >= 0:
                for j in range(col_ptr[first], col_ptr[first + 1]):
                    w = col_entries[j]
                    if w == v or not alive_r[w]:
                        continue
                    counters[3] += 1
                    if r_len[w] < r_len[v]:
                        continue
                    if r_len[w] == r_len[v] and w > v:
                        continue
                    ok = True
                    p = row_ptr[w]
                    pe = row_ptr[w + 1]
                    for i in range(row_ptr[v], row_ptr[v + 1]):
                        c = row_entries[i]
                        if not alive_c[c]:
                            continue
                        while p < pe and row_entries[p] < c:
                            p += 1
                        if p >= pe or row_entries[p] != c:
                            ok = False
                            break
                        p += 1
                    if ok:
                        dom = w
                        break
            if dom >= 0:
                alive_r[v] = False
                ev_kind[n_ev] = 0
                ev_removed[n_ev] = v
                ev_by[n_ev] = dom
                n_ev += 1
                for i in range(row_ptr[v], row_ptr[v + 1]):
                    c = row_entries[i]
                    if alive_c[c]:
                        c_len[c] -= 1
                        if not in_cq[c]:
                            cq[cq_tail] = c
                            cq_tail = (cq_tail + 1) % cap_c
                            in_cq[c] = True
        if cq_head == cq_tail:
            break
        counters[0] += 1
        counters[2] += 1
        while cq_head != cq_tail:
            c = cq[cq_head]
            cq_head = (cq_head + 1) % cap_c
            in_cq[c] = False
            if not alive_c[c]:
                continue
            first = -1
            for i in range(col_ptr[c], col_ptr[c + 1]):
                v = col_entries[i]
                if alive_r[v]:
                    first = v
                    break
            dom = -1
            if first >= 0:
                for j in range(row_ptr[first], row_ptr[first + 1]):
                    d = row_entries[j]
                    if d == c or not alive_c[d]:
                        continue
                    counters[4] += 1
                    if c_len[d] < c_len[c]:
                        continue
                    if c_len[d] == c_len[c] and d > c:
                        continue
                    ok = True
                    p = col_ptr[d]
                    pe = col_ptr[d + 1]
                    for i in range(col_ptr[c], col_ptr[c + 1]):
                        v = col_entries[i]
                        if not alive_r[v]:
                            continue
                        while p < pe and col_entries[p] < v:
                            p += 1
                        if p >= pe or col_entries[p] != v:
                            ok = False
                            break
                        p += 1
                    if ok:
                        dom = d
                        break
            if dom >= 0:
                alive_c[c] = False
                ev_kind[n_ev] = 1
                ev_removed[n_ev] = c
                ev_by[n_ev] = dom
                n_ev += 1
                for i in range(col_ptr[c], col_ptr[c + 1]):
                    v = col_entries[i]
                    if alive_r[v]:
                        r_len[v] -= 1
                        if not in_rq[v]:
                            rq[rq_tail] = v
                            rq_tail = (rq_tail + 1) % cap_r
                            in_rq[v] = True
        if rq_head == rq_tail:
            break

    return (
        alive_r,
        alive_c,
        ev_kind[:n_ev],
        ev_removed[:n_ev],
        ev_by[:n_ev],
        n_ev,
        counters,
    )


def _reduce_block_py(R, skip, pivot_of_row, pair_local):
    """Left-to-right GF(2) column reduction of one packed boundary block.

    ``R`` is a ``(n_cols, n_words)`` uint64 matrix; bit ``r`` of column ``j``
    says face ``r`` occurs in the boundary of cell ``j``.  Columns flagged in
    ``skip`` are known to reduce to zero and are left untouched.
    ``pivot_of_row`` (init -1) maps a face index to the column that owns it
    as lowest bit; ``pair_local[j]`` receives the final lowest face index of
    column ``j`` or -1 when the column vanishes.  ``R`` is modified in place.
    """
    n_cols, n_words = R.shape
    for j in range(n_cols):
        if skip[j]:
            pair_local[j] = -1
            continue
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
