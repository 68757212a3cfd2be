"""The hot numeric kernel: GF(2) block reduction.

The block reduction is one loop.  It sees only the columns the caller
packed, which excludes those that clearing has already shown to vanish.
Strong collapse needs no kernel: both :func:`ripscollapse.collapse.core`
and :func:`ripscollapse.rips.flag_core` work on Python-int bitsets.

The kernel is written once as a plain Python/NumPy function.  It is
compiled with numba's ``@njit`` only when numba is importable (the optional
``fast`` extra: ``pip install ripscollapse[fast]``) and the environment
variable ``RIPSCOLLAPSE_DISABLE_NUMBA`` is unset at import; otherwise the
uncompiled fallback runs.  Results are identical either way, only speed
differs.  ``benchmarks/bench_kernels.py`` compares the two paths.

The kernel operates on positional indices (0..n-1), not on public ids;
:mod:`ripscollapse.persistence` translates back and forth.
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


#: Uncompiled reference implementation, exposed for the benchmark and for
#: the compiled-vs-fallback equivalence test.
PY_IMPLS = {
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
    reduce_block = numba.njit(cache=True, nogil=True)(_reduce_block_py)
else:
    reduce_block = _reduce_block_py
