"""The package's one numeric kernel: GF(2) block reduction.

:func:`reduce_block` is one loop over Python-int bitset columns.  It sees
only the columns the caller built, which excludes those that clearing has
already shown to vanish.  Strong collapse needs no kernel: both
:func:`ripscollapse.collapse.core` and :func:`ripscollapse.rips.flag_core`
work on Python-int bitsets too.

The kernel works on positional indices (0..n-1), not on public ids;
:mod:`ripscollapse.persistence` translates back and forth.
"""

from __future__ import annotations

# perfbench/run.py reports this flag; every kernel here is plain Python.
USING_NUMBA = False


def reduce_block(columns: list[int]) -> list[int]:
    """Left-to-right GF(2) column reduction of one boundary block, in place.

    Bit ``r`` of ``columns[j]`` says face ``r`` occurs in the boundary of
    cell ``j``.  Each column adds the reduced column that owns its lowest
    (highest-index) face until the column vanishes or its low is unowned.
    Returns each column's final low, or -1 when the column vanishes.
    """
    owner: dict[int, int] = {}  # low -> the reduced column that has it
    get = owner.get
    lows = []
    for j, c in enumerate(columns):
        low = c.bit_length() - 1
        while (r := get(low)) is not None:
            c ^= r
            low = c.bit_length() - 1
        if low >= 0:
            owner[low] = c
        columns[j] = c
        lows.append(low)
    return lows
