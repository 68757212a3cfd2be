"""The package's one numeric kernel: GF(2) block reduction.

:func:`reduce_block` runs on the lows of a block's columns, which the caller
takes in one NumPy pass as the rows' largest faces, and packs a column into
a Python-int bitset only when its low collides with a column reduced before
it.  It sees only the columns the caller built, which excludes those that
clearing has already shown to vanish, and it refuses a block once the
columns it has packed pass the byte limit the caller gives it.  Strong
collapse needs no kernel: both :func:`ripscollapse.collapse.core` and
:func:`ripscollapse.rips.flag_core` work on Python-int bitsets too.

The kernel works on positional indices (0..n-1), not on public ids;
:mod:`ripscollapse.persistence` translates back and forth.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ReductionMemoryError

# perfbench/run.py reports this flag; every kernel here is plain Python.
USING_NUMBA = False


def _pack(faces: Sequence[int]) -> int:
    """The int bitset with bit ``f`` set for each (distinct) face ``f``."""
    c = 0
    for f in faces:
        c |= 1 << f
    return c


def reduce_block(faces: np.ndarray, lows: list[int], limit: int) -> dict[int, int]:
    """Left-to-right GF(2) column reduction of one boundary block, in place.

    Row ``faces[j]`` lists the faces of column ``j`` as distinct row
    indices, in any order, and ``lows[j]`` is the largest of them, its low.
    Each column adds the reduced column that owns its low until the column
    vanishes or its low is unowned; ``lows[j]`` then becomes its final low,
    or -1 when it vanishes.  A column whose low is unowned from the start is
    already reduced and its row is never read; only a column that collides,
    and each owner it adds (once), is packed into an int bitset with bit
    ``r`` set for face ``r``.  Returns those bitsets of the columns that
    own a low, by column; every other column that owns one is still its row.

    Raises :class:`ReductionMemoryError` once the bitsets packed, each
    counted as the ``low // 8 + 1`` bytes that hold bits 0 to its low when
    packed, pass *limit* bytes.  An added column sets no bit above the low,
    so no packed column outgrows its count.
    """
    owner: dict[int, int] = {}  # low -> the column that owns it
    reduced: dict[int, int] = {}  # column -> its bitset, once packed
    get = owner.get
    packed = 0  # bytes of the bitsets packed so far
    for j, low in enumerate(lows):
        o = get(low)
        if o is None:
            owner[low] = j
            continue
        c = _pack(faces[j].tolist())
        packed += low // 8 + 1
        while o is not None:
            r = reduced.get(o)
            if r is None:
                r = reduced[o] = _pack(faces[o].tolist())
                packed += low // 8 + 1
            c ^= r
            low = c.bit_length() - 1
            o = get(low)
        if packed > limit:
            raise ReductionMemoryError(packed, limit, "bytes")
        if low >= 0:
            owner[low] = j
            reduced[j] = c
        lows[j] = low
    return reduced
