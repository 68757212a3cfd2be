"""The package's one numeric kernel: GF(2) block reduction.

:func:`reduce_block` reads each column's low straight off the boundary
index's face tuples, and packs a column into a Python-int bitset only when
its low collides with a column reduced before it.  It sees only the columns
the caller built, which excludes those that clearing has already shown to
vanish.  Strong collapse needs no kernel: both
:func:`ripscollapse.collapse.core` and :func:`ripscollapse.rips.flag_core`
work on Python-int bitsets too.

The kernel works on positional indices (0..n-1), not on public ids;
:mod:`ripscollapse.persistence` translates back and forth.
"""

from __future__ import annotations

# perfbench/run.py reports this flag; every kernel here is plain Python.
USING_NUMBA = False


def _pack(faces: tuple[int, ...]) -> int:
    """The int bitset with bit ``f`` set for each (distinct) face ``f``."""
    c = 0
    for f in faces:
        c |= 1 << f
    return c


def reduce_block(columns: list[tuple[int, ...] | int]) -> list[int]:
    """Left-to-right GF(2) column reduction of one boundary block, in place.

    ``columns[j]`` lists the faces of cell ``j`` as distinct row indices, in
    any order.  A column's low is its largest face.  Each column adds the
    reduced column that owns its low until the column vanishes or its low is
    unowned.  A column whose low is unowned from the start is already
    reduced and stays the tuple it was given; only a column that collides,
    and each owner it adds (once), is packed into an int bitset with bit
    ``r`` set for face ``r``, which replaces it.  Returns each column's
    final low, or -1 when the column vanishes.
    """
    owner: dict[int, tuple[int, ...] | int] = {}  # low -> the reduced column that has it
    get = owner.get
    lows = []
    for j, faces in enumerate(columns):
        low = max(faces) if faces else -1
        r = get(low)
        if r is None:
            if low >= 0:
                owner[low] = faces
        else:
            c = _pack(faces)
            while r is not None:
                if r.__class__ is tuple:
                    r = owner[low] = _pack(r)
                c ^= r
                low = c.bit_length() - 1
                r = get(low)
            if low >= 0:
                owner[low] = c
            columns[j] = c
        lows.append(low)
    return lows
