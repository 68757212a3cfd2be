import hashlib
import math
import random

import numpy as np

from ripscollapse import _kernels
from ripscollapse._kernels import reduce_block
from ripscollapse.collapse import core, trace_to_text
from ripscollapse.complexes import maximal_columns
from ripscollapse.rips import pairwise_distances

from oracles import (
    find_dominating_column,
    find_dominating_row,
    naive_column_reduction,
    random_maximal_simplices,
    replay_trace,
    rips_snapshot,
    vertices_of,
)


def test_collapse_kernel_paths_agree():
    """The collapse's events replay, each one checked, to the core it
    returns, and no survivor of that core is dominated any more."""
    rng = random.Random(31337)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 12), rng.randint(1, 12), 5)
        columns = maximal_columns(gen)
        result = core(columns)
        replayed = replay_trace(columns, result.trace.events, check=True)
        assert replayed == result.columns
        for v in vertices_of(replayed):
            assert find_dominating_row(replayed, v) is None
        for c in replayed:
            assert find_dominating_column(replayed, c) is None


def _collapse_fingerprint(columns):
    """(trace digest, the five counters, alive rows, alive columns) of one collapse."""
    result = core(columns)
    trace = result.trace
    rows, cols = set(vertices_of(result.columns)), set(result.columns)
    return (
        hashlib.sha256(trace_to_text(trace).encode()).hexdigest()[:16],
        (
            trace.row_phases + trace.col_phases,
            trace.row_phases,
            trace.col_phases,
            trace.row_candidate_tests,
            trace.col_candidate_tests,
        ),
        "".join("01"[v in rows] for v in vertices_of(columns)),
        "".join("01"[c in cols] for c in sorted(columns)),
    )


# Recorded from the CSR collapse kernel that the bitset core replaced; any
# change in event order, tie-break or work counts fails here.
_PINNED_RANDOM = (
    ("ab7da07b25da1521", (3, 2, 1, 11, 2), "1000000", "10"),
    ("c3b41e547c227ca9", (3, 2, 1, 43, 26), "1011010001110", "1111111110"),
    ("357ccf73029dbc0b", (2, 1, 1, 35, 8), "1011101101101", "11111111"),
    ("0ca92af59cedb6e0", (2, 1, 1, 6, 0), "1000", "1"),
    ("b7b67cfa44cb2f44", (3, 2, 1, 30, 6), "10110010000001", "11011"),
    ("1ee494f7fea8cb5c", (2, 1, 1, 4, 0), "100", "1"),
    ("aa36fee8db9fd85b", (4, 2, 2, 28, 10), "000100000010010", "0110100"),
    ("516486d8b92aad85", (4, 2, 2, 14, 2), "0000010000", "100"),
    ("b72857cd642cb03b", (3, 2, 1, 10, 4), "0100000", "100"),
    ("6ed74c64cd9d399c", (4, 2, 2, 34, 11), "1010010000100", "11110"),
    ("07c7168b61d15e65", (2, 1, 1, 4, 0), "100", "1"),
    ("947f61073db0a047", (2, 1, 1, 56, 9), "111111111110", "11111111111"),
    ("5e99e87c9d3d00b6", (3, 2, 1, 16, 3), "000010000000", "100"),
    ("12409af7016a7661", (3, 2, 1, 16, 3), "0000101100", "1101"),
    ("783e413921cad7f2", (3, 2, 1, 26, 13), "111111000010", "1111011"),
    ("8fdbb03410ce79fe", (3, 2, 1, 38, 19), "10101101101", "111111011"),
    ("c8244428e272b05b", (5, 3, 2, 63, 25), "1110111010011001", "1101011111111"),
    ("b37874b2ba481f64", (2, 1, 1, 10, 0), "100000", "1"),
    ("f08bae293fd00c7b", (3, 2, 1, 10, 6), "0000100", "1000"),
    ("704051713f8e92e9", (4, 2, 2, 31, 8), "10001000001", "101001"),
    ("e3b0c44298fc1c14", (1, 1, 0, 0, 0), "111", "111"),
    ("4857b2953eb580db", (2, 1, 1, 8, 0), "10000", "1"),
    ("9bd0976d332620c7", (4, 2, 2, 22, 8), "00001000110", "01110"),
    ("4857b2953eb580db", (2, 1, 1, 8, 0), "10000", "1"),
    ("0dac7dc66e382881", (4, 2, 2, 55, 42), "11100011101", "1010111110"),
    ("4857b2953eb580db", (2, 1, 1, 8, 0), "10000", "1"),
    ("e1c69cdaa8f88324", (3, 2, 1, 30, 12), "1100010100", "101011"),
    ("d1cc65f9c93c1c9b", (3, 2, 1, 32, 14), "0111000100111", "11011111"),
    ("07c7168b61d15e65", (2, 1, 1, 4, 0), "100", "1"),
    ("79dc53b88f787a07", (3, 2, 1, 16, 4), "0000101010", "1110"),
)


def _noisy_circle(seed, n):
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = 1.0 + rng.uniform(-0.05, 0.05)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return pts


def test_collapse_kernel_output_is_pinned():
    rng = random.Random(2024)
    for want in _PINNED_RANDOM:
        gen = random_maximal_simplices(rng, rng.randint(2, 16), rng.randint(2, 16), 6)
        assert _collapse_fingerprint(maximal_columns(gen)) == want
    # the benchmark's circle-snapshots cloud (n=300, seed 3) at t=0.3: 38 phases
    snapshot = rips_snapshot(pairwise_distances(_noisy_circle(3, 300)), 0.3)
    digest, counters, rows, cols = _collapse_fingerprint(snapshot)
    assert (len(rows), len(cols)) == (300, 159)
    assert (digest, counters) == ("5ffc09c66ed6e5c5", (38, 19, 19, 2752, 1310))
    assert (rows.count("1"), cols.count("1")) == (22, 22)
    assert hashlib.sha256(f"{rows}|{cols}".encode()).hexdigest()[:16] == "673c90e9e3a710b9"


def _rows_of(column):
    """Set of the rows of one reduced column: a face tuple or an int bitset."""
    if isinstance(column, tuple):
        return set(column)
    return {r for r in range(column.bit_length()) if column >> r & 1}


def _face_blocks(rng):
    """Blocks of face-tuple columns: random ones with unsorted faces and
    empty columns, and ones built to collide in long chains and vanish."""
    for _ in range(40):
        n_rows = int(rng.integers(1, 100))
        block = []
        for _ in range(int(rng.integers(1, 40))):
            k = int(rng.integers(0, min(n_rows, 6) + 1))
            block.append(tuple(int(f) for f in rng.choice(n_rows, size=k, replace=False)))
        yield block
    for _ in range(20):
        # every column shares the low 90 with the first, so each one adds
        # the chain of owners below it; repeats vanish
        base = [tuple(int(f) for f in rng.choice(90, size=3, replace=False)) + (90,)]
        for _ in range(int(rng.integers(5, 30))):
            col = tuple(int(f) for f in rng.choice(90, size=int(rng.integers(1, 6)), replace=False))
            base.append(col + (90,) if rng.random() < 0.7 else base[int(rng.integers(len(base)))])
        yield [tuple(rng.permutation(c).tolist()) for c in base]


def test_reduce_block_paths_agree():
    """The reduction over face tuples gives the lows and reduced columns of
    the set-based textbook reduction, and a column whose low was free comes
    back as the very tuple it was given."""
    rng = np.random.default_rng(17)
    collided = vanished = 0
    for block in _face_blocks(rng):
        given = list(block)
        reduced = naive_column_reduction(given)
        lows = reduce_block(block)
        assert lows == [max(col, default=-1) for col in reduced]
        assert [_rows_of(c) for c in block] == reduced
        owned = set()
        for col, back, low in zip(given, block, lows):
            if max(col, default=-1) not in owned:
                assert back is col
            else:
                collided += 1
                vanished += low < 0
            if low >= 0:
                owned.add(low)
    assert collided > 100 and vanished > 10
    assert _kernels.USING_NUMBA is False
