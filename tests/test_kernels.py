import os
import random
import subprocess
import sys

import numpy as np

from ripscollapse import _kernels
from ripscollapse._kernels import ENV_FLAG, PY_IMPLS, collapse_kernel, reduce_block
from ripscollapse.collapse import (
    _csr_positions,
    find_dominating_column,
    find_dominating_row,
    replay_trace,
)
from ripscollapse.complexes import ComplexMatrix

from oracles import naive_column_reduction, random_maximal_simplices


def _check_collapse_by_replay(matrix, result):
    """The kernel's events replay, each one checked, to the core its masks
    describe, and no survivor of that core is dominated any more."""
    alive_r, alive_c, ev_kind, ev_removed, ev_by, n_ev, _ = result
    ids = (matrix.vertex_ids, matrix.column_ids)
    events = [
        ("row" if k == 0 else "col", ids[k][r], ids[k][b])
        for k, r, b in zip(ev_kind, ev_removed, ev_by)
    ]
    assert len(events) == n_ev
    replayed = replay_trace(matrix, events, check=True)
    survivors = {ids[0][i] for i in np.flatnonzero(alive_r)}
    claimed = ComplexMatrix.from_columns(
        {
            ids[1][i]: [v for v in matrix.column(ids[1][i]) if v in survivors]
            for i in np.flatnonzero(alive_c)
        }
    )
    assert replayed == claimed
    assert set(replayed.vertex_ids) == survivors
    for v in replayed.vertex_ids:
        assert find_dominating_row(replayed, v) is None
    for c in replayed.column_ids:
        assert find_dominating_column(replayed, c) is None


def test_collapse_kernel_paths_agree():
    rng = random.Random(31337)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 12), rng.randint(1, 12), 5)
        matrix = ComplexMatrix.from_simplex_list(gen)
        arrays = _csr_positions(matrix)[2:]
        got = collapse_kernel(*arrays)
        want = PY_IMPLS["collapse"](*(a.copy() for a in arrays))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(g), np.asarray(w))
        _check_collapse_by_replay(matrix, got)


def _rows_of(words, n_rows):
    """Set of the rows whose bits are set in one packed column."""
    return {r for r in range(n_rows) if int(words[r >> 6]) >> (r & 63) & 1}


def test_reduce_block_paths_agree():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_cols = int(rng.integers(1, 40))
        n_rows = int(rng.integers(1, 100))
        n_words = (n_rows + 63) // 64
        R = rng.integers(0, 2**63, size=(n_cols, n_words), dtype=np.uint64)
        if n_rows % 64:
            R[:, -1] &= (np.uint64(1) << np.uint64(n_rows % 64)) - np.uint64(1)
        skip = rng.integers(0, 2, size=n_cols).astype(np.bool_)
        args_a = (R.copy(), skip.copy(), np.full(n_rows, -1, np.int64), np.full(n_cols, -1, np.int64))
        args_b = (R.copy(), skip.copy(), np.full(n_rows, -1, np.int64), np.full(n_cols, -1, np.int64))
        reduce_block(*args_a)
        PY_IMPLS["reduce_block"](*args_b)
        for a, b in zip(args_a, args_b):
            assert np.array_equal(a, b)

        # against the set-based reduction, skipped columns taken as zero
        reduced = naive_column_reduction(
            [set() if skip[j] else _rows_of(R[j], n_rows) for j in range(n_cols)]
        )
        lows = [max(col, default=-1) for col in reduced]
        got_R, _, pivot_of_row, pair_local = args_a
        assert pair_local.tolist() == lows
        assert pivot_of_row.tolist() == [
            lows.index(r) if r in lows else -1 for r in range(n_rows)
        ]
        for j in np.flatnonzero(~skip):
            assert _rows_of(got_R[j], n_rows) == reduced[j]


def test_env_flag_selects_fallback():
    code = (
        "from ripscollapse import _kernels\n"
        "assert not _kernels.USING_NUMBA\n"
        "assert _kernels.collapse_kernel is _kernels.PY_IMPLS['collapse']\n"
        "assert _kernels.reduce_block is _kernels.PY_IMPLS['reduce_block']\n"
    )
    env = dict(os.environ, **{ENV_FLAG: "1"})
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# Each selected kernel and the PY_IMPLS function that is its fallback.
_SELECTED = (
    ("collapse_kernel", "collapse"),
    ("reduce_block", "reduce_block"),
)


def test_numba_enabled_by_default_here():
    # Compiled kernels are used iff numba (the optional ``fast`` extra)
    # imports and the fallback flag is unset.
    try:
        import numba  # noqa: F401
    except ImportError:
        numba_importable = False
    else:
        numba_importable = True
    expect_compiled = numba_importable and not _kernels._flag_disabled()
    assert _kernels.USING_NUMBA == expect_compiled
    for attr, impl in _SELECTED:
        is_fallback = getattr(_kernels, attr) is PY_IMPLS[impl]
        assert is_fallback != expect_compiled, attr

    # Absent numba, the import still succeeds and selects every fallback,
    # checked even where numba is installed.
    code = (
        "import sys\n"
        "sys.modules['numba'] = None\n"
        "from ripscollapse import _kernels\n"
        "assert not _kernels.USING_NUMBA\n"
        f"for attr, impl in {_SELECTED!r}:\n"
        "    assert getattr(_kernels, attr) is _kernels.PY_IMPLS[impl], attr\n"
    )
    env = {k: v for k, v in os.environ.items() if k != ENV_FLAG}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
