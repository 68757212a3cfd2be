"""Benchmark the compiled reduction kernel against its pure-NumPy/Python
fallback, and the stages that need no kernel: the two strong collapses and
the tower.

Run: python3 benchmarks/bench_kernels.py

The collapse section times ``core`` on a Rips snapshot's maximal simplices
and ``flag_core``, the graph collapse the pipeline runs, on the same
snapshot's neighbourhood graph.  The tower section times
``assemble_core_tower`` and ``tower_to_filtration`` separately on the
``flag_core`` cores of the torus-tower workload's cloud and grades, taken
from ``perfbench/workloads.py`` (without the run seed's isometry).

The compiled side needs numba, the optional ``fast`` extra
(``pip install ripscollapse[fast]``).  Without numba, or with
RIPSCOLLAPSE_DISABLE_NUMBA=1 set, only the fallback implementation is timed.
"""
from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from ripscollapse import _kernels
from ripscollapse.collapse import core
from ripscollapse.persistence import BoundaryMatrix, _pack_block
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import (
    SnapshotSchedule,
    flag_core,
    neighborhood_bitsets,
    pairwise_distances,
    rips_snapshot,
)
from ripscollapse.tower import (
    Contract,
    Filtration,
    assemble_core_tower,
    tower_to_filtration,
)

N_WARMUP = 2
N_RUNS = 7


def _time(fn, *args):
    for _ in range(N_WARMUP):
        fn(*args)
    times = []
    for _ in range(N_RUNS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return times


def _print_results(label, times_fast, times_py):
    mean_fast = np.mean(times_fast) * 1000
    mean_py = np.mean(times_py) * 1000
    std_fast = np.std(times_fast) * 1000
    std_py = np.std(times_py) * 1000
    print(f"  compiled: {mean_fast:8.3f} +- {std_fast:.3f} ms")
    print(f"  fallback: {mean_py:8.3f} +- {std_py:.3f} ms")
    if mean_fast > 0:
        print(f"  speedup:  {mean_py / mean_fast:8.2f}x")


def _circle_cloud(n, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = 1.0 + rng.uniform(-0.05, 0.05)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return pts


def _dim1_block(cells):
    """Pack the dimension-1 boundary block with the reduction's own packer."""
    matrix = BoundaryMatrix.from_filtration(Filtration(cells))
    rows_g = [i for i, (s, _) in enumerate(matrix.cells) if len(s) == 1]
    cols_g = [i for i, (s, _) in enumerate(matrix.cells) if len(s) == 2]
    return _pack_block(matrix, cols_g, rows_g, 1), len(rows_g)


def _why_fallback_only() -> str:
    """Why the compiled kernel is not in use (call only when it is not)."""
    if _kernels._flag_disabled():
        return f"disabled by {_kernels.ENV_FLAG}"
    return "numba not installed"


def bench_collapse():
    print("--- strong collapse (400-point noisy circle, t=0.4) ---")
    D = pairwise_distances(_circle_cloud(400, seed=1))
    m = rips_snapshot(D, 0.4)
    adj = neighborhood_bitsets(D, 0.4)
    edges = sum(a.bit_count() for a in adj) // 2
    times_core = _time(core, m)
    print(f"  core:      {np.mean(times_core) * 1000:8.3f} +- {np.std(times_core) * 1000:.3f} ms"
          f" ({len(m.vertex_ids)} vertices x {len(m.column_ids)} maximal)")
    times_graph = _time(flag_core, adj)
    print(f"  flag_core: {np.mean(times_graph) * 1000:8.3f} +- {np.std(times_graph) * 1000:.3f} ms"
          f" ({len(adj)} vertices x {edges} edges)")


def _ms(times):
    return f"{np.mean(times) * 1000:8.3f} +- {np.std(times) * 1000:.3f} ms"


def bench_tower():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    w = workloads.get("torus-tower")
    grades = w.grades()
    print(f"--- tower ({w.n}-point torus, {len(grades)} grades from {w.start} by {w.step}) ---")
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    results = [flag_core(neighborhood_bitsets(D, g)) for g in grades]
    args = ([r.matrix for r in results], [r.retraction for r in results], grades)
    tower = assemble_core_tower(*args)
    contracts = sum(isinstance(op, Contract) for op in tower)
    print(f"  assemble_core_tower: {_ms(_time(assemble_core_tower, *args))}"
          f" ({len(tower) - contracts} includes, {contracts} contracts)")
    cells = len(tower_to_filtration(tower))
    print(f"  tower_to_filtration: {_ms(_time(tower_to_filtration, tower))} ({cells} cells)")


def bench_reduce():
    print("--- boundary reduction, dimension-1 block (3000-point geometric graph) ---")
    rng = np.random.default_rng(2)
    D = pairwise_distances(rng.random((3000, 2)))
    cells = [((i,), 0.0) for i in range(D.shape[0])]
    for i in range(D.shape[0]):
        for j in range(i + 1, D.shape[0]):
            if D[i, j] <= 0.04:
                cells.append(((i, j), 0.0))
    R, n_rows = _dim1_block(cells)
    print(f"  input: {R.shape[0]} columns x {n_rows} rows")

    def run(impl, R0):
        work = R0.copy()
        pivot_of_row = np.full(n_rows, -1, np.int64)
        pair_local = np.empty(work.shape[0], np.int64)
        impl(work, pivot_of_row, pair_local)

    py = _kernels.PY_IMPLS["reduce_block"]
    times_py = _time(run, py, R)
    if _kernels.USING_NUMBA:
        times_fast = _time(run, _kernels.reduce_block, R)
        _print_results("reduce", times_fast, times_py)
    else:
        print(f"  fallback: {np.mean(times_py) * 1000:8.3f} ms ({_why_fallback_only()})")


def bench_pipeline():
    print("--- full pipeline (120-point noisy circle, 41 snapshots) ---")
    D = pairwise_distances(_circle_cloud(120, seed=3))
    sched = SnapshotSchedule(0.1, 0.01, 0.5)

    times = _time(lambda: run_pipeline(D, sched))
    mode = "compiled" if _kernels.USING_NUMBA else "fallback"
    print(f"  {mode}: {np.mean(times) * 1000:8.3f} +- {np.std(times) * 1000:.3f} ms")
    if _kernels.USING_NUMBA:
        print(f"  (set {_kernels.ENV_FLAG}=1 and rerun to time the fallback path)")
    elif _kernels._flag_disabled():
        print(f"  (unset {_kernels.ENV_FLAG} and rerun to time the compiled path)")
    else:
        print("  (numba is not installed; install the `fast` extra,"
              " `pip install ripscollapse[fast]`, to time the compiled path)")


def main() -> None:
    mode = "compiled kernel" if _kernels.USING_NUMBA else "fallback only"
    print(f"kernel path: {mode}\n")
    bench_collapse()
    print()
    bench_tower()
    print()
    bench_reduce()
    print()
    bench_pipeline()


if __name__ == "__main__":
    main()
