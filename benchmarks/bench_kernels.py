"""Benchmark the GF(2) reduction kernel and the stages that need no kernel:
the two strong collapses and the tower.

Run: python3 benchmarks/bench_kernels.py (from a checkout; it puts ``src``
on ``sys.path``).

The collapse section times ``core`` on a Rips snapshot's maximal simplices
and ``flag_core``, the graph collapse the pipeline runs, on the same
snapshot's neighbourhood graph.  The tower section times
``assemble_tower`` on the ``flag_core`` cliques and retractions of the
torus-tower workload's cloud and grades, taken from
``perfbench/workloads.py`` (without the run seed's isometry); that time
includes the boundary index the assembly builds for the reduction.
``tests/test_workload_towers.py`` checks those towers against the oracles.

The reduction section times ``reduce_block`` on the dimension-1 block of a
3000-point geometric graph, given as the boundary index's face tuples the
way ``persistence._diagram`` passes them.  It is the heavy-addition case:
most edges close a cycle, so 19,155 of the 21,950 columns collide and are
packed, with 71,063 column additions, where the pipeline's blocks pack
3-13% of their columns and add fewer than one column per column packed.
"""
from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ripscollapse._kernels import reduce_block  # noqa: E402
from ripscollapse.collapse import core  # noqa: E402
from ripscollapse.persistence import BoundaryMatrix  # noqa: E402
from ripscollapse.pipeline import run_pipeline  # noqa: E402
from ripscollapse.rips import (  # noqa: E402
    SnapshotSchedule,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    pairwise_distances,
)
from ripscollapse.tower import assemble_tower  # noqa: E402

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


def _circle_cloud(n, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = 1.0 + rng.uniform(-0.05, 0.05)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return pts


def _dim1_block(cells):
    """The dimension-1 boundary columns as the index's face tuples, the way
    ``persistence._diagram`` passes them; face r is the r-th vertex."""
    matrix = BoundaryMatrix.from_filtration(cells)
    return [matrix.columns[i] for i in matrix.by_dim[1]], len(matrix.by_dim[0])


def bench_collapse():
    print("--- strong collapse (400-point noisy circle, t=0.4) ---")
    D = pairwise_distances(_circle_cloud(400, seed=1))
    adj = graded_bitsets(D, [0.4])[0]
    columns = dict(enumerate(maximal_cliques(adj)))
    edges = sum(a.bit_count() for a in adj) // 2
    times_core = _time(core, columns)
    print(f"  core:      {np.mean(times_core) * 1000:8.3f} +- {np.std(times_core) * 1000:.3f} ms"
          f" ({len(adj)} vertices x {len(columns)} maximal)")
    times_graph = _time(flag_core, adj)
    print(f"  flag_core: {np.mean(times_graph) * 1000:8.3f} +- {np.std(times_graph) * 1000:.3f} ms"
          f" ({len(adj)} vertices x {edges} edges)")


def _ms(times):
    return f"{np.mean(times) * 1000:8.3f} +- {np.std(times) * 1000:.3f} ms"


def bench_tower():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    w = workloads.get("torus-tower")
    grades = w.grades()
    print(f"--- tower ({w.n}-point torus, {len(grades)} grades from {w.start} by {w.step}) ---")
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    results = [flag_core(adj) for adj in graded_bitsets(D, grades)]
    args = ([r.cliques for r in results], [r.retraction for r in results], grades)
    tower, _ = assemble_tower(*args)
    contracts = len(tower.contractions)
    print(f"  assemble_tower: {_ms(_time(assemble_tower, *args))}"
          f" ({len(tower) - contracts} includes, {contracts} contracts, {len(tower.cells)} cells)")


def bench_reduce():
    print("--- boundary reduction, dimension-1 block (3000-point geometric graph) ---")
    rng = np.random.default_rng(2)
    D = pairwise_distances(rng.random((3000, 2)))
    cells = [((i,), 0.0) for i in range(D.shape[0])]
    for i in range(D.shape[0]):
        for j in range(i + 1, D.shape[0]):
            if D[i, j] <= 0.04:
                cells.append(((i, j), 0.0))
    columns, n_rows = _dim1_block(cells)
    print(f"  input: {len(columns)} columns x {n_rows} rows")
    print(f"  reduce_block: {_ms(_time(lambda: reduce_block(list(columns))))}")


def bench_pipeline():
    print("--- full pipeline (120-point noisy circle, 41 snapshots) ---")
    D = pairwise_distances(_circle_cloud(120, seed=3))
    sched = SnapshotSchedule(0.1, 0.01, 0.5)

    print(f"  run_pipeline: {_ms(_time(lambda: run_pipeline(D, sched)))}")


def main() -> None:
    bench_collapse()
    print()
    bench_tower()
    print()
    bench_reduce()
    print()
    bench_pipeline()


if __name__ == "__main__":
    main()
