"""Benchmark the GF(2) reduction kernel and the stages that need no kernel:
the two strong collapses and the tower.

Run: python3 benchmarks/bench_kernels.py (from a checkout; it puts ``src``
on ``sys.path``).

The collapse section times ``core`` on a Rips snapshot's maximal simplices
and ``rips._flag_collapse``, the collapse step of ``flag_core`` and the
graph collapse the pipeline runs (it enumerates no core's cliques), on the
same snapshot's neighbourhood graph.  The tower section times
``assemble_tower``, which also runs the level join that builds the
tower's cells, on the ``flag_core`` core graphs and retractions of the
torus-tower workload's cloud and grades, taken from
``perfbench/workloads.py`` (without the run seed's isometry), the census
of the tower's graph on which the collapsed pipeline checks its expansion
cap (``pipeline._tower_projection``: the graph's bitsets and its maximal
cliques), and ``compute_persistence`` on the tower's ``(simplex, grade)``
pairs and on its per-dimension vertex arrays (``Tower.arrays``), which
the collapsed pipeline indexes and reduces.
``tests/test_workload_towers.py`` checks those towers against the oracles.

The index section times the oracle's cell build: the level join,
``persistence._level_join``, of the last graph's edges, graded by
``rips._graded_graphs``, the pass of ``graded_bitsets``.  The join builds
the cells level by level, carrying each as its prefix and its last
vertex, and finds each cell's faces as it builds the cell.  It holds the
vertex rows of the vertices and the edges alone: the section prints the
vertex ids held in rows of dimension 2 and up after the join and once
``CellArrays.vertices`` has been read, and times that first read, which
builds those rows from the faces, as its own row.  It then times the
arrays' pairs (``CellArrays.cells``), and
``BoundaryMatrix.from_filtration`` and ``compute_persistence`` on those
pairs and on the arrays themselves, for the uncollapsed filtration of the
oracle-compare workload's grades, on its default and held-out clouds,
taken the same way.  It prints the cells, the faces (one per face of every
cell) and the cells per dimension: ``from_filtration`` locates every face
by exact key in one NumPy pass per dimension, and the join by two gathers,
with no search.  It times ``from_filtration`` again on the same cells with
their vertex ids relabelled as strings, which it indexes the same way.

The reduction section times ``reduce_block`` on the dimension-1 block of a
3000-point geometric graph, given as the boundary index's array of face
rows with the rows' largest faces as lows, the way ``persistence._diagram``
passes them.  It is the heavy-addition case:
most edges close a cycle, so 19,155 of the 21,950 columns collide and are
packed, with 71,063 column additions, where the pipeline's blocks pack
3-13% of their columns and add fewer than one column per column packed.
The kernel gets the pipeline's byte limit.  The section prints the columns
it packs (those that collide and the owners they add) and their bytes,
which the limit bounds, next to the bytes of the dense block, one bit per
face and column in 64-bit words, that the reduction once charged instead.
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

from ripscollapse import _kernels  # noqa: E402
from ripscollapse._kernels import reduce_block  # noqa: E402
from ripscollapse.collapse import core  # noqa: E402
from ripscollapse.persistence import (  # noqa: E402
    _MAX_PACKED_BYTES,
    BoundaryMatrix,
    CellArrays,
    _level_join,
    compute_persistence,
)
from ripscollapse.pipeline import (  # noqa: E402
    _keyed_bitsets,
    _tower_projection,
    run_pipeline,
)
from ripscollapse.rips import (  # noqa: E402
    SnapshotSchedule,
    _flag_collapse,
    _graded_graphs,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    pairwise_distances,
)
from ripscollapse.tower import _tower_graph, assemble_tower  # noqa: E402

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
    """The dimension-1 boundary block as the index's array of face rows, the
    way ``persistence._diagram`` passes it; face r is the r-th vertex."""
    matrix = BoundaryMatrix.from_filtration(cells)
    return matrix.faces[1], len(matrix.by_dim[0])


def _reduce(block):
    return reduce_block(block, block.max(axis=1).tolist(), _MAX_PACKED_BYTES)


def bench_collapse():
    print("--- strong collapse (400-point noisy circle, t=0.4) ---")
    D = pairwise_distances(_circle_cloud(400, seed=1))
    adj = graded_bitsets(D, [0.4])[0]
    columns = dict(enumerate(maximal_cliques(adj)))
    edges = sum(a.bit_count() for a in adj) // 2
    times_core = _time(core, columns)
    print(f"  core:           {np.mean(times_core) * 1000:8.3f} +- {np.std(times_core) * 1000:.3f} ms"
          f" ({len(adj)} vertices x {len(columns)} maximal)")
    times_graph = _time(_flag_collapse, adj)
    print(f"  _flag_collapse: {np.mean(times_graph) * 1000:8.3f} +- {np.std(times_graph) * 1000:.3f} ms"
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
    graphs = graded_bitsets(D, grades)
    results = [flag_core(adj) for adj in graphs]
    cores = []
    for adj, r in zip(graphs, results):
        survivors = sum(1 << q for q in r.survivors)
        cores.append({q: adj[q] & survivors for q in r.survivors})
    args = (cores, [r.retraction for r in results], grades)
    tower = assemble_tower(*args)
    contracts = len(tower.contractions)
    print(f"  assemble_tower:      {_ms(_time(assemble_tower, *args))}"
          f" ({len(tower) - contracts} includes, {contracts} contracts, {len(tower.cells)} cells)")
    graph = _tower_graph(*args)
    census = (len(graph.ids), graph.keys)
    maximal = len(maximal_cliques(_keyed_bitsets(*census)))
    print(f"  census of its graph: {_ms(_time(_tower_projection, *census))}"
          f" ({len(graph.ids)} vertices, {len(graph.keys)} edges, {maximal} maximal cliques)")
    print(f"  compute_persistence: {_ms(_time(compute_persistence, tower.cells))}")
    print(f"  ... on the arrays:   {_ms(_time(compute_persistence, tower.arrays))}")


def bench_index():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    w = workloads.get("oracle-compare")
    grades = w.grades()
    for seed in (w.cloud_seed, w.held_out_seed):
        print(f"--- oracle cells and boundary index ({w.n}-point {w.cloud.__name__} cloud {seed},"
              f" {len(grades)} grades from {w.start} by {w.step}, uncollapsed) ---")
        graphs, *edges = _graded_graphs(pairwise_distances(w.cloud(seed, w.n)), grades)
        def build():
            return _level_join(np.zeros(len(graphs[0]), np.intp), *edges, grades)

        arrays = build()
        held = arrays._rows
        def first_read():
            return CellArrays(held, arrays.grades, arrays.positions, arrays.faces).vertices

        before = sum(rows.size for rows in held[2:] if isinstance(rows, np.ndarray))
        after = sum(rows.size for rows in arrays.vertices[2:])
        cells = arrays.cells()
        print(f"  join, faces found:   {_ms(_time(build))}")
        print(f"  vertex ids in rows of dimension >= 2: {before} after the join,"
              f" {after} once vertices is read")
        print(f"  first vertices read: {_ms(_time(first_read))}")
        print(f"  ... as pairs:        {_ms(_time(arrays.cells))}")
        matrix = BoundaryMatrix.from_filtration(cells)
        faces = sum(f.size for f in matrix.faces)
        per_dim = ", ".join(str(len(rows)) for rows in matrix.by_dim)
        print(f"  input: {len(cells)} cells, {faces} faces; cells per dimension {per_dim}")
        print(f"  from_filtration:     {_ms(_time(BoundaryMatrix.from_filtration, cells))}")
        named = [(tuple(f"v{v:03d}" for v in s), g) for s, g in cells]
        print(f"  ... on string ids:   {_ms(_time(BoundaryMatrix.from_filtration, named))}")
        print(f"  compute_persistence: {_ms(_time(compute_persistence, cells))}")
        print(f"  ... on the arrays:   {_ms(_time(compute_persistence, arrays))}")


def bench_reduce():
    print("--- boundary reduction, dimension-1 block (3000-point geometric graph) ---")
    rng = np.random.default_rng(2)
    D = pairwise_distances(rng.random((3000, 2)))
    cells = [((i,), 0.0) for i in range(D.shape[0])]
    for i in range(D.shape[0]):
        for j in range(i + 1, D.shape[0]):
            if D[i, j] <= 0.04:
                cells.append(((i, j), 0.0))
    block, n_rows = _dim1_block(cells)
    print(f"  input: {len(block)} columns x {n_rows} rows")
    packed, packed_bytes = _packed(block)
    dense_bytes = len(block) * ((n_rows + 63) // 64) * 8
    print(f"  packed: {packed} columns, {packed_bytes:,} bytes;"
          f" dense block: {dense_bytes:,} bytes; limit {_MAX_PACKED_BYTES:,} bytes")
    print(f"  reduce_block: {_ms(_time(_reduce, block))}")


def _packed(block):
    """The number and the bytes of the bitsets ``reduce_block`` packs for *columns*."""
    sizes = []
    pack = _kernels._pack

    def recording(faces):
        c = pack(faces)
        sizes.append((c.bit_length() + 7) // 8)
        return c

    _kernels._pack = recording
    try:
        _reduce(block)
    finally:
        _kernels._pack = pack
    return len(sizes), sum(sizes)


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
    bench_index()
    print()
    bench_reduce()
    print()
    bench_pipeline()


if __name__ == "__main__":
    main()
