"""The towers of the benchmark's clouds, judged by the oracles.

``perfbench/workloads.py`` is loaded by path and only read.  Each workload's
default cloud (no isometry) is collapsed at each of its grades with
``flag_core``, and the cores' graphs are assembled into a tower.  The
tower's cells must equal, cell for cell, the clique filtration of the graph
its ops replay, form a face-first filtration, and be indexed by key as a
per-cell index lays them out; on the default and held-out clouds its
diagram must equal that of the coned tower the whole-set oracle assembles
from the same cores, and the index read off the faces the level join found
must be the per-cell one.  Neither that index nor the uncollapsed oracle's
of a comparison falls back to the per-cell scan, and on both oracle-compare
clouds the oracle's index is the per-cell one, with the vertex ids as given
and relabelled as strings, and read off its join's faces; so is the
held-out torus cloud's.  (The circle clouds' uncollapsed oracle passes the
expansion cap, and the default torus cloud's holds 538,825 cells, too many
to judge a cell at a time here.)
The tower's cells and contractions are pinned: they count the assembly's
work, noise-free.  So are the largest core's and the tower graph's
projected cell counts: the collapsed run checks its expansion cap on the
tower's graph alone, which no core may exceed.

At every grade, the collapsed diagram's bars alive there must count, with
alternating signs by dimension, the Euler characteristic of the full
snapshot's clique complex.  That judges the collapse and the tower at every
grade and in every dimension, though not the reduction: any pairing of
adjacent dimensions keeps the count.
"""

import dataclasses
import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    boundary_index_of,
    naive_assemble_core_tower,
    naive_boundary_index,
    naive_check_filtration,
    naive_flag_tower_filtration,
    naive_tower_to_filtration,
    tower_graph,
)

from ripscollapse import persistence
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP, check_expansion_cap
from ripscollapse.errors import ReductionMemoryError
from ripscollapse.persistence import BoundaryMatrix, compute_persistence
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import flag_core, graded_bitsets, maximal_cliques, pairwise_distances
from ripscollapse.tower import assemble_tower


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # the dataclasses there look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()

# (cells, contractions) of each workload's default-cloud tower.  Re-pinned
# when the tower became the clique filtration of its graph (2146, 290 and
# 27491 cells as a coned tower): the contractions are the same, and the
# extra cells are cliques through a vertex contracted at or before their
# grade, whose edges a Contract adds to its target.
TOWER_SIZES = {
    "circle-snapshots": (2200, 301),
    "oracle-compare": (300, 75),
    "torus-tower": (31277, 231),
}


def _no_scan(cells):
    raise AssertionError(f"{len(cells)} cells fell back to the per-cell scan")


def _assembled(D, grades):
    """The ``flag_core`` results of *D*'s snapshots at *grades*, and their
    tower, assembled from each core's graph as ``run_pipeline`` passes it."""
    graphs = graded_bitsets(D, grades)
    cores = [flag_core(adj) for adj in graphs]
    survivors = [sum(1 << q for q in c.survivors) for c in cores]
    tower = assemble_tower(
        [{q: adj[q] & s for q in c.survivors} for adj, c, s in zip(graphs, cores, survivors)],
        [c.retraction for c in cores],
        grades,
    )
    return cores, tower


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tower_passes_the_judges(name, monkeypatch):
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS[name]
    grades = w.grades()
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    _, tower = _assembled(D, grades)
    assert (len(tower.cells), len(tower.contractions)) == TOWER_SIZES[name]
    assert tower.cells == naive_flag_tower_filtration(tower)
    naive_check_filtration(tower.cells)
    matrix = BoundaryMatrix.from_filtration(tower.cells)
    assert boundary_index_of(matrix) == naive_boundary_index(tower.cells)
    if w.api == "compare_pipelines":
        run_pipeline(D, grades, collapse=False)


# (largest core's, tower graph's) projected cell count on each workload's
# default cloud: the collapsed run checks its cap on the second alone
PROJECTIONS = {
    "circle-snapshots": (630, 3755),
    "oracle-compare": (117, 466),
    "torus-tower": (37397, 62821),
}


@pytest.mark.parametrize("seed", ["cloud_seed", "held_out_seed"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_core_projects_more_than_the_tower_graph(name, seed):
    """Each core's projected cell count is at most that of the tower's
    graph, read off the tower's vertex and edge cells."""
    w = WORKLOADS[name]
    cores, tower = _assembled(pairwise_distances(w.cloud(getattr(w, seed), w.n)), w.grades())
    largest = max(check_expansion_cap(c.cliques, 1 << 64) for c in cores)
    whole = check_expansion_cap(maximal_cliques(tower_graph(tower)), 1 << 64)
    assert largest <= whole
    if seed == "cloud_seed":
        assert (largest, whole) == PROJECTIONS[name]


def _join_index_is_naive(arrays, cells):
    """Check that the array entry reads the index of the join's *arrays*
    off their faces as a per-cell index lays out their pairs *cells*."""
    matrix = persistence._arrays_indexed(arrays)
    assert matrix.cells is arrays
    want = naive_boundary_index(cells)
    assert boundary_index_of(dataclasses.replace(matrix, cells=cells)) == want
    return want


def _same_arrays(a, b):
    return all(
        len(x) == len(y) and all(map(np.array_equal, x, y))
        for x, y in zip(
            (a.vertices, a.grades, a.positions, a.faces),
            (b.vertices, b.grades, b.positions, b.faces),
        )
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tower_arrays_index_as_the_naive_index(name, monkeypatch):
    """On the default and held-out clouds, the index that the array entry
    reads off the faces the level join found is, with no tuple built and no
    scan, the per-cell index of the tower's pairs.  On the default cloud the
    join gives the same arrays when each of its steps tests at most 7
    vertex pairs at once.  The vertex ids are sparse and include fresh ids
    past the points, and on one of the clouds the vertex cells' ids do not
    increase, none of which the faces depend on."""
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS[name]
    grades = w.grades()
    unordered = 0
    for seed in (w.cloud_seed, w.held_out_seed):
        D = pairwise_distances(w.cloud(seed, w.n))
        _, tower = _assembled(D, grades)
        _join_index_is_naive(tower.arrays, tower.cells)
        ids = tower.arrays.vertices[0][:, 0]
        assert ids.max() >= max(w.n, len(ids))
        unordered += bool((ids[1:] < ids[:-1]).any())
        if seed == w.cloud_seed:
            chunk = persistence._JOIN_CHUNK
            monkeypatch.setattr(persistence, "_JOIN_CHUNK", 7)
            assert _same_arrays(_assembled(D, grades)[1].arrays, tower.arrays)
            monkeypatch.setattr(persistence, "_JOIN_CHUNK", chunk)
    assert unordered


@pytest.mark.parametrize("seed", ["cloud_seed", "held_out_seed"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tower_diagram_is_the_coned_towers(name, seed):
    """The flag tower's diagram equals that of the coned tower the
    whole-set oracle assembles from the same cliques and retractions."""
    w = WORKLOADS[name]
    grades = w.grades()
    cores, tower = _assembled(pairwise_distances(w.cloud(getattr(w, seed), w.n)), grades)
    cliques, retractions = [c.cliques for c in cores], [c.retraction for c in cores]
    ops = naive_assemble_core_tower(cliques, retractions, grades, DEFAULT_EXPANSION_CAP)
    want = compute_persistence(naive_tower_to_filtration(ops))
    assert compute_persistence(tower.arrays) == want
    assert tower.cells == naive_flag_tower_filtration(tower)


@pytest.mark.parametrize("seed", ["cloud_seed", "held_out_seed"])
def test_oracle_index_is_the_naive_index(seed, monkeypatch):
    """The uncollapsed oracle's pairs are indexed by key as a per-cell
    index lays them out, with their ids as given and relabelled as strings,
    and so are its arrays, off the faces the level join found."""
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS["oracle-compare"]
    grades = w.grades()
    D = pairwise_distances(w.cloud(getattr(w, seed), w.n))
    result = run_pipeline(D, grades, collapse=False)
    cells = result.filtration
    want = naive_boundary_index(cells)
    assert boundary_index_of(BoundaryMatrix.from_filtration(cells)) == want
    named = [(tuple(f"v{v:03d}" for v in s), g) for s, g in cells]
    assert boundary_index_of(BoundaryMatrix.from_filtration(named)) == want
    # the oracle's arrays, indexed off the join's faces with no tuple built,
    # also when each join step tests at most 7 vertex pairs at once
    assert _join_index_is_naive(result.tower.arrays, cells) == want
    monkeypatch.setattr(persistence, "_JOIN_CHUNK", 7)
    assert _same_arrays(run_pipeline(D, grades, collapse=False).tower.arrays, result.tower.arrays)


def test_torus_oracle_index_is_the_naive_index(monkeypatch):
    """On the held-out torus cloud the uncollapsed oracle's 67,096 cells,
    up to dimension 11, are indexed off the level join's faces as a
    per-cell index lays out their pairs.  (The default cloud's oracle holds
    538,825 cells, too many to judge a cell at a time here.)"""
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS["torus-tower"]
    D = pairwise_distances(w.cloud(w.held_out_seed, w.n))
    arrays = run_pipeline(D, w.grades(), collapse=False).tower.arrays
    assert (len(arrays), len(arrays.vertices)) == (67_096, 12)
    _join_index_is_naive(arrays, arrays.cells())


def test_collapsed_run_is_refused_within_one_join_chunk_of_the_budget(monkeypatch):
    """With the cell budget lowered, the level join that builds the
    collapsed torus tower's cells raises once its running count passes the
    budget, at most one chunk past it and before any cell is indexed; the
    vertices and edges it starts from are counted first, as a whole.  At
    the tower's own size the run passes."""
    w = WORKLOADS["torus-tower"]
    grades = w.grades()
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    arrays = run_pipeline(D, grades).tower.arrays
    n, graph = len(arrays), len(arrays.positions[0]) + len(arrays.positions[1])
    chunk = 256  # more pairs than any row of the tower has partners
    monkeypatch.setattr(persistence, "_JOIN_CHUNK", chunk)
    indexed = []
    located = persistence._arrays_located
    monkeypatch.setattr(persistence, "_arrays_located", lambda a: indexed.append(1) or located(a))
    refused = 0
    for limit in (graph - 1, graph, (graph + n) // 2, n - chunk, n - 1, n):
        monkeypatch.setattr(persistence, "_MAX_CELLS", limit)
        indexed.clear()
        try:
            run_pipeline(D, grades)
        except ReductionMemoryError as exc:
            assert limit < exc.held <= n and exc.unit == "cells"
            assert exc.held == graph if limit < graph else exc.held <= limit + chunk
            assert indexed == []
            refused += 1
        else:
            assert limit == n and indexed == [1]
    assert refused == 5 and n - graph > 100 * chunk


def _euler_characteristic(adj):
    """The Euler characteristic of the clique complex of the graph *adj*, one
    bitmask per vertex: its cliques counted with sign (-1)**(size - 1) by a
    depth-first search that extends each clique by its common neighbours
    below its last vertex and builds no tuples."""
    chi = 0
    stack = [((1 << len(adj)) - 1, 1)]  # the candidates that extend one clique, and their sign
    while stack:
        rest, sign = stack.pop()
        chi += sign * rest.bit_count()
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            below = rest & adj[w]
            if below:
                stack.append((below, -sign))
    return chi


def test_euler_characteristic_counts_every_clique():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 9)
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.6:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        cliques = [
            c
            for k in range(1, n + 1)
            for c in combinations(range(n), k)
            if all(adj[u] >> v & 1 for u, v in combinations(c, 2))
        ]
        assert _euler_characteristic(adj) == sum((-1) ** (len(c) - 1) for c in cliques)


@pytest.mark.parametrize("seed", ["cloud_seed", "held_out_seed"])
@pytest.mark.parametrize("name", ["oracle-compare", "torus-tower"])
def test_bars_alive_at_each_grade_give_the_snapshot_euler_characteristic(name, seed):
    # circle's full snapshots have too many cliques to count in a test
    w = WORKLOADS[name]
    grades = w.grades()
    D = pairwise_distances(w.cloud(getattr(w, seed), w.n))
    pairs = run_pipeline(D, grades).diagram.pairs
    for t, adj in zip(grades, graded_bitsets(D, grades)):
        alive = sum((-1) ** dim for dim, birth, death in pairs if birth <= t < death)
        chi = _euler_characteristic(adj)
        assert alive == chi, f"grade {t}"
