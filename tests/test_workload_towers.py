"""The towers of the benchmark's clouds, judged by the oracles.

``perfbench/workloads.py`` is loaded by path and only read.  Each workload's
default cloud (no isometry) is collapsed at each of its grades with
``flag_core``, and the cores are assembled into a tower.  The tower's cells
must equal the whole-complex coning of that tower, form a face-first
filtration, and be indexed by key as a per-cell index lays them out.
Neither that index nor the uncollapsed oracle's of a comparison falls back
to the per-cell scan, and on both oracle-compare clouds the oracle's index
is the per-cell one, with the vertex ids as given and relabelled as strings.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from oracles import (
    boundary_index_of,
    naive_boundary_index,
    naive_check_filtration,
    naive_tower_to_filtration,
)

from ripscollapse import persistence
from ripscollapse.persistence import BoundaryMatrix
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import flag_core, graded_bitsets, pairwise_distances
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


def _no_scan(cells):
    raise AssertionError(f"{len(cells)} cells fell back to the per-cell scan")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tower_passes_the_judges(name, monkeypatch):
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS[name]
    grades = w.grades()
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    cores = [flag_core(adj) for adj in graded_bitsets(D, grades)]
    tower = assemble_tower([c.cliques for c in cores], [c.retraction for c in cores], grades)
    assert tower.cells == naive_tower_to_filtration(tower)
    naive_check_filtration(tower.cells)
    matrix = BoundaryMatrix.from_filtration(tower.cells)
    assert boundary_index_of(matrix) == naive_boundary_index(tower.cells)
    if w.api == "compare_pipelines":
        run_pipeline(D, grades, collapse=False)


@pytest.mark.parametrize("seed", ["cloud_seed", "held_out_seed"])
def test_oracle_index_is_the_naive_index(seed, monkeypatch):
    monkeypatch.setattr(persistence, "_scan", _no_scan)
    w = WORKLOADS["oracle-compare"]
    grades = w.grades()
    D = pairwise_distances(w.cloud(getattr(w, seed), w.n))
    cells = run_pipeline(D, grades, collapse=False).filtration
    want = naive_boundary_index(cells)
    assert boundary_index_of(BoundaryMatrix.from_filtration(cells)) == want
    named = [(tuple(f"v{v:03d}" for v in s), g) for s, g in cells]
    assert boundary_index_of(BoundaryMatrix.from_filtration(named)) == want
