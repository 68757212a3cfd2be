"""The towers of the benchmark's clouds, judged by the oracles.

``perfbench/workloads.py`` is loaded by path and only read.  Each workload's
default cloud (no isometry) is collapsed at each of its grades with
``flag_core``, and the cores are assembled into a tower.  The tower's cells
must equal the whole-complex coning of that tower, form a face-first
filtration, and reduce, through the index built at assembly, to the diagram
that ``compute_persistence`` finds from the cells alone.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from oracles import naive_check_filtration, naive_tower_to_filtration

from ripscollapse.persistence import _diagram, compute_persistence
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tower_passes_the_judges(name):
    w = WORKLOADS[name]
    grades = w.grades()
    D = pairwise_distances(w.cloud(w.cloud_seed, w.n))
    cores = [flag_core(adj) for adj in graded_bitsets(D, grades)]
    tower, matrix = assemble_tower(
        [c.cliques for c in cores], [c.retraction for c in cores], grades
    )
    assert tower.cells == naive_tower_to_filtration(tower)
    naive_check_filtration(tower.cells)
    assert _diagram(matrix) == compute_persistence(tower.cells)
