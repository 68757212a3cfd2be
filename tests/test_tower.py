"""Tower assembly from cores, and the coning that turns a tower into a filtration."""

import math
import random

import pytest
from oracles import (
    TowerOpError,
    naive_assemble_core_tower,
    naive_check_filtration,
    naive_tower_to_filtration,
    naive_validate_tower,
)

from ripscollapse.collapse import RetractionMap, core
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP, ComplexMatrix
from ripscollapse.errors import CollapseConsistencyError, ExpansionCapError
from ripscollapse.persistence import compute_persistence
from ripscollapse.pipeline import oracle_pipeline, run_pipeline
from ripscollapse.rips import (
    flag_core,
    neighborhood_bitsets,
    pairwise_distances,
    rips_snapshot,
)
from ripscollapse.tower import Contract, Include, Tower, assemble_tower_filtration

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

TABLE_COLUMNS = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]


def _assemble(cores, retractions, grades, cap=DEFAULT_EXPANSION_CAP):
    """The assembled tower, once its filtration is checked for face-first
    order and against the whole-complex coning of that tower."""
    tower, filtration = assemble_tower_filtration(cores, retractions, grades, cap)
    naive_check_filtration(filtration.cells)
    assert filtration == naive_tower_to_filtration(tower)
    return tower


def _core_inputs(results, grades):
    return [res.matrix for res in results], [res.retraction for res in results], grades


def _pipeline_inputs(points, grades):
    D = pairwise_distances(points)
    return _core_inputs([core(rips_snapshot(D, g)) for g in grades], grades)


def test_single_snapshot_tower_is_expanded_core():
    res = core(ComplexMatrix.from_simplex_list(TABLE_COLUMNS))
    tower = _assemble([res.matrix], [res.retraction], [0.0])
    assert tower.ops == (
        Include((1,), 0.0),
        Include((3,), 0.0),
        Include((4,), 0.0),
        Include((1, 3), 0.0),
        Include((1, 4), 0.0),
        Include((3, 4), 0.0),
    )
    naive_validate_tower(tower)


def test_identical_snapshots_add_no_ops():
    res = core(ComplexMatrix.from_simplex_list(TABLE_COLUMNS))
    tower = _assemble(
        [res.matrix, res.matrix],
        [res.retraction, res.retraction],
        [0.0, 1.0],
    )
    assert all(op.grade == 0.0 for op in tower.ops)
    assert len(tower.ops) == 6


def test_unit_square_tower_ops():
    tower = _assemble(*_pipeline_inputs(UNIT_SQUARE, [0.5, 1.0, 1.5]))
    assert tower.ops == (
        Include((0,), 0.5),
        Include((1,), 0.5),
        Include((2,), 0.5),
        Include((3,), 0.5),
        Include((0, 1), 1.0),
        Include((0, 3), 1.0),
        Include((1, 2), 1.0),
        Include((2, 3), 1.0),
        Contract(1, 0, 1.5),
        Contract(2, 0, 1.5),
        Contract(3, 0, 1.5),
    )
    naive_validate_tower(tower)


def test_contract_into_vertex_absent_from_tower_includes_it_first():
    # first core is the vertex 0, the next snapshot retracts everything onto
    # vertex 1, which the tower has never seen: it must be included on the fly
    cores = [
        ComplexMatrix.from_simplex_list([(0,)]),
        ComplexMatrix.from_simplex_list([(1,)]),
    ]
    retractions = [RetractionMap({0: 0}), RetractionMap({0: 1, 1: 1, 2: 1})]
    tower = _assemble(cores, retractions, [0.0, 1.0])
    assert tower.ops == (
        Include((0,), 0.0),
        Include((1,), 1.0),
        Contract(0, 1, 1.0),
    )
    naive_validate_tower(tower)


def test_returning_point_id_gets_a_fresh_tower_id():
    # point 1 is contracted away at grade 1 and reappears in the last core;
    # its id may not be reused, so the tower shows a brand-new vertex instead
    cores = [
        ComplexMatrix.from_simplex_list([(0,), (1,)]),
        ComplexMatrix.from_simplex_list([(0,)]),
        ComplexMatrix.from_simplex_list([(0,), (1,)]),
    ]
    retractions = [
        RetractionMap({0: 0, 1: 1}),
        RetractionMap({0: 0, 1: 0}),
        RetractionMap({0: 0, 1: 1}),
    ]
    tower = _assemble(cores, retractions, [0.0, 1.0, 2.0])
    assert tower.ops == (
        Include((0,), 0.0),
        Include((1,), 0.0),
        Contract(1, 0, 1.0),
        Include((2,), 2.0),
    )
    _, filtration = assemble_tower_filtration(cores, retractions, [0.0, 1.0, 2.0])
    diagram = compute_persistence(filtration)
    assert diagram.pairs == ((0, 0.0, 1.0), (0, 0.0, math.inf), (0, 2.0, math.inf))


def test_assemble_input_validation():
    res = core(ComplexMatrix.from_simplex_list([(0, 1)]))
    with pytest.raises(ValueError):
        assemble_tower_filtration([res.matrix], [res.retraction, res.retraction], [0.0])
    with pytest.raises(ValueError):
        assemble_tower_filtration([], [], [])
    with pytest.raises(ValueError):
        assemble_tower_filtration(
            [res.matrix, res.matrix], [res.retraction, res.retraction], [1.0, 1.0]
        )


def test_assemble_rejects_retraction_missing_a_point():
    cores = [
        ComplexMatrix.from_simplex_list([(0,)]),
        ComplexMatrix.from_simplex_list([(5,)]),
    ]
    retractions = [RetractionMap({0: 0}), RetractionMap({5: 5})]
    with pytest.raises(CollapseConsistencyError):
        assemble_tower_filtration(cores, retractions, [0.0, 1.0])


def test_assemble_rejects_retraction_onto_a_point_outside_the_next_core():
    cores = [
        ComplexMatrix.from_simplex_list([(0, 1)]),
        ComplexMatrix.from_simplex_list([(1, 2)]),
    ]
    retractions = [RetractionMap({0: 0, 1: 1}), RetractionMap({0: 3, 1: 1, 2: 2, 3: 3})]
    with pytest.raises(CollapseConsistencyError, match="into its core"):
        assemble_tower_filtration(cores, retractions, [0.0, 1.0])


def test_assemble_rejects_contracted_cell_missing_from_the_next_core():
    # the edge 01 retracts onto 12, but the next core is two loose vertices
    cores = [
        ComplexMatrix.from_simplex_list([(0, 1)]),
        ComplexMatrix.from_simplex_list([(1,), (2,)]),
    ]
    retractions = [RetractionMap({0: 0, 1: 1}), RetractionMap({0: 2, 1: 1, 2: 2})]
    with pytest.raises(CollapseConsistencyError, match="not in the next core"):
        assemble_tower_filtration(cores, retractions, [0.0, 1.0])


def test_assemble_rejects_retraction_that_merges_core_vertices():
    # Sending live core vertex a to core vertex b is a valid retraction, but
    # assembling it would contract a and then include cells on the dead id a.
    for seed in range(6):
        cores, retractions, grades = _flag_core_inputs(seed)
        j = 1
        live = set(cores[j - 1].vertex_ids)
        a = next(q for q in cores[j].vertex_ids if q in live)
        b = next(q for q in cores[j].vertex_ids if q != a)
        merged = list(retractions)
        merged[j] = RetractionMap(
            {q: b if w == a else w for q, w in retractions[j].target.items()}
        )
        with pytest.raises(CollapseConsistencyError, match=f"does not fix core vertex {a}"):
            assemble_tower_filtration(cores, merged, grades)


def test_tower_validate_rejects_bad_ops():
    for ops in (
        (Include((0,), 1.0), Include((1,), 0.0)),
        (Include((0,), 0.0), Include((0,), 0.0)),
        (Include((0,), 0.0), Contract(0, 0, 1.0)),
        (Include((0,), 0.0), Contract(1, 0, 1.0)),
        (Include((0, 1), 0.0), Contract(0, 1, 1.0), Contract(0, 1, 2.0)),
    ):
        with pytest.raises(TowerOpError):
            naive_validate_tower(Tower(ops))


def test_includes_only_tower_converts_verbatim():
    tower = Tower((Include((2, 5), 0.0), Include((7,), 1.5)))
    f = naive_tower_to_filtration(tower)
    assert f.cells == (((2,), 0.0), ((5,), 0.0), ((2, 5), 0.0), ((7,), 1.5))
    naive_check_filtration(f.cells)


def test_contract_of_dominated_edge_needs_no_cone_cells():
    tower = Tower((Include((0, 1), 0.0), Contract(0, 1, 1.0)))
    f = naive_tower_to_filtration(tower)
    assert f.cells == (((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0))
    diagram = compute_persistence(f, include_zero_pairs=True)
    assert diagram.pairs == ((0, 0.0, 0.0), (0, 0.0, math.inf))


def test_coning_adds_the_closed_star_with_the_new_apex():
    tower = Tower((Include((0, 1, 2), 0.0), Include((3,), 0.0), Contract(0, 3, 1.0)))
    f = naive_tower_to_filtration(tower)
    added = [(s, g) for s, g in f.cells if g == 1.0]
    assert added == [
        ((0, 3), 1.0),
        ((1, 3), 1.0),
        ((2, 3), 1.0),
        ((0, 1, 3), 1.0),
        ((0, 2, 3), 1.0),
        ((1, 2, 3), 1.0),
        ((0, 1, 2, 3), 1.0),
    ]
    naive_check_filtration(f.cells)
    diagram = compute_persistence(f)
    assert diagram.pairs == ((0, 0.0, 1.0), (0, 0.0, math.inf))


def test_include_after_contract_is_rewritten_through_the_alias():
    tower = Tower(
        (Include((0, 1), 0.0), Contract(0, 1, 1.0), Include((0, 2), 2.0))
    )
    f = naive_tower_to_filtration(tower)
    assert f.cells == (
        ((0,), 0.0),
        ((1,), 0.0),
        ((0, 1), 0.0),
        ((2,), 2.0),
        ((1, 2), 2.0),
    )
    naive_check_filtration(f.cells)


def test_contract_resolving_to_itself_is_a_no_op():
    tower = Tower((Include((0, 1), 0.0), Contract(0, 1, 1.0), Contract(1, 0, 2.0)))
    f = naive_tower_to_filtration(tower)
    assert f.cells == (((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0))


def test_contract_of_unknown_vertex_is_rejected():
    tower = Tower((Include((0, 1), 0.0), Contract(9, 0, 1.0)))
    with pytest.raises(TowerOpError):
        naive_tower_to_filtration(tower)
    tower = Tower((Include((0, 1), 0.0), Contract(0, 9, 1.0)))
    with pytest.raises(TowerOpError):
        naive_tower_to_filtration(tower)


def test_every_tower_prefix_stays_downward_closed():
    _, f = assemble_tower_filtration(*_pipeline_inputs(UNIT_SQUARE, [0.5, 1.0, 1.5]))
    naive_check_filtration(f.cells)


def test_conversion_matches_uncollapsed_pipeline_on_random_clouds():
    rng = random.Random(2025)
    for _ in range(10):
        n = rng.randint(2, 8)
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
        grades = [0.3, 0.8, 1.4]
        inputs = _pipeline_inputs(pts, grades)
        naive_validate_tower(_assemble(*inputs))
        got = compute_persistence(assemble_tower_filtration(*inputs)[1])
        assert got.pairs == oracle_pipeline(pairwise_distances(pts), grades).pairs


def _flag_core_inputs(seed):
    """Cores, retractions and grades as ``run_pipeline`` builds them, with
    ``flag_core`` on every snapshot of a seeded cloud."""
    cloud = random.Random(seed)
    dim = 2 + seed % 2
    pts = [tuple(cloud.uniform(0, 1) for _ in range(dim)) for _ in range(cloud.randint(10, 24))]
    D = pairwise_distances(pts)
    grades = [0.1, 0.25, 0.4, 0.55]
    return _core_inputs([flag_core(neighborhood_bitsets(D, g)) for g in grades], grades)


def _mutated(rng, cores, retractions, grades):
    """The inputs with one retraction changed, keeping it a retraction onto
    the same core: a point on an edge of the previous core that the snapshot
    removes sent to another core vertex, a class of points dropped, or a
    class sent to a point outside every core."""
    moves = [
        (j, p)
        for j in range(1, len(cores))
        for s in cores[j - 1].maximal_simplices()
        if len(s) > 1
        for p in s
        if retractions[j].target.get(p, p) != p
    ]
    kind = rng.randrange(0 if moves else 1, 3)
    j, p = rng.choice(moves) if kind == 0 else (rng.randrange(1, len(cores)), None)
    target = dict(retractions[j].target)
    fixed = sorted(w for q, w in target.items() if q == w)
    a = rng.choice(fixed)
    if kind == 0:
        target[p] = a
    elif kind == 1:
        target = {q: w for q, w in target.items() if w != a}
    else:
        target = {q: 1000 if w == a else w for q, w in target.items()}
        target[1000] = 1000
    retractions = list(retractions)
    retractions[j] = RetractionMap(target)
    return cores, retractions, grades


def _assembly_outcome(fn, inputs, cap):
    """(ops, None) or (None, error type) of one assembly."""
    try:
        return fn(*inputs, cap).ops, None
    except (CollapseConsistencyError, ExpansionCapError) as e:
        return None, type(e)


def test_incremental_assembly_matches_whole_set_oracle():
    rng = random.Random(5)
    cases = [_flag_core_inputs(seed) for seed in range(24)]
    for seed in range(8):
        # noisy circles, whose cores keep a cycle of edges for a while
        cloud = random.Random(100 + seed)
        n = cloud.randint(6, 10)
        angles = [2 * math.pi * (k + cloud.uniform(-0.2, 0.2)) / n for k in range(n)]
        D = pairwise_distances([(math.cos(a), math.sin(a)) for a in angles])
        grades = [0.3, 0.8, 1.2, 1.6]
        cases.append(_core_inputs([core(rips_snapshot(D, g)) for g in grades], grades))
    cases.extend([_mutated(rng, *case) for case in cases for _ in range(3)])
    seen = []
    for inputs in cases:
        for cap in (DEFAULT_EXPANSION_CAP, rng.randint(1, 40)):
            got = _assembly_outcome(_assemble, inputs, cap)
            assert got == _assembly_outcome(naive_assemble_core_tower, inputs, cap), inputs
            seen.append(got[1])
    # successes and both error types are reached
    assert {None, CollapseConsistencyError, ExpansionCapError} <= set(seen)
    assert seen.count(CollapseConsistencyError) > 10


def test_include_path_equals_the_uncollapsed_oracle_cell_for_cell():
    """Full snapshots with identity retractions assemble into exactly the
    uncollapsed pipeline's filtration and tower: the same cells in the same
    order, and only Include ops."""
    rng = random.Random(2026)
    cases = [(pairwise_distances(UNIT_SQUARE), [0.5, 1.0, 1.5])]
    for k in range(40):
        dim = 1 + k % 3
        n = rng.randint(1, 10)
        pts = [tuple(rng.uniform(0, 1) for _ in range(dim)) for _ in range(n)]
        if n > 2 and k % 4 == 0:
            pts[1] = pts[0]  # duplicate points
        if k % 5 == 0:
            pts.append(tuple(9.0 for _ in range(dim)))  # isolated at every grade
        grades = sorted({round(rng.uniform(0.0, 1.2), 2) for _ in range(rng.randint(1, 5))})
        if k % 3 == 0:
            grades[0] = -0.5  # below every distance
        if k % 7 == 0:
            grades = grades[-1:]  # a single grade
        cases.append((pairwise_distances(pts), grades))
    for D, grades in cases:
        snapshots = [rips_snapshot(D, g) for g in grades]
        identities = [RetractionMap({v: v for v in s.vertex_ids}) for s in snapshots]
        tower, filtration = assemble_tower_filtration(snapshots, identities, grades)
        want = run_pipeline(D, grades, collapse=False)
        assert filtration.cells == want.filtration.cells
        assert tower.ops == want.tower.ops
        assert all(isinstance(op, Include) for op in tower.ops)
