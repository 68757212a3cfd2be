"""Tower assembly from cores, and the coning that turns a tower into a filtration."""

import math
import random

import pytest
from oracles import (
    TowerOpError,
    maximal_simplices,
    naive_assemble_core_tower,
    naive_check_filtration,
    naive_persistence,
    naive_tower_to_filtration,
    naive_validate_tower,
    rips_snapshot,
)

from ripscollapse.collapse import core
from ripscollapse.complexes import DEFAULT_EXPANSION_CAP, maximal_columns
from ripscollapse.errors import (
    CollapseConsistencyError,
    EmptyComplexError,
    ExpansionCapError,
    FiltrationOrderError,
    SimplexError,
)
from ripscollapse.io_formats import write_tower
from ripscollapse.persistence import BoundaryMatrix, _diagram, compute_persistence
from ripscollapse.pipeline import run_pipeline
from ripscollapse.rips import flag_core, graded_bitsets, pairwise_distances
from ripscollapse.tower import Contract, Include, _Complex, assemble_tower

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

TABLE_COLUMNS = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]


def _assemble(cores, retractions, grades, cap=DEFAULT_EXPANSION_CAP):
    """The assembled tower, once its filtration is checked for face-first
    order and against the whole-complex coning of that tower, and the
    boundary index built with it against the one built from its cells."""
    tower, matrix = assemble_tower(cores, retractions, grades, cap)
    naive_check_filtration(tower.cells)
    assert tower.cells == naive_tower_to_filtration(tower)
    assert matrix == BoundaryMatrix.from_filtration(tower.cells)
    diagram = _diagram(matrix)
    assert diagram == compute_persistence(tower.cells)
    assert list(diagram.pairs) == naive_persistence(tower.cells)
    return tower


def _core_inputs(results, grades):
    """Assembly inputs from ``core`` results: each core's maximal simplices,
    and its retraction as a list indexed by point."""
    retractions = []
    for res in results:
        target = res.retraction
        retractions.append([target.get(p, p) for p in range(max(target) + 1)])
    return [maximal_simplices(res.columns) for res in results], retractions, grades


def _flag_inputs(results, grades):
    """Assembly inputs from ``flag_core`` results, as ``run_pipeline`` passes them."""
    return [res.cliques for res in results], [res.retraction for res in results], grades


def _pipeline_inputs(points, grades):
    D = pairwise_distances(points)
    return _core_inputs([core(rips_snapshot(D, g)) for g in grades], grades)


def test_single_snapshot_tower_is_expanded_core():
    res = core(maximal_columns(TABLE_COLUMNS))
    tower = _assemble(*_core_inputs([res], [0.0]))
    assert tuple(tower) == (
        Include((1,), 0.0),
        Include((3,), 0.0),
        Include((4,), 0.0),
        Include((1, 3), 0.0),
        Include((1, 4), 0.0),
        Include((3, 4), 0.0),
    )
    naive_validate_tower(tower)


def test_identical_snapshots_add_no_ops():
    res = core(maximal_columns(TABLE_COLUMNS))
    tower = _assemble(*_core_inputs([res, res], [0.0, 1.0]))
    assert all(op.grade == 0.0 for op in tower)
    assert len(tower) == 6


def test_unit_square_tower_ops():
    tower = _assemble(*_pipeline_inputs(UNIT_SQUARE, [0.5, 1.0, 1.5]))
    assert tuple(tower) == (
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
    tower = _assemble([[(0,)], [(1,)]], [[0], [1, 1, 1]], [0.0, 1.0])
    assert tuple(tower) == (
        Include((0,), 0.0),
        Include((1,), 1.0),
        Contract(0, 1, 1.0),
    )
    naive_validate_tower(tower)


def test_returning_point_id_gets_a_fresh_tower_id():
    # point 1 is contracted away at grade 1 and reappears in the last core;
    # its id may not be reused, so the tower shows a brand-new vertex instead
    cores = [[(0,), (1,)], [(0,)], [(0,), (1,)]]
    tower = _assemble(cores, [[0, 1], [0, 0], [0, 1]], [0.0, 1.0, 2.0])
    assert tuple(tower) == (
        Include((0,), 0.0),
        Include((1,), 0.0),
        Contract(1, 0, 1.0),
        Include((2,), 2.0),
    )
    diagram = compute_persistence(tower.cells)
    assert diagram.pairs == ((0, 0.0, 1.0), (0, 0.0, math.inf), (0, 2.0, math.inf))


def test_assemble_input_validation():
    with pytest.raises(ValueError):
        assemble_tower([[(0, 1)]], [[0, 1], [0, 1]], [0.0])
    with pytest.raises(ValueError):
        assemble_tower([], [], [])
    with pytest.raises(ValueError):
        assemble_tower([[(0, 1)], [(0, 1)]], [[0, 1], [0, 1]], [1.0, 1.0])
    with pytest.raises(EmptyComplexError, match="needs a maximal simplex"):
        assemble_tower([[(0, 1)], []], [[0, 1], [0, 1]], [0.0, 1.0])
    with pytest.raises(SimplexError, match="repeats a vertex"):
        assemble_tower([[(0, 1, 1)]], [[0, 1]], [0.0])
    with pytest.raises(ValueError, match="snapshot grades must be finite"):
        assemble_tower([[(0,)]], [[0]], [math.inf])
    with pytest.raises(ValueError, match="snapshot grades must be finite"):
        assemble_tower([[(0,)], [(0,)]], [[0], [0]], [0.0, math.nan])


def test_assemble_rejects_retraction_missing_a_point():
    # point 7 of the first core lies past the end of the second retraction
    with pytest.raises(CollapseConsistencyError, match="send point 7 into its core"):
        assemble_tower([[(7,)], [(5,)]], [list(range(8)), [5] * 6], [0.0, 1.0])


def test_assemble_rejects_retraction_onto_a_point_outside_the_next_core():
    cores = [[(0, 1)], [(1, 2)]]
    for image in (3, 99, -1):
        retractions = [[0, 1], [image, 1, 2, 3]]
        with pytest.raises(CollapseConsistencyError, match="send point 0 into its core"):
            assemble_tower(cores, retractions, [0.0, 1.0])


def test_assemble_rejects_contracted_cell_missing_from_the_next_core():
    # the edge 01 retracts onto 12, but the next core is two loose vertices
    with pytest.raises(CollapseConsistencyError, match=r"cell \(1, 2\) is not in the next core"):
        assemble_tower([[(0, 1)], [(1,), (2,)]], [[0, 1], [2, 1, 2]], [0.0, 1.0])


def test_assemble_rejects_a_filled_triangle_mapped_into_a_hollow_one():
    # The next core holds the triangle's three edges but not the triangle:
    # its vertices are pairwise adjacent, so only a containment test in the
    # maximal simplices sees that the image is not a face.
    hollow = [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(CollapseConsistencyError, match=r"\(0, 1, 2\) is not in the next core"):
        assemble_tower([[(0, 1, 2)], hollow], [[0, 1, 2], [0, 1, 2]], [0.0, 1.0])
    # the image of each edge is an edge of the hollow triangle
    tower = _assemble([hollow, hollow], [[0, 1, 2], [0, 1, 2]], [0.0, 1.0])
    assert len(tower.cells) == 6 and tower.contractions == ()


def test_assemble_rejects_a_core_vertex_the_retraction_does_not_reach():
    # core vertex 9 lies past the end of the retraction, and -1 is no point
    for core_j in ([(0,), (9,)], [(-1, 0)]):
        with pytest.raises(CollapseConsistencyError, match="does not fix core vertex"):
            assemble_tower([[(0,)], core_j], [[0], [0]], [0.0, 1.0])


def test_assemble_rejects_retraction_that_merges_core_vertices():
    # Sending live core vertex a to core vertex b is a valid retraction, but
    # assembling it would contract a and then include cells on the dead id a.
    for seed in range(6):
        cores, retractions, grades = _flag_core_inputs(seed)
        j = 1
        live = {q for s in cores[j - 1] for q in s}
        vertices = sorted({q for s in cores[j] for q in s})
        a = next(q for q in vertices if q in live)
        b = next(q for q in vertices if q != a)
        merged = list(retractions)
        merged[j] = [b if w == a else w for w in retractions[j]]
        with pytest.raises(CollapseConsistencyError, match=f"does not fix core vertex {a}"):
            assemble_tower(cores, merged, grades)


def test_tower_validate_rejects_bad_ops():
    for ops in (
        (Include((0,), 1.0), Include((1,), 0.0)),
        (Include((0,), 0.0), Include((0,), 0.0)),
        (Include((0,), 0.0), Contract(0, 0, 1.0)),
        (Include((0,), 0.0), Contract(1, 0, 1.0)),
        (Include((0, 1), 0.0), Contract(0, 1, 1.0), Contract(0, 1, 2.0)),
    ):
        with pytest.raises(TowerOpError):
            naive_validate_tower(ops)


def test_includes_only_tower_converts_verbatim():
    tower = (Include((2, 5), 0.0), Include((7,), 1.5))
    f = naive_tower_to_filtration(tower)
    assert f == (((2,), 0.0), ((5,), 0.0), ((2, 5), 0.0), ((7,), 1.5))
    naive_check_filtration(f)


def test_contract_of_dominated_edge_needs_no_cone_cells():
    tower = (Include((0, 1), 0.0), Contract(0, 1, 1.0))
    f = naive_tower_to_filtration(tower)
    assert f == (((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0))
    diagram = compute_persistence(f, include_zero_pairs=True)
    assert diagram.pairs == ((0, 0.0, 0.0), (0, 0.0, math.inf))


def test_coning_adds_the_closed_star_with_the_new_apex():
    tower = (Include((0, 1, 2), 0.0), Include((3,), 0.0), Contract(0, 3, 1.0))
    f = naive_tower_to_filtration(tower)
    added = [(s, g) for s, g in f if g == 1.0]
    assert added == [
        ((0, 3), 1.0),
        ((1, 3), 1.0),
        ((2, 3), 1.0),
        ((0, 1, 3), 1.0),
        ((0, 2, 3), 1.0),
        ((1, 2, 3), 1.0),
        ((0, 1, 2, 3), 1.0),
    ]
    naive_check_filtration(f)
    diagram = compute_persistence(f)
    assert diagram.pairs == ((0, 0.0, 1.0), (0, 0.0, math.inf))


def test_include_after_contract_is_rewritten_through_the_alias():
    tower = (Include((0, 1), 0.0), Contract(0, 1, 1.0), Include((0, 2), 2.0))
    f = naive_tower_to_filtration(tower)
    assert f == (
        ((0,), 0.0),
        ((1,), 0.0),
        ((0, 1), 0.0),
        ((2,), 2.0),
        ((1, 2), 2.0),
    )
    naive_check_filtration(f)


def test_contract_resolving_to_itself_is_a_no_op():
    tower = (Include((0, 1), 0.0), Contract(0, 1, 1.0), Contract(1, 0, 2.0))
    f = naive_tower_to_filtration(tower)
    assert f == (((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0))


def test_contract_of_unknown_vertex_is_rejected():
    tower = (Include((0, 1), 0.0), Contract(9, 0, 1.0))
    with pytest.raises(TowerOpError):
        naive_tower_to_filtration(tower)
    tower = (Include((0, 1), 0.0), Contract(0, 9, 1.0))
    with pytest.raises(TowerOpError):
        naive_tower_to_filtration(tower)


def test_a_cell_emitted_before_its_face_is_rejected():
    """The builder the tower emits into checks each cell as
    ``from_filtration`` does: faces first, no repeat, no empty simplex, and
    grades that never fall (a NaN falls)."""
    for cell, message in (
        (((0, 2), 1.0), r"cell \(0, 2\) is missing face \(2,\)"),
        (((0, 1), 1.0), r"^duplicate cell \(0, 1\)"),
        (((), 1.0), r"^the empty simplex is not a cell"),
        (((2,), math.nan), r"cell \(2,\) has grade nan, not at or above its predecessor's 0.0"),
        (((2,), -1.0), r"cell \(2,\) has grade -1.0, not at or above its predecessor's 0.0"),
    ):
        index = _Complex().index
        index.emit([((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)])
        with pytest.raises(FiltrationOrderError, match=message) as e:
            index.emit([cell])
        assert e.value.cell_index == 3


def test_every_tower_prefix_stays_downward_closed():
    tower, _ = assemble_tower(*_pipeline_inputs(UNIT_SQUARE, [0.5, 1.0, 1.5]))
    naive_check_filtration(tower.cells)


def test_conversion_matches_uncollapsed_pipeline_on_random_clouds():
    """Towers of ``core`` and ``flag_core`` cores reduce to the uncollapsed
    diagram, through the index built at assembly and through the one built
    from the cells, also with duplicate points and grades equal to edge
    lengths (lattice points)."""
    rng = random.Random(2025)
    clouds = []
    for _ in range(10):
        n = rng.randint(2, 8)
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
        clouds.append((pts, [0.3, 0.8, 1.4]))
    for k in range(12):
        pts = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(3, 9))]
        pts[1] = pts[0]
        clouds.append((pts, [0.0, 1.0, 2.0] if k % 2 else [1.0, 2.0**0.5, 2.0]))
    ties = 0
    for pts, grades in clouds:
        D = pairwise_distances(pts)
        ties += sum(g in D for g in grades)
        want = run_pipeline(D, grades, collapse=False).diagram
        tower = _assemble(*_pipeline_inputs(pts, grades))
        naive_validate_tower(tower)
        assert compute_persistence(tower.cells).pairs == want.pairs
        flag_inputs = _flag_inputs([flag_core(adj) for adj in graded_bitsets(D, grades)], grades)
        naive_validate_tower(_assemble(*flag_inputs))
        assert run_pipeline(D, grades).diagram.pairs == want.pairs
    assert ties > 0


def _flag_core_inputs(seed):
    """Cores, retractions and grades as ``run_pipeline`` builds them, with
    ``flag_core`` on every snapshot of a seeded cloud."""
    cloud = random.Random(seed)
    dim = 2 + seed % 2
    pts = [tuple(cloud.uniform(0, 1) for _ in range(dim)) for _ in range(cloud.randint(10, 24))]
    D = pairwise_distances(pts)
    grades = [0.1, 0.25, 0.4, 0.55]
    return _flag_inputs([flag_core(adj) for adj in graded_bitsets(D, grades)], grades)


def _mutated(rng, cores, retractions, grades):
    """The inputs with one retraction changed, keeping it a retraction onto
    the same core: a point on an edge of the previous core that the snapshot
    removes sent to another core vertex, the list cut short, or a class sent
    to a point outside every core."""
    moves = [
        (j, p)
        for j in range(1, len(cores))
        for s in cores[j - 1]
        if len(s) > 1
        for p in s
        if retractions[j][p] != p
    ]
    kind = rng.randrange(0 if moves else 1, 3)
    j, p = rng.choice(moves) if kind == 0 else (rng.randrange(1, len(cores)), None)
    target = list(retractions[j])
    a = rng.choice([w for q, w in enumerate(target) if q == w])
    if kind == 0:
        target[p] = a
    elif kind == 1:
        del target[rng.randrange(len(target)) :]
    else:
        target = [1000 if w == a else w for w in target]
        target.extend(range(len(target), 1001))
    retractions = list(retractions)
    retractions[j] = target
    return cores, retractions, grades


def _assembly_outcome(fn, inputs, cap):
    """(ops, None) or (None, error type) of one assembly."""
    try:
        return tuple(fn(*inputs, cap)), None
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
        snapshots = [maximal_simplices(rips_snapshot(D, g)) for g in grades]
        identities = [list(range(len(D)))] * len(grades)
        tower, _ = assemble_tower(snapshots, identities, grades)
        want = run_pipeline(D, grades, collapse=False)
        assert tower.cells == want.filtration
        assert tuple(tower) == tuple(want.tower)
        assert all(isinstance(op, Include) for op in tower)


def _derived_tower_cases():
    """``run_pipeline`` results on seeded clouds, with and without collapse."""
    rng = random.Random(16)
    for k in range(12):
        dim = 2 + k % 2
        pts = [tuple(rng.uniform(0, 1) for _ in range(dim)) for _ in range(rng.randint(10, 16))]
        D = pairwise_distances(pts)
        for collapse in (True, False):
            yield run_pipeline(D, [0.15, 0.3, 0.45, 0.6, 0.75], collapse=collapse)


def test_derived_tower_replays_to_its_filtration():
    cone_sizes = set()
    for result in _derived_tower_cases():
        tower = result.tower
        assert result.filtration is tower.cells
        assert len(tower) == sum(1 for _ in tower)
        naive_validate_tower(tower)
        assert naive_tower_to_filtration(tower) == result.filtration
        ops = tuple(tower)
        assert sum(isinstance(op, Contract) for op in ops) == len(tower.contractions)
        cone_sizes.update(stop - start for start, stop, *_ in tower.contractions)
    # empty cones, and cones of one cell and of several
    assert {0, 1} < cone_sizes


def test_contraction_with_an_empty_cone_is_still_an_op():
    # 1 dominates 0 in the edge 01, so contracting 0 into 1 adds no cell
    tower = _assemble([[(0, 1)], [(1,)]], [[0, 1], [1, 1]], [0.0, 1.0])
    assert tower.contractions == ((3, 3, 0, 1, 1.0),)
    assert len(tower) == 4
    assert tuple(tower) == (
        Include((0,), 0.0),
        Include((1,), 0.0),
        Include((0, 1), 0.0),
        Contract(0, 1, 1.0),
    )
    assert write_tower(tower) == "# tower 1\ni 0.0 0\ni 0.0 1\ni 0.0 0 1\nc 1.0 0 1\n"


def test_ops_are_built_only_while_the_tower_is_iterated(monkeypatch):
    made = []
    for cls in (Include, Contract):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            made.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    rng = random.Random(17)
    D = pairwise_distances([(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(20)])
    for collapse in (True, False):
        result = run_pipeline(D, [0.2, 0.35, 0.5], collapse=collapse)
        assert made == []
        assert len(result.tower) > 0 and made == []
        for _ in result.tower:
            pass
        assert len(made) == len(result.tower)
        assert made.count("Contract") == len(result.tower.contractions)
        assert (made.count("Contract") > 0) == collapse
        made.clear()
