import random

import pytest

from ripscollapse import (
    CollapseConsistencyError,
    ComplexMatrix,
    RetractionMap,
    core,
    trace_to_text,
)

from oracles import (
    betti_by_rank,
    expand_by_powerset,
    find_dominating_column,
    find_dominating_row,
    naive_is_face,
    naive_retraction,
    nerve_step,
    random_maximal_simplices,
    replay_trace,
)

# the six-vertex complex used throughout: vertices a..f as 0..5,
# maximal simplices sigma_1..sigma_5 as column ids 0..4
FIXTURE = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]


def fixture_matrix():
    return ComplexMatrix.from_simplex_list(FIXTURE)


def test_core_of_fixture_is_exact():
    matrix, retraction, trace = core(fixture_matrix())
    assert matrix.columns_sorted() == [(1, (1, 4)), (2, (1, 3)), (3, (3, 4))]
    assert matrix.vertex_ids == (1, 3, 4)
    assert retraction.target == {0: 1, 1: 1, 2: 1, 3: 3, 4: 4, 5: 4}
    assert trace.events == (
        ("row", 0, 1),
        ("row", 2, 1),
        ("row", 5, 4),
        ("col", 0, 1),
        ("col", 4, 1),
    )
    assert trace.row_phases + trace.col_phases == 3


def test_nerve_step_intermediate():
    n = nerve_step(fixture_matrix())
    assert n == ComplexMatrix.from_columns(
        {1: (0, 1, 2), 3: (2, 3), 4: (1, 3, 4)}
    )
    assert n.vertex_ids == (0, 1, 2, 3, 4)


def test_two_nerve_steps_reach_the_core():
    m = fixture_matrix()
    assert nerve_step(nerve_step(m)) == core(m).matrix


def test_core_is_idempotent():
    first = core(fixture_matrix())
    second = core(first.matrix)
    assert second.matrix == first.matrix
    assert second.trace.events == ()
    assert all(v == w for v, w in second.retraction.target.items())


def test_nerve_step_on_core_round_trips():
    c = core(fixture_matrix()).matrix
    assert nerve_step(nerve_step(c)) == c


def test_retraction_properties():
    m = fixture_matrix()
    _, r, _ = core(m)
    cvs = set(core(m).matrix.vertex_ids)
    assert {v for v, w in r.target.items() if v == w} == cvs
    for v in m.vertex_ids:
        assert r.target[r.target[v]] == r.target[v]


def test_retraction_is_simplicial_and_stepwise_contiguous():
    # Each single removal of a vertex u in favour of w retracts the complex
    # onto a subcomplex while staying contiguous to the identity: at that
    # moment every maximal simplex containing u also contains w.  The fully
    # composed retraction only inherits the chain of such steps, so the
    # one-step property is asserted per event, not for the composite.
    rng = random.Random(4242)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 10), rng.randint(1, 9), 4)
        m = ComplexMatrix.from_simplex_list(gen)
        c, r, trace = core(m)
        for _, s in m.columns_sorted():
            assert naive_is_face(c.maximal_simplices(), {r.target[v] for v in s})
        cols = {cid: set(s) for cid, s in m.columns_sorted()}
        for kind, removed, by in trace.events:
            if kind == "row":
                for members in cols.values():
                    if removed in members:
                        assert by in members
                        members.discard(removed)
            else:
                assert cols[removed] <= cols[by]
                del cols[removed]


def test_domination_lookups():
    m = fixture_matrix()
    assert find_dominating_row(m, 0) == 1
    assert find_dominating_row(m, 2) == 1
    assert find_dominating_row(m, 5) == 4
    assert find_dominating_row(m, 1) is None
    assert find_dominating_column(m, 0) is None  # dominated only after row removals


def test_equal_rows_keep_the_smaller_id():
    m = ComplexMatrix.from_simplex_list([(0, 1)])
    assert find_dominating_row(m, 1) == 0
    assert find_dominating_row(m, 0) is None
    c = core(m).matrix
    assert c.vertex_ids == (0,)
    assert c.columns_sorted() == [(0, (0,))]


def test_retraction_map_validates_fixed_points():
    with pytest.raises(CollapseConsistencyError):
        RetractionMap({0: 1, 1: 2, 2: 2})  # target 1 is itself moved to 2


def test_retraction_follows_the_dominator_chains():
    # the judge: a chain as long as the map is no cycle, and a cycle raises
    assert naive_retraction([0, 1, 2, 3], {0: 1, 1: 2, 2: 3}) == {0: 3, 1: 3, 2: 3, 3: 3}
    for dominator in ({0: 1, 1: 0}, {0: 0}, {0: 1, 1: 2, 2: 1}):
        with pytest.raises(CollapseConsistencyError, match="cycle"):
            naive_retraction([0, 1, 2], dominator)
    rng = random.Random(1414)
    chained = 0  # removed vertices whose dominator was removed later
    for _ in range(1200):
        gen = random_maximal_simplices(rng, rng.randint(1, 12), rng.randint(1, 10), 5)
        m = ComplexMatrix.from_simplex_list(gen)
        result = core(m)
        dominator = {x: y for kind, x, y in result.trace.events if kind == "row"}
        assert result.retraction.target == naive_retraction(m.vertex_ids, dominator)
        chained += sum(result.retraction.target[x] != y for x, y in dominator.items())
    assert chained > 100


def test_replay_trace_reproduces_the_core():
    m = fixture_matrix()
    c, _, trace = core(m)
    assert replay_trace(m, trace.events) == c
    assert replay_trace(m, trace.events, check=True) == c


def test_replay_rejects_tampered_events():
    m = fixture_matrix()
    _, _, trace = core(m)
    bad = (("row", 1, 0),) + trace.events[1:]
    with pytest.raises(CollapseConsistencyError):
        replay_trace(m, bad, check=True)
    with pytest.raises(CollapseConsistencyError):
        replay_trace(m, trace.events + (("row", 0, 1),))


def test_trace_text_round_trip():
    _, _, trace = core(fixture_matrix())
    assert trace_to_text(trace) == "r 0 1\nr 2 1\nr 5 4\nc 0 1\nc 4 1\n"


def test_core_preserves_betti_numbers():
    rng = random.Random(2718)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 10), rng.randint(1, 9), 4)
        m = ComplexMatrix.from_simplex_list(gen)
        c = core(m).matrix
        full = betti_by_rank(expand_by_powerset(m.maximal_simplices()))
        small = betti_by_rank(expand_by_powerset(c.maximal_simplices()))
        width = max(len(full), len(small))
        assert full + (0,) * (width - len(full)) == small + (0,) * (width - len(small))


def test_work_counters_are_recorded():
    _, _, trace = core(fixture_matrix())
    n, m = 6, 5
    assert trace.row_phases >= 1 and trace.col_phases >= 1
    rounds = trace.row_phases + trace.col_phases
    assert trace.row_candidate_tests >= n  # first phase examines every row
    assert trace.col_candidate_tests >= 1
    # each domination test compares against at most d+1 candidates of one column
    assert trace.row_candidate_tests <= rounds * n * m
    assert trace.col_candidate_tests <= rounds * n * m
