import random

import pytest

from ripscollapse import (
    CollapseConsistencyError,
    EmptyComplexError,
    SimplexError,
    collapse,
    core,
    maximal_columns,
    trace_to_text,
)

from oracles import (
    betti_by_rank,
    expand_by_powerset,
    find_dominating_column,
    find_dominating_row,
    maximal_simplices,
    naive_is_face,
    naive_retraction,
    nerve_step,
    random_maximal_simplices,
    replay_trace,
    vertices_of,
)

# the six-vertex complex used throughout: vertices a..f as 0..5,
# maximal simplices sigma_1..sigma_5 as column ids 0..4
FIXTURE = [(1, 2), (1, 4), (0, 1, 3), (3, 4), (4, 5)]


def fixture_columns():
    return maximal_columns(FIXTURE)


def test_core_of_fixture_is_exact():
    columns, retraction, trace = result = core(fixture_columns())
    assert (result.columns, result.retraction, result.trace) == (columns, retraction, trace)
    assert list(columns.items()) == [(1, (1, 4)), (2, (1, 3)), (3, (3, 4))]
    assert list(retraction.items()) == [(0, 1), (1, 1), (2, 1), (3, 3), (4, 4), (5, 4)]
    assert trace.events == (
        ("row", 0, 1),
        ("row", 2, 1),
        ("row", 5, 4),
        ("col", 0, 1),
        ("col", 4, 1),
    )
    assert trace.row_phases + trace.col_phases == 3


def test_core_checks_its_input():
    with pytest.raises(EmptyComplexError):
        core({})
    for cid in (-1, "0", 1.0):
        with pytest.raises(SimplexError, match="column ids"):
            core({cid: (0, 1)})
    for verts in ((), (1, 1), (-1, 2)):
        with pytest.raises(SimplexError):
            core({0: verts})
    # columns are normalised, and maximality is trusted, not checked: a
    # nested column is kept as given
    assert core({5: [2, 0, 1]}).columns == {5: (0,)}
    assert core({0: (0, 1), 1: (0,)}).columns == {0: (0,), 1: (0,)}


def test_retraction_map_validates_fixed_points(monkeypatch):
    compose = collapse._retraction

    def broken(target, events):
        target = compose(target, events)
        target[0] = 1  # 1 is not a fixed point once it is removed in favour of 0
        return target

    assert core({0: (0, 1)}).retraction == {0: 0, 1: 0}
    monkeypatch.setattr(collapse, "_retraction", broken)
    with pytest.raises(CollapseConsistencyError, match="target 1 of vertex 0 is not a fixed point"):
        core({0: (0, 1)})


def test_nerve_step_intermediate():
    n = nerve_step(fixture_columns())
    assert n == {1: (0, 1, 2), 3: (2, 3), 4: (1, 3, 4)}
    assert vertices_of(n) == [0, 1, 2, 3, 4]


def test_two_nerve_steps_reach_the_core():
    m = fixture_columns()
    assert nerve_step(nerve_step(m)) == core(m).columns


def test_core_is_idempotent():
    first = core(fixture_columns())
    second = core(first.columns)
    assert second.columns == first.columns
    assert second.trace.events == ()
    assert all(v == w for v, w in second.retraction.items())


def test_nerve_step_on_core_round_trips():
    c = core(fixture_columns()).columns
    assert nerve_step(nerve_step(c)) == c


def test_retraction_properties():
    m = fixture_columns()
    c, r, _ = core(m)
    assert {v for v, w in r.items() if v == w} == set(vertices_of(c))
    assert list(r) == vertices_of(m)
    for v in r:
        assert r[r[v]] == r[v]


def test_retraction_is_simplicial_and_stepwise_contiguous():
    # Each single removal of a vertex u in favour of w retracts the complex
    # onto a subcomplex while staying contiguous to the identity: at that
    # moment every maximal simplex containing u also contains w.  The fully
    # composed retraction only inherits the chain of such steps, so the
    # one-step property is asserted per event, not for the composite.
    rng = random.Random(4242)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 10), rng.randint(1, 9), 4)
        m = maximal_columns(gen)
        c, r, trace = core(m)
        for s in m.values():
            assert naive_is_face(c.values(), {r[v] for v in s})
        cols = {cid: set(s) for cid, s in m.items()}
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
    m = fixture_columns()
    assert find_dominating_row(m, 0) == 1
    assert find_dominating_row(m, 2) == 1
    assert find_dominating_row(m, 5) == 4
    assert find_dominating_row(m, 1) is None
    assert find_dominating_column(m, 0) is None  # dominated only after row removals


def test_equal_rows_keep_the_smaller_id():
    m = maximal_columns([(0, 1)])
    assert find_dominating_row(m, 1) == 0
    assert find_dominating_row(m, 0) is None
    assert core(m).columns == {0: (0,)}


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
        m = maximal_columns(gen)
        result = core(m)
        dominator = {x: y for kind, x, y in result.trace.events if kind == "row"}
        assert result.retraction == naive_retraction(vertices_of(m), dominator)
        chained += sum(result.retraction[x] != y for x, y in dominator.items())
    assert chained > 100


def test_replay_trace_reproduces_the_core():
    m = fixture_columns()
    c, _, trace = core(m)
    assert replay_trace(m, trace.events) == c
    assert replay_trace(m, trace.events, check=True) == c


def test_replay_rejects_tampered_events():
    m = fixture_columns()
    _, _, trace = core(m)
    bad = (("row", 1, 0),) + trace.events[1:]
    with pytest.raises(CollapseConsistencyError):
        replay_trace(m, bad, check=True)
    with pytest.raises(CollapseConsistencyError):
        replay_trace(m, trace.events + (("row", 0, 1),))


def test_trace_text_round_trip():
    _, _, trace = core(fixture_columns())
    assert trace_to_text(trace) == "r 0 1\nr 2 1\nr 5 4\nc 0 1\nc 4 1\n"


def test_core_preserves_betti_numbers():
    rng = random.Random(2718)
    for _ in range(60):
        gen = random_maximal_simplices(rng, rng.randint(1, 10), rng.randint(1, 9), 4)
        m = maximal_columns(gen)
        c = core(m).columns
        full = betti_by_rank(expand_by_powerset(maximal_simplices(m)))
        small = betti_by_rank(expand_by_powerset(maximal_simplices(c)))
        width = max(len(full), len(small))
        assert full + (0,) * (width - len(full)) == small + (0,) * (width - len(small))


def test_work_counters_are_recorded():
    _, _, trace = core(fixture_columns())
    n, m = 6, 5
    assert trace.row_phases >= 1 and trace.col_phases >= 1
    rounds = trace.row_phases + trace.col_phases
    assert trace.row_candidate_tests >= n  # first phase examines every row
    assert trace.col_candidate_tests >= 1
    # each domination test compares against at most d+1 candidates of one column
    assert trace.row_candidate_tests <= rounds * n * m
    assert trace.col_candidate_tests <= rounds * n * m
