"""Bottleneck distance against exhaustive matching enumeration."""

import math
import random
import sys

from oracles import brute_bottleneck
from ripscollapse.persistence import PersistenceDiagram, _hopcroft_karp, bottleneck_distance


def _diagram(dim, points, essentials=()):
    pairs = [(dim, b, d) for b, d in points]
    pairs += [(dim, b, math.inf) for b in essentials]
    return PersistenceDiagram.from_pairs(pairs)


def test_identical_diagrams_have_distance_zero():
    d = _diagram(1, [(0.2, 0.9), (0.1, 0.4)], essentials=[0.3])
    assert bottleneck_distance(d, d, 1) == 0.0


def test_single_point_against_empty_matches_diagonal():
    a = _diagram(0, [(0.0, 1.0)])
    b = _diagram(0, [])
    assert bottleneck_distance(a, b, 0) == 0.5
    assert bottleneck_distance(b, a, 0) == 0.5


def test_two_point_hand_example():
    a = _diagram(1, [(0.0, 1.0), (0.0, 0.25)])
    b = _diagram(1, [(0.0, 1.25)])
    # the long bars match (cost 0.25); the short bar folds onto the diagonal
    assert bottleneck_distance(a, b, 1) == 0.25


def test_essential_count_mismatch_is_infinite():
    a = _diagram(0, [], essentials=[0.0, 0.0])
    b = _diagram(0, [], essentials=[0.0])
    assert bottleneck_distance(a, b, 0) == math.inf


def test_essential_births_pair_up_sorted():
    a = _diagram(0, [], essentials=[0.0, 1.0])
    b = _diagram(0, [], essentials=[0.125, 0.75])
    assert bottleneck_distance(a, b, 0) == 0.25


def test_dimensions_are_independent():
    a = PersistenceDiagram.from_pairs([(0, 0.0, math.inf), (1, 0.5, 2.0)])
    b = PersistenceDiagram.from_pairs([(0, 0.0, math.inf)])
    assert bottleneck_distance(a, b, 0) == 0.0
    assert bottleneck_distance(a, b, 1) == 0.75


def test_matches_exhaustive_enumeration():
    rng = random.Random(1234)
    for _ in range(60):
        def some_points():
            pts = []
            for _ in range(rng.randint(0, 5)):
                b = round(rng.uniform(0.0, 1.0), 3)
                pts.append((b, round(b + rng.uniform(0.0, 1.0), 3)))
            return pts

        a_pts, b_pts = some_points(), some_points()
        a, b = _diagram(2, a_pts), _diagram(2, b_pts)
        got = bottleneck_distance(a, b, 2)
        want = brute_bottleneck(a_pts, b_pts)
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)
        assert bottleneck_distance(b, a, 2) == got


def test_recursion_limit_is_left_alone():
    limit = sys.getrecursionlimit()
    a = _diagram(1, [(i, i + 10.0) for i in range(150)])
    b = _diagram(1, [(i + 0.125, i + 10.125) for i in range(150)])
    assert bottleneck_distance(a, b, 1) == 0.125
    assert sys.getrecursionlimit() == limit


def test_matching_follows_augmenting_paths_deeper_than_the_recursion_limit():
    # greedy phase one matches u_i to v_(i+1), leaving u_(n-1) free; the only
    # augmenting path then walks the whole chain back to v_0
    n = 3 * sys.getrecursionlimit()
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    limit = sys.getrecursionlimit()
    assert _hopcroft_karp(adj, n, n) == n
    assert sys.getrecursionlimit() == limit
