"""Exact maximum bipartite matching via augmenting paths."""

import itertools

import numpy as np
import pytest

from oracles import recursive_bipartite_matching
from relaysim.matching import max_bipartite_matching


def brute_force_size(adjacency, n_right):
    """Maximum matching size by trying every left-to-right assignment."""
    best = 0
    n_left = len(adjacency)
    for rights in itertools.product(*([list(a) + [None] for a in adjacency]
                                      or [[None]])):
        used = [r for r in rights if r is not None]
        if len(set(used)) == len(used):
            best = max(best, len(used))
    return best if n_left else 0


def test_perfect_matching():
    match, size = max_bipartite_matching([[0], [1], [2]], 3)
    assert size == 3
    assert sorted(match) == [0, 1, 2]


def test_unmatchable_left_vertex():
    match, size = max_bipartite_matching([[0], []], 2)
    assert size == 1
    assert match[0] == 0 and match[1] == -1


def test_augmenting_path_beats_greedy():
    # greedy gives 1 (left 0 grabs right 0, left 1 stuck); augmenting gives 2
    match, size = max_bipartite_matching([[0, 1], [0]], 2)
    assert size == 2
    assert match[0] == 1 and match[1] == 0


def test_matching_is_valid_assignment():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n_left = int(rng.integers(0, 7))
        n_right = int(rng.integers(1, 7))
        adjacency = [list(np.flatnonzero(rng.random(n_right) < 0.4))
                     for _ in range(n_left)]
        match, size = max_bipartite_matching(adjacency, n_right)
        matched = [m for m in match if m >= 0]
        assert len(matched) == size
        assert len(set(matched)) == len(matched)          # no right reused
        for left, m in enumerate(match):
            assert m == -1 or m in adjacency[left]        # edges respected


def test_matching_size_is_maximum():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n_left = int(rng.integers(0, 6))
        n_right = int(rng.integers(1, 6))
        adjacency = [list(np.flatnonzero(rng.random(n_right) < 0.5))
                     for _ in range(n_left)]
        _, size = max_bipartite_matching(adjacency, n_right)
        assert size == brute_force_size(adjacency, n_right)


def random_graph(rng, max_left, max_right):
    """Adjacency lists with a random density, each list in a random order."""
    n_left = int(rng.integers(0, max_left + 1))
    n_right = int(rng.integers(1, max_right + 1))
    density = rng.random()
    return [[v for v in rng.permutation(n_right).tolist() if rng.random() < density]
            for _ in range(n_left)], n_right


def test_matching_equals_the_recursive_search():
    # same visiting order, so the same matching, not only the same size
    rng = np.random.default_rng(16)
    graphs = [random_graph(rng, 12, 12) for _ in range(1000)]
    graphs += [random_graph(rng, 80, 60) for _ in range(40)]
    graphs += [([list(range(n))] * n, n) for n in (1, 2, 7, 300)]
    for adjacency, n_right in graphs:
        assert (max_bipartite_matching(adjacency, n_right)
                == recursive_bipartite_matching(adjacency, n_right))


def test_an_augmenting_path_of_1500_steps_needs_no_recursion():
    # a complete 1,500 x 1,500 graph: left u < n - 1 lists the rights from u
    # on, so it takes right u; the last left lists 0 first, and its path runs
    # through every other left vertex, each moving from right u to u + 1
    n = 1500
    adjacency = [list(range(u, n)) + list(range(u)) for u in range(n - 1)]
    adjacency.append(list(range(n)))
    with pytest.raises(RecursionError):
        recursive_bipartite_matching(adjacency, n)
    assert max_bipartite_matching(adjacency, n) == (list(range(1, n)) + [0], n)


def hall_matchable(adjacency, lefts):
    """Whether some matching covers every left vertex in lefts, by Hall's
    condition over all of their subsets."""
    return all(len(set().union(*(adjacency[u] for u in subset))) >= size
               for size in range(1, len(lefts) + 1)
               for subset in itertools.combinations(lefts, size))


def test_matched_left_vertices_are_the_greedy_matchable_subset():
    # Kuhn's algorithm never unmatches a left vertex, and it matches u iff
    # the vertices matched so far plus u can all be matched together
    rng = np.random.default_rng(18)
    for _ in range(400):
        adjacency, n_right = random_graph(rng, 7, 7)
        greedy = []
        for u in range(len(adjacency)):
            if hall_matchable(adjacency, greedy + [u]):
                greedy.append(u)
        match, size = max_bipartite_matching(adjacency, n_right)
        assert [u for u, v in enumerate(match) if v >= 0] == greedy
        assert size == len(greedy)


def test_complete_graph_matches_every_left_vertex():
    # the fixed baseline's full-reach frames: every pending packet (at most
    # N of them) has an edge to every subcarrier
    rng = np.random.default_rng(19)
    for n_right in range(1, 9):
        for n_left in range(n_right + 1):
            adjacency = [rng.permutation(n_right).tolist() for _ in range(n_left)]
            match, size = max_bipartite_matching(adjacency, n_right)
            assert size == n_left
            assert min(match, default=0) >= 0 and len(set(match)) == n_left
