"""Maximum bipartite matching by augmenting paths (Kuhn's algorithm).

The genie-aided fixed baseline runs it on the relay frames where some
subcarrier misses a pending packet, to assign packets (left, at most N) to
subcarriers (right); a frame where every subcarrier reaches every pending
packet delivers them all without it. The caller lists packet i's edges from
subcarrier i on, wrapping round: the matched set does not depend on edge
order, and on a near-complete graph most packets then match at their first
edge, where the natural order walks an augmenting path through every packet
before them, about N^3/6 edge visits in all. The search is iterative, with an
explicit stack, so an augmenting path may be longer than Python's recursion
limit (about 1,000 calls) allows.
"""

from __future__ import annotations


def max_bipartite_matching(adjacency, n_right: int):
    """Maximum matching for left vertices with the given adjacency lists.

    adjacency: sequence over left vertices of iterables of right-vertex ids.
    Returns (match_left, size): match_left[u] is the right vertex matched to
    left vertex u, or -1 if u is unmatched. Left vertices are tried in order,
    each one's edges in the order given, depth first.
    """
    n_left = len(adjacency)
    match_right = [-1] * n_right
    size = 0
    for root in range(n_left):
        seen = [False] * n_right
        # the search stack: lefts[k] with its untried edges[k]; path[k] is the
        # right vertex through which lefts[k + 1] was entered
        lefts, edges, path = [root], [iter(adjacency[root])], []
        while edges:
            for v in edges[-1]:
                if not seen[v]:
                    seen[v] = True
                    break
            else:    # every edge tried: back up to the parent
                lefts.pop()
                edges.pop()
                if path:
                    path.pop()
                continue
            path.append(v)
            u = match_right[v]
            if u < 0:    # a free right vertex: flip the path
                for w, x in zip(path, lefts):
                    match_right[w] = x
                size += 1
                break
            lefts.append(u)
            edges.append(iter(adjacency[u]))
    match_left = [-1] * n_left
    for v, u in enumerate(match_right):
        if u >= 0:
            match_left[u] = v
    return match_left, size
