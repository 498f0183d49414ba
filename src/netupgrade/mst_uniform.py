"""Half-approximation for the uniform-cost improvable maximum spanning tree.

One candidate tree: the size-capped greedy forest F_k on improved lengths,
extended to a spanning tree by base edges.  On rising two-level ladders it
is at least l1(F_k), and at least l0(T_base) for the base-length maximum
spanning tree T_base (F_k outweighs the T_base edges it displaces, and the
fill completes it best).  OPT(k) <= l0(T_base) + l1(F_k), so it is at least
OPT(k) / 2.  The ladder check and the two edge orders Kruskal reads do not
depend on k, so each is kept in the graph's memo, as is ``base_tree``, the
randomized solver's fallback.
"""

from __future__ import annotations

from typing import Sequence

from ._util import kruskal
from .instances import (
    DisconnectedGraphError,
    TreeSolution,
    UpgradableGraph,
    _memo,
    require_valid,
    solution_from_choices,
)

# weighted edges are (edge_id, u, v, weight) tuples
WeightedEdge = tuple[int, int, int, int]


def _by_weight(edges: Sequence[WeightedEdge]) -> list[WeightedEdge]:
    """Kruskal's order: descending weight, ties broken by ascending edge id."""
    return sorted(edges, key=lambda e: (-e[3], e[0]))


def max_spanning_tree(n: int, edges: Sequence[WeightedEdge]) -> list[int]:
    """Maximum-weight spanning tree; raises on a disconnected graph."""
    chosen = [e[0] for e in kruskal(_by_weight(edges), list(range(n)), n - 1)]
    if len(chosen) != n - 1:
        raise DisconnectedGraphError("graph is not connected")
    return chosen


def _level_order(graph: UpgradableGraph, level: int) -> list[WeightedEdge]:
    """The graph's edges weighted by their ``level`` lengths, in ``_by_weight``
    order, memoized on the graph."""
    memo = _memo(graph)
    key = ("level_order", level)
    if key not in memo:
        memo[key] = _by_weight([(e.id, e.u, e.v, e.ladder[level].length)
                                for e in graph.edges])
    return memo[key]


def base_tree(graph: UpgradableGraph) -> tuple[int, ...]:
    """Edge ids of the maximum spanning tree on level-0 lengths, memoized on
    the graph."""
    memo = _memo(graph)
    if "base_tree" not in memo:
        memo["base_tree"] = tuple(max_spanning_tree(graph.n, _level_order(graph, 0)))
    return memo["base_tree"]


def uimst_half_approx(graph: UpgradableGraph, k: int) -> TreeSolution:
    """The capped improved-forest tree.

    Guarantees total length >= OPT(k) / 2 while using at most k improved
    edges.  Requires two-level ladders that rise ("increase").
    """
    require_valid(graph)
    memo = _memo(graph)
    if "two_level" not in memo:  # a graph that fails the check is never memoized
        if any(len(e.ladder) != 2 for e in graph.edges):
            raise ValueError("uimst_half_approx needs two-level ladders")
        memo["two_level"] = True
    if k < 0:
        raise ValueError("cap must be nonnegative")

    # the fill skips each forest edge's base copy, whose endpoints the forest joins
    parent = list(range(graph.n))
    forest = [e[0] for e in kruskal(_level_order(graph, 1), parent, k)]
    tree = forest + [e[0] for e in kruskal(_level_order(graph, 0), parent, graph.n - 1 - len(forest))]
    upgraded = set(forest)
    return solution_from_choices(graph, {eid: int(eid in upgraded) for eid in tree})
