"""Half-approximation for the uniform-cost improvable maximum spanning tree.

One candidate tree: the size-capped greedy forest F_k on improved lengths,
extended to a spanning tree by base edges.  On rising two-level ladders it
is at least l1(F_k), and at least l0(T_base) for the base-length maximum
spanning tree T_base (F_k outweighs the T_base edges it displaces, and the
fill completes it best).  OPT(k) <= l0(T_base) + l1(F_k), so it is at least
OPT(k) / 2.  Neither the ladder check nor the two edge orders Kruskal reads
depend on k, so the orders are kept in the graph's memo as one entry,
``"uimst_orders"``, once the check passes; the tree's totals are read from
the records Kruskal picks.
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


def uimst_half_approx(graph: UpgradableGraph, k: int) -> TreeSolution:
    """The capped improved-forest tree.

    Guarantees total length >= OPT(k) / 2 while using at most k improved
    edges.  Requires two-level ladders that rise ("increase").
    """
    require_valid(graph)
    memo = _memo(graph)
    orders = memo.get("uimst_orders")
    if orders is None:  # a graph that fails the check is never memoized
        if any(len(e.ladder) != 2 for e in graph.edges):
            raise ValueError("uimst_half_approx needs two-level ladders")
        # (id, u, v, length, cost) records of each level, in Kruskal's order
        orders = memo["uimst_orders"] = tuple(
            _by_weight([(e.id, e.u, e.v, *e.ladder[level]) for e in graph.edges])
            for level in (0, 1))
    if k < 0:
        raise ValueError("cap must be nonnegative")

    # the fill skips each forest edge's base copy, whose endpoints the forest joins
    base, improved = orders
    parent = list(range(graph.n))
    forest = kruskal(improved, parent, k)
    tree = forest + kruskal(base, parent, graph.n - 1 - len(forest))
    choices = {rec[0]: int(i < len(forest)) for i, rec in enumerate(tree)}
    return TreeSolution(choices, sum(rec[3] for rec in tree), sum(rec[4] for rec in tree))
