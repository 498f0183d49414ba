"""Exhaustive exact solvers used as ground truth on small instances.

These are correctness anchors, not performance code.  Each refuses instances
above its size bounds instead of silently running forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from ._util import UnionFind
from .instances import (
    DagInstance,
    DisconnectedGraphError,
    MultiGraph,
    PathSolution,
    TreeSolution,
    UpgradableGraph,
    require_valid,
    solution_from_choices,
)


class OracleSizeError(RuntimeError):
    """Instance exceeds the oracle's enumeration bounds."""


@dataclass(frozen=True)
class OracleBudget:
    max_tree_vertices: int = 8
    max_tree_edges: int = 16
    max_dag_vertices: int = 12
    max_paths: int = 200_000
    max_knapsack_cells: int = 5_000_000


DEFAULT_BUDGET = OracleBudget()


def knapsack_exact(profits, costs, budget: int, limits: OracleBudget = DEFAULT_BUDGET):
    """Classic 0/1 knapsack by value-over-capacity DP.

    Returns (optimum value, tuple of chosen item indices).
    """
    if len(profits) != len(costs):
        raise ValueError("profits and costs must have equal length")
    if any(p < 0 for p in profits) or any(c < 0 for c in costs):
        raise ValueError("profits and costs must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cap = min(budget, sum(costs))
    if (cap + 1) * (len(profits) + 1) > limits.max_knapsack_cells:
        raise OracleSizeError("knapsack table too large")
    best = [0] * (cap + 1)
    taken: list[list[bool]] = []
    for i, (p, c) in enumerate(zip(profits, costs)):
        row = [False] * (cap + 1)
        if c <= cap:
            for w in range(cap, c - 1, -1):
                cand = best[w - c] + p
                if cand > best[w]:
                    best[w] = cand
                    row[w] = True
        taken.append(row)
    w = cap
    items = []
    for i in range(len(profits) - 1, -1, -1):
        if taken[i][w]:
            items.append(i)
            w -= costs[i]
    return best[cap], tuple(reversed(items))


def spanning_trees(n: int, pairs):
    """Yield every spanning tree as a tuple of indices into `pairs`."""
    m = len(pairs)
    if n == 1:
        yield ()
        return
    for subset in combinations(range(m), n - 1):
        uf = UnionFind(n)
        ok = True
        for i in subset:
            u, v = pairs[i]
            if not uf.union(u, v):
                ok = False
                break
        if ok:
            yield subset


def _check_tree_size(graph: UpgradableGraph, limits: OracleBudget) -> None:
    if graph.n > limits.max_tree_vertices and graph.m > graph.n - 1:
        raise OracleSizeError(f"graph too large for tree enumeration (n={graph.n})")
    if graph.m > limits.max_tree_edges and graph.m > graph.n - 1:
        raise OracleSizeError(f"graph too large for tree enumeration (m={graph.m})")


def exact_imst(graph: UpgradableGraph, budget: int,
               limits: OracleBudget = DEFAULT_BUDGET) -> tuple[int, TreeSolution]:
    """Optimum over all spanning trees x all level assignments with spend <= budget."""
    _check_tree_size(graph, limits)
    pairs = [(e.u, e.v) for e in graph.edges]
    best_val = None
    best_choices = None
    for tree in spanning_trees(graph.n, pairs):
        ladders = [graph.edges[i].ladder for i in tree]
        for levels in product(*(range(len(lad)) for lad in ladders)):
            spend = sum(lad[lvl].cost for lad, lvl in zip(ladders, levels))
            if spend > budget:
                continue
            val = sum(lad[lvl].length for lad, lvl in zip(ladders, levels))
            if best_val is None or val > best_val:
                best_val = val
                best_choices = dict(zip(tree, levels))
    if best_val is None:
        raise DisconnectedGraphError("no spanning tree exists")
    return best_val, solution_from_choices(graph, best_choices)


def exact_uimst_table(graph: UpgradableGraph,
                      limits: OracleBudget = DEFAULT_BUDGET) -> list[int]:
    """Optimum UIMST value for every improvement cap k in 0..n-1.

    Two-level ladders only; cap counts improved edges, costs are ignored.
    """
    _check_tree_size(graph, limits)
    if any(len(e.ladder) != 2 for e in graph.edges):
        raise ValueError("UIMST oracle needs two-level ladders")
    pairs = [(e.u, e.v) for e in graph.edges]
    opts = [None] * graph.n
    found = False
    for tree in spanning_trees(graph.n, pairs):
        found = True
        base = sum(graph.edges[i].ladder[0].length for i in tree)
        gains = sorted((graph.edges[i].ladder[1].length - graph.edges[i].ladder[0].length
                        for i in tree), reverse=True)
        total = base
        taken = 0
        for k in range(graph.n):
            while taken < k and taken < len(gains) and gains[taken] > 0:
                total += gains[taken]
                taken += 1
            if opts[k] is None or total > opts[k]:
                opts[k] = total
    if not found:
        raise DisconnectedGraphError("no spanning tree exists")
    return opts


def exact_two_cost(mg: MultiGraph, budget: int,
                   limits: OracleBudget = DEFAULT_BUDGET) -> tuple[int, int, tuple[int, ...]]:
    """Max-length spanning tree of the multigraph with cost <= budget.

    Returns (length, cost, sorted copy ids); ties prefer the lexicographically
    smallest copy-id tuple.
    """
    if mg.n > limits.max_tree_vertices:
        raise OracleSizeError(f"multigraph too large for tree enumeration (n={mg.n})")
    if mg.n == 1:
        return 0, 0, ()
    best = None
    for subset in combinations(mg.copies, mg.n - 1):
        cost = sum(c.cost for c in subset)
        if cost > budget:
            continue
        uf = UnionFind(mg.n)
        if not all(uf.union(c.u, c.v) for c in subset):
            continue
        length = sum(c.length for c in subset)
        ids = tuple(c.copy_id for c in subset)
        key = (-length, ids)
        if best is None or key < best[0]:
            best = (key, length, cost, ids)
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree exists")
    return best[1], best[2], best[3]


def _paths(dag: DagInstance):
    out: dict[int, list] = {}
    for e in dag.edges:
        out.setdefault(e.tail, []).append(e)
    stack = [(dag.source, [])]
    while stack:
        v, path = stack.pop()
        if v == dag.sink:
            yield path
            continue
        for e in out.get(v, ()):
            stack.append((e.head, path + [e]))


def exact_wildag(dag: DagInstance, budget: int, limits: OracleBudget = DEFAULT_BUDGET,
                 minimize: bool = False) -> tuple[int, PathSolution]:
    """Enumerate all simple s-t paths, optimizing improvements per path.

    Per path, the best improvement subset is an exact 0/1 knapsack over the
    path's edges (gain = |improved - base|, weight = cost, capacity = budget).
    The instance is validated first, in the direction ``minimize`` asks for.
    """
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if dag.n > limits.max_dag_vertices:
        raise OracleSizeError(f"DAG too large for path enumeration (n={dag.n})")
    best_val = None
    best_path = None
    n_paths = 0
    for path in _paths(dag):
        n_paths += 1
        if n_paths > limits.max_paths:
            raise OracleSizeError("too many s-t paths to enumerate")
        base = sum(e.base for e in path)
        if minimize:
            gains = [e.base - e.improved for e in path]
        else:
            gains = [e.improved - e.base for e in path]
        kp_val, items = knapsack_exact(gains, [e.cost for e in path], budget, limits)
        val = base - kp_val if minimize else base + kp_val
        better = best_val is None or (val < best_val if minimize else val > best_val)
        if better:
            chosen = set(items)
            improved = tuple(i in chosen for i in range(len(path)))
            spend = sum(e.cost for i, e in enumerate(path) if i in chosen)
            best_val = val
            best_path = PathSolution(tuple(e.id for e in path), improved, val, spend)
    if best_val is None:
        raise DisconnectedGraphError("sink not reachable from source")
    return best_val, best_path


def exact_wisdag(dag: DagInstance, budget: int,
                 limits: OracleBudget = DEFAULT_BUDGET) -> tuple[int, PathSolution]:
    """Shortest-path analogue of exact_wildag (improvements decrease length)."""
    return exact_wildag(dag, budget, limits, minimize=True)
