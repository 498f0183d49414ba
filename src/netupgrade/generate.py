"""Random and reduction-based instance generators.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .instances import (
    DagEdge,
    DagInstance,
    ImprovementLevel,
    UpgradableEdge,
    UpgradableGraph,
)
from .oracle import knapsack_exact


def _add_free_pairs(rng: random.Random, n: int, m: int, pairs: set) -> None:
    """Top ``pairs`` up to m vertex pairs (u < v).  Up to a million free pairs,
    or when more than half of them are needed, every pair not yet in it is
    listed, shuffled, and taken from the end of the list; otherwise pairs are
    drawn at random until m are taken, in memory that grows with m, not n^2."""
    free = n * (n - 1) // 2 - len(pairs)
    if free <= 10 ** 6 or 2 * (m - len(pairs)) > free:
        listed = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
        rng.shuffle(listed)
        while len(pairs) < m:
            pairs.add(listed.pop())
    # at most half the free pairs get taken, so most draws land on a free one
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))


def gen_random_graph(n: int, m: int, max_len: int = 10, max_cost: int = 10,
                     levels: int = 2, seed: int = 0) -> UpgradableGraph:
    """Random connected simple graph with sorted improvement ladders.

    Connectivity is enforced by first laying a random spanning tree.
    """
    if n < 1 or m < n - 1 or max_len < 0 or max_cost < 0 or levels < 1:
        raise ValueError("bad generator parameters")
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds simple-graph capacity for n={n}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = set()
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    _add_free_pairs(rng, n, m, pairs)
    edges = []
    for eid, (u, v) in enumerate(sorted(pairs)):
        lengths = sorted(rng.randint(0, max_len) for _ in range(levels))
        costs = [0] + sorted(rng.randint(0, max_cost) for _ in range(levels - 1))
        ladder = tuple(ImprovementLevel(l, c) for l, c in zip(lengths, costs))
        edges.append(UpgradableEdge(eid, u, v, ladder))
    return UpgradableGraph(n, tuple(edges))


def gen_random_dag(n: int, m: int, max_len: int = 10, max_cost: int = 10,
                   seed: int = 0, uniform_cost: int | None = None) -> DagInstance:
    """Random DAG on 0..n-1 (topological by vertex id), source 0, sink n-1.

    A random source-to-sink path is laid first so the sink is always
    reachable.  ``uniform_cost`` forces every improvement cost to that value.
    """
    if n < 2 or m < 1 or max_len < 0 or max_cost < 0:
        raise ValueError("bad generator parameters")
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds acyclic simple-graph capacity for n={n}")
    rng = random.Random(seed)
    hops = rng.randint(2, min(n, m + 1))
    inner = sorted(rng.sample(range(1, n - 1), hops - 2)) if hops > 2 else []
    chain = [0] + inner + [n - 1]
    pairs = set(zip(chain, chain[1:]))
    _add_free_pairs(rng, n, m, pairs)
    edges = []
    for eid, (u, v) in enumerate(sorted(pairs)):
        base = rng.randint(0, max_len)
        improved = rng.randint(base, max_len)
        cost = uniform_cost if uniform_cost is not None else rng.randint(0, max_cost)
        edges.append(DagEdge(eid, u, v, base, improved, cost))
    return DagInstance(n, tuple(edges), 0, n - 1)


def gen_knapsack_imst(profits, costs, budget: int) -> tuple[UpgradableGraph, int]:
    """Knapsack instance as an improvable path graph.

    Item i becomes edge (i, i+1) with ladder [(0, 0), (p_i, c_i)]; the unique
    spanning tree uses every edge, so improvement selection is exactly the
    knapsack.  Returns (graph, exact knapsack optimum).
    """
    _check_items(profits, costs, budget)
    edges = []
    for i, (p, c) in enumerate(zip(profits, costs)):
        ladder = (ImprovementLevel(0, 0), ImprovementLevel(p, c))
        edges.append(UpgradableEdge(i, i, i + 1, ladder))
    opt, _ = knapsack_exact(profits, costs, budget)
    return UpgradableGraph(len(profits) + 1, tuple(edges)), opt


def gen_knapsack_wildag(profits, costs, budget: int) -> tuple[DagInstance, int]:
    """Knapsack instance as a chain DAG of two-parallel-arc gadgets.

    Gadget i has a free arc (0, 0, 0) and an improvable arc (0, p_i, c_i)
    between vertices i and i+1; improving the second arc buys item i.
    Returns (dag, exact knapsack optimum).
    """
    _check_items(profits, costs, budget)
    edges = []
    for i, (p, c) in enumerate(zip(profits, costs)):
        edges.append(DagEdge(2 * i, i, i + 1, 0, 0, 0))
        edges.append(DagEdge(2 * i + 1, i, i + 1, 0, p, c))
    opt, _ = knapsack_exact(profits, costs, budget)
    return DagInstance(len(profits) + 1, tuple(edges), 0, len(profits)), opt


def gen_knapsack_reduction(profits, costs, budget: int, target: str):
    """Dispatch to the IMST or WILDAG knapsack reduction."""
    if target == "imst":
        return gen_knapsack_imst(profits, costs, budget)
    if target == "wildag":
        return gen_knapsack_wildag(profits, costs, budget)
    raise ValueError(f"unknown reduction target {target!r}")


def _check_items(profits, costs, budget) -> None:
    if len(profits) != len(costs) or not profits:
        raise ValueError("profits and costs must be nonempty and of equal length")
    if any(p < 0 for p in profits) or any(c < 0 for c in costs) or budget < 0:
        raise ValueError("profits, costs and budget must be nonnegative")
