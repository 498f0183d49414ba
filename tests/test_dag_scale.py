"""Budget DP checks at sizes the brute-force oracles cannot reach.

Two independent references: networkx DAG path lengths at the two budget
extremes (only free upgrades, every upgrade at once), and a plain
spend-indexed DP for budgets in between and for the uniform solvers at unit
prices.
"""

import pytest

from netupgrade import generate
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_uniform,
    wisdag_budget_exact,
    wisdag_uniform,
)
from netupgrade.instances import DagEdge, DagInstance, evaluate_path

nx = pytest.importorskip("networkx")

SEEDS = range(6)


def flip(dag):
    return DagInstance(dag.n, tuple(
        DagEdge(e.id, e.tail, e.head, e.improved, e.base, e.cost)
        for e in dag.edges), dag.source, dag.sink)


def instance(seed):
    n = 40 + 4 * seed
    return generate.gen_random_dag(n, 3 * n, max_len=100_000, max_cost=10,
                                   seed=seed)


def nx_length(dag, budget, minimize):
    """Best s-t length when every edge costing at most `budget` is improved.

    Exact for budget 0 (only free upgrades) and for a budget that pays for
    every upgrade at once.
    """
    g = nx.DiGraph()
    g.add_nodes_from(range(dag.n))
    for e in dag.edges:
        g.add_edge(e.tail, e.head, w=e.improved if e.cost <= budget else e.base)
    if minimize:
        return nx.shortest_path_length(g, dag.source, dag.sink, weight="w")
    on_path = (nx.descendants(g, dag.source) | {dag.source}) & (
        nx.ancestors(g, dag.sink) | {dag.sink})
    # lengths are nonnegative, so the longest path inside the s-t subgraph
    # extends to an s-t path of the same length
    return nx.dag_longest_path_length(g.subgraph(on_path), weight="w")


def spend_indexed(dag, budget, minimize):
    """best[v][c]: best v->sink length with spend at most c."""
    pick = min if minimize else max
    best = {dag.sink: [0] * (budget + 1)}
    for v in reversed(list(nx.topological_sort(nx.DiGraph(
            [(e.tail, e.head) for e in dag.edges])))):
        row = [None] * (budget + 1)
        for e in dag.edges:
            if e.tail != v or e.head not in best:
                continue
            down = best[e.head]
            for c in range(budget + 1):
                options = [row[c]]
                if down[c] is not None:
                    options.append(down[c] + e.base)
                if e.cost <= c and down[c - e.cost] is not None:
                    options.append(down[c - e.cost] + e.improved)
                options = [x for x in options if x is not None]
                row[c] = pick(options) if options else None
        if any(x is not None for x in row):
            best[v] = row
    return best[dag.source][budget]


def check(sol, dag, budget):
    assert sol.total_spend <= budget
    assert evaluate_path(dag, sol.edge_ids, sol.improved) == (
        sol.total_length, sol.total_spend)
    heads = [dag.source] + [dag.edges[i].head for i in sol.edge_ids]
    assert [dag.edges[i].tail for i in sol.edge_ids] == heads[:-1]
    assert heads[-1] == dag.sink


@pytest.mark.parametrize("seed", SEEDS)
def test_budget_extremes_match_networkx(seed):
    dag = instance(seed)
    everything = sum(e.cost for e in dag.edges)
    for solve, d, minimize in ((wildag_budget_exact, dag, False),
                               (wisdag_budget_exact, flip(dag), True)):
        at_zero = solve(d, 0)
        check(at_zero, d, 0)
        assert at_zero.total_length == nx_length(d, 0, minimize)
        at_all = solve(d, everything)
        check(at_all, d, everything)
        assert at_all.total_length == nx_length(d, everything, minimize)


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_budgets_match_spend_indexed_dp(seed):
    dag = instance(seed)
    total = sum(e.cost for e in dag.edges)
    for budget in (3, 17, total // 10):
        sol = wildag_budget_exact(dag, budget)
        check(sol, dag, budget)
        assert sol.total_length == spend_indexed(dag, budget, minimize=False)
        flipped = flip(dag)
        sol = wisdag_budget_exact(flipped, budget)
        check(sol, flipped, budget)
        assert sol.total_length == spend_indexed(flipped, budget, minimize=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_spend_indexed_dp_at_unit_prices(seed):
    # with every upgrade priced 1, spend is the number of improved edges
    dag = instance(seed)
    unit = DagInstance(dag.n, tuple(
        DagEdge(e.id, e.tail, e.head, e.base, e.improved, 1)
        for e in dag.edges), dag.source, dag.sink)
    for b in (0, 3, dag.n - 1):
        for solve, d, minimize in ((wildag_uniform, unit, False),
                                   (wisdag_uniform, flip(unit), True)):
            sol = solve(d, b)
            check(sol, d, b)
            assert sol.total_length == spend_indexed(d, b, minimize)


def test_long_chain_with_huge_lengths_solves():
    # n*W is about 2e9 here: a length-indexed table cannot be allocated
    n = 2000
    edges = tuple(DagEdge(i, i, i + 1, 10**6, 10**6 + i, 1) for i in range(n - 1))
    chain = DagInstance(n, edges, 0, n - 1)
    sol = wildag_budget_exact(chain, 5)
    assert sol.total_length == (n - 1) * 10**6 + sum(range(n - 6, n - 1))
    assert sol.total_spend == 5
    assert [i for i, f in zip(sol.edge_ids, sol.improved) if f] == list(range(n - 6, n - 1))
    sol = wisdag_budget_exact(flip(chain), 5)
    assert sol.total_length == (n - 1) * 10**6 + sum(range(n - 1)) - sum(range(n - 6, n - 1))
    assert sol.total_spend == 5


def test_long_chain_with_huge_costs_solves():
    # a row indexed by every spend up to the budget would need 5e9 slots;
    # only five upgrades fit, and the cheapest five of the largest gain win
    n = 2000
    edges = tuple(DagEdge(i, i, i + 1, 10, 11 + i % 7, 10**9 + i) for i in range(n - 1))
    chain = DagInstance(n, edges, 0, n - 1)
    budget = 5 * 10**9 + 10**6
    upgraded = [6, 13, 20, 27, 34]
    sol = wildag_budget_exact(chain, budget)
    assert (sol.total_length, sol.total_spend) == (20025, 5_000_000_100)
    assert [i for i, f in zip(sol.edge_ids, sol.improved) if f] == upgraded
    sol = wisdag_budget_exact(flip(chain), budget)
    assert sol.total_length == sum(11 + i % 7 for i in range(n - 1)) - 35
    assert sol.total_spend == 5_000_000_100
    assert [i for i, f in zip(sol.edge_ids, sol.improved) if f] == upgraded
