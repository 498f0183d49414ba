"""Every DAG solve runs the frontier DP on the caller's instance through a
weights table, and the instance's source-sink edges are found once.

The FPTAS must return exactly what the scaled-copy construction returns: a
scaled DagInstance whose unaffordable upgrades are rewritten as no-ops, with
their flags filtered from the result.  That construction is kept here as the
reference.
"""

import random
from fractions import Fraction

import pytest

from netupgrade import dag_dp, generate, instances
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wisdag_budget_exact,
    wisdag_fptas,
)
from netupgrade.instances import DagEdge, DagInstance, PathSolution, evaluate_path
from netupgrade.serialization import Problem, parse, serialize


def flip(dag):
    """Swap base/improved lengths so improvements shorten edges."""
    return DagInstance(dag.n, tuple(
        DagEdge(e.id, e.tail, e.head, e.improved, e.base, e.cost)
        for e in dag.edges), dag.source, dag.sink)


def free_shortest(dag, budget):
    """Shortest source-sink length when affordable upgrades cost nothing."""
    dist = {dag.sink: 0}
    for v in reversed(dag.topological_order()):
        for e in dag.edges:
            if e.tail == v and e.head in dist:
                step = e.improved if e.cost <= budget else e.base
                dist[v] = min(dist.get(v, dist[e.head] + step), dist[e.head] + step)
    return dist[dag.source]


def reference_fptas(dag, budget, eps, minimize):
    """The FPTAS as a budget solve over a scaled copy of the instance."""
    eps = Fraction(eps)
    unit = free_shortest(dag, budget) if minimize else dag.effective_max_length(budget)
    k = max(1, (eps.numerator * unit) // (eps.denominator * dag.n))

    def scale(x):
        return -(-x // k) if minimize else x // k

    edges = []
    for e in dag.edges:
        fits = e.cost <= budget
        edges.append(DagEdge(e.id, e.tail, e.head, scale(e.base),
                             scale(e.improved if fits else e.base), e.cost if fits else 0))
    scaled = DagInstance(dag.n, tuple(edges), dag.source, dag.sink)
    solve = wisdag_budget_exact if minimize else wildag_budget_exact
    sol = solve(scaled, budget)
    flags = [imp and dag.edges[eid].cost <= budget
             for eid, imp in zip(sol.edge_ids, sol.improved)]
    return PathSolution(sol.edge_ids, tuple(flags),
                        *evaluate_path(dag, sol.edge_ids, flags))


@pytest.mark.parametrize("minimize", [False, True])
def test_fptas_equals_the_scaled_copy_construction(minimize):
    rng = random.Random(2024 + minimize)
    priced_out = 0
    for case in range(520):
        n = rng.randint(3, 11)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        dag = generate.gen_random_dag(n, m, max_len=rng.choice((9, 250, 10 ** 5)),
                                      max_cost=12, seed=case)
        if minimize:
            dag = flip(dag)
        budget = rng.randint(0, 14)
        eps = rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)))
        priced_out += any(e.cost > budget for e in dag.edges)
        solve = wisdag_fptas if minimize else wildag_fptas
        assert solve(dag, budget, eps) == reference_fptas(dag, budget, eps, minimize), case
    assert priced_out >= 300


def count_reaching_to(monkeypatch) -> list:
    """Record every reaching_to call, at both bindings a solver could use."""
    calls = []
    original = instances.reaching_to

    def counted(dag, target):
        calls.append(target)
        return original(dag, target)

    monkeypatch.setattr(instances, "reaching_to", counted)
    monkeypatch.setattr(dag_dp, "reaching_to", counted)
    return calls


def test_parsed_dag_finds_its_st_edges_once(monkeypatch):
    dag = generate.gen_random_dag(9, 20, max_len=60, seed=5)
    dag = parse(serialize(Problem("wildag", 10, dag=dag))).dag
    calls = count_reaching_to(monkeypatch)
    first = wildag_fptas(dag, 10, Fraction(1, 4))
    wildag_budget_exact(dag, 10)
    dag.effective_max_length(10)
    assert calls == [dag.sink]
    assert wildag_fptas(dag, 10, Fraction(1, 4)) == first


def test_shortest_fptas_finds_its_st_edges_once(monkeypatch):
    # its unit is a free-upgrade shortest path, not W, and the frontier DP
    # reads every out-edge, so no source-sink edges are found at all
    dag = flip(generate.gen_random_dag(9, 20, max_len=60, seed=6))
    calls = count_reaching_to(monkeypatch)
    wisdag_fptas(dag, 10, Fraction(1, 4))
    assert calls == []


def test_st_edges_skip_edges_off_every_source_sink_path():
    # 0 -> 1 -> 3 is the only route; 2 is unreachable and 1 -> 4 is a dead end
    dag = DagInstance(5, (
        DagEdge(0, 0, 1, 1, 2, 1),
        DagEdge(1, 1, 3, 1, 2, 1),
        DagEdge(2, 2, 3, 9, 9, 0),
        DagEdge(3, 1, 4, 9, 9, 0),
    ), 0, 3)
    assert [e.id for e in instances.st_edges(dag)] == [0, 1]
    assert instances.st_edges(dag) is instances.st_edges(dag)
    assert dag.effective_max_length(0) == 1
    assert wildag_fptas(dag, 2, Fraction(1, 2)).edge_ids == (0, 1)
