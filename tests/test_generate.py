import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.instances import is_connected, validate
from netupgrade.oracle import exact_imst, exact_wildag, knapsack_exact
from netupgrade.serialization import Problem, instance_hash


@given(st.integers(0, 10_000), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_random_graph_valid_and_deterministic(seed, n):
    m = min(n * (n - 1) // 2, n + 2)
    g = generate.gen_random_graph(n, m, seed=seed)
    assert validate(g) == []
    assert g.m == m
    assert is_connected(g.n, ((e.u, e.v) for e in g.edges))
    again = generate.gen_random_graph(n, m, seed=seed)
    assert again == g


def test_graph_ladder_levels_parameter():
    g = generate.gen_random_graph(5, 6, levels=4, seed=2)
    assert all(len(e.ladder) == 4 for e in g.edges)
    for e in g.edges:
        assert e.ladder[0].cost == 0


@given(st.integers(0, 10_000), st.integers(3, 10))
@settings(max_examples=80, deadline=None)
def test_random_dag_valid_and_deterministic(seed, n):
    m = min(n * (n - 1) // 2, n + 2)
    d = generate.gen_random_dag(n, m, seed=seed)
    assert validate(d) == []
    assert d.source == 0 and d.sink == n - 1
    assert generate.gen_random_dag(n, m, seed=seed) == d


def test_small_instances_keep_their_hashes():
    # up to a million free vertex pairs every pair is listed and shuffled,
    # so these instances are the ones the shuffle always drew
    graphs = [(generate.gen_random_graph(2, 1, seed=0), "40560230d78e4ad4"),
              (generate.gen_random_graph(12, 20, max_len=40, levels=3, seed=7), "3755e6cd828f0936"),
              (generate.gen_random_graph(30, 435, seed=5), "8c6f0b77c3afc568")]
    dags = [(generate.gen_random_dag(7, 12, seed=11), "667e2670a96fa83f"),
            (generate.gen_random_dag(25, 60, seed=2, uniform_cost=3), "876311c4cdef94de"),
            (generate.gen_random_dag(40, 780, seed=9), "ba35e8b2a96df675")]
    for g, digest in graphs:
        assert instance_hash(Problem("imst", 5, graph=g)) == digest, g
    for d, digest in dags:
        assert instance_hash(Problem("wildag", 5, dag=d)) == digest, d


def test_sparse_instances_on_many_vertices_are_drawn_pair_by_pair():
    # 3,000 vertices have about 4.5 million vertex pairs, too many to list
    for seed in (0, 1):
        d = generate.gen_random_dag(3000, 5, seed=seed)
        assert validate(d) == [] and d.m == 5
        assert generate.gen_random_dag(3000, 5, seed=seed) == d
        g = generate.gen_random_graph(3000, 3000, seed=seed)
        assert validate(g) == [] and g.m == 3000
        assert is_connected(g.n, ((e.u, e.v) for e in g.edges))
        assert generate.gen_random_graph(3000, 3000, seed=seed) == g
    assert generate.gen_random_dag(3000, 5, seed=0) != generate.gen_random_dag(3000, 5, seed=1)


def test_uniform_cost_flag():
    d = generate.gen_random_dag(6, 8, seed=4, uniform_cost=2)
    assert {e.cost for e in d.edges} == {2}


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        generate.gen_random_graph(4, 2)  # below spanning-tree size
    with pytest.raises(ValueError):
        generate.gen_random_graph(4, 7)  # above simple-graph capacity
    with pytest.raises(ValueError):
        generate.gen_random_graph(0, 0)
    assert validate(generate.gen_random_graph(1, 0)) == []  # one vertex, no edge
    with pytest.raises(ValueError):
        generate.gen_random_dag(1, 1)


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 9)),
                min_size=1, max_size=8),
       st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_knapsack_imst_reduction_matches_dp(items, budget):
    profits = [p for p, _ in items]
    costs = [c for _, c in items]
    graph, known = generate.gen_knapsack_imst(profits, costs, budget)
    assert known == knapsack_exact(profits, costs, budget)[0]
    assert exact_imst(graph, budget)[0] == known


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 9)),
                min_size=1, max_size=8),
       st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_knapsack_wildag_reduction_matches_dp(items, budget):
    profits = [p for p, _ in items]
    costs = [c for _, c in items]
    dag, known = generate.gen_knapsack_wildag(profits, costs, budget)
    assert known == knapsack_exact(profits, costs, budget)[0]
    assert exact_wildag(dag, budget)[0] == known


def test_knapsack_reduction_dispatch():
    with pytest.raises(ValueError):
        generate.gen_knapsack_reduction([1], [1], 1, "mst")
    g, _ = generate.gen_knapsack_reduction([1], [1], 1, "imst")
    d, _ = generate.gen_knapsack_reduction([1], [1], 1, "wildag")
    assert g.m == 1 and d.m == 2
