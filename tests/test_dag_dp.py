from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wildag_uniform,
    wisdag_budget_exact,
    wisdag_fptas,
    wisdag_uniform,
)
from netupgrade.instances import DagEdge, DagInstance, evaluate_path
from netupgrade.oracle import exact_wildag, exact_wisdag


def flip(dag):
    """Swap base/improved lengths so improvements shorten edges."""
    return DagInstance(dag.n, tuple(
        DagEdge(e.id, e.tail, e.head, e.improved, e.base, e.cost)
        for e in dag.edges), dag.source, dag.sink)


def diamond():
    return DagInstance(4, (
        DagEdge(0, 0, 1, 2, 5, 3),
        DagEdge(1, 1, 3, 1, 1, 0),
        DagEdge(2, 0, 2, 4, 6, 2),
        DagEdge(3, 2, 3, 0, 2, 1),
    ), 0, 3)


def test_budget_exact_diamond():
    d = diamond()
    # frozen by hand: four routes, improvements per budget level
    assert wildag_budget_exact(d, 0).total_length == 4
    assert wildag_budget_exact(d, 2).total_length == 6
    assert wildag_budget_exact(d, 3).total_length == 8
    assert wildag_budget_exact(d, 4).total_length == 8
    sol = wildag_budget_exact(d, 3)
    assert evaluate_path(d, sol.edge_ids, sol.improved) == (
        sol.total_length, sol.total_spend)


def test_uniform_diamond():
    d = DagInstance(4, tuple(
        DagEdge(e.id, e.tail, e.head, e.base, e.improved, 1)
        for e in diamond().edges), 0, 3)
    assert wildag_uniform(d, 0).total_length == 4
    assert wildag_uniform(d, 1).total_length == 6
    assert wildag_uniform(d, 2).total_length == 8
    assert wildag_uniform(d, 9).total_length == 8  # cap clips at n-1


def test_uniform_caps_improvement_count_not_spend():
    # free upgrades still count against b: one upgrade, not the two the
    # budget-exact solver can afford at no spend
    d = DagInstance(4, tuple(
        DagEdge(e.id, e.tail, e.head, e.base, e.improved, 0)
        for e in diamond().edges), 0, 3)
    sol = wildag_uniform(d, 1)
    assert (sol.total_length, sol.total_spend, sum(sol.improved)) == (6, 0, 1)
    assert wildag_budget_exact(d, 1).total_length == 8
    assert wildag_uniform(d, 2).total_length == 8
    sol = wisdag_uniform(flip(d), 1)
    assert (sol.total_length, sol.total_spend, sum(sol.improved)) == (3, 0, 1)
    assert wisdag_uniform(flip(d), 0).total_length == 6
    assert wisdag_budget_exact(flip(d), 0).total_length == 3


def test_uniform_requires_equal_costs():
    with pytest.raises(ValueError, match="equal improvement costs"):
        wildag_uniform(diamond(), 1)


def test_unreachable_sink_rejected_up_front():
    from netupgrade.instances import InvalidInstanceError

    d = DagInstance(3, (DagEdge(0, 0, 1, 1, 1, 0),), 0, 2)
    with pytest.raises(InvalidInstanceError, match="sink not reachable"):
        wildag_budget_exact(d, 5)


def test_spends_above_2_to_the_60_are_kept():
    # no finite sentinel caps spends or lengths: integers are unbounded
    big = 1 << 61
    d = DagInstance(2, (DagEdge(0, 0, 1, 1, 5, big),), 0, 1)
    assert wildag_budget_exact(d, big).total_length == 5
    assert wisdag_budget_exact(flip(d), big).total_length == 1
    assert wildag_budget_exact(d, big - 1).total_length == 1


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        wildag_budget_exact(diamond(), -1)


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 14))
@settings(max_examples=150, deadline=None)
def test_budget_exact_matches_oracle(seed, n, budget):
    m = min(n * (n - 1) // 2, n + 2)
    dag = generate.gen_random_dag(n, m, max_len=8, max_cost=5, seed=seed)
    assert wildag_budget_exact(dag, budget).total_length == exact_wildag(dag, budget)[0]


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_uniform_matches_oracle(seed, n, b):
    m = min(n * (n - 1) // 2, n + 2)
    dag = generate.gen_random_dag(n, m, max_len=8, seed=seed, uniform_cost=1)
    assert wildag_uniform(dag, b).total_length == exact_wildag(dag, b)[0]


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_uniform_and_budget_agree_at_unit_costs(seed, n, b):
    # one frontier DP at unit prices: the same path, flags and totals
    m = min(n * (n - 1) // 2, n + 2)
    dag = generate.gen_random_dag(n, m, max_len=8, seed=seed, uniform_cost=1)
    assert wildag_uniform(dag, b) == wildag_budget_exact(dag, b)
    assert wisdag_uniform(flip(dag), b) == wisdag_budget_exact(flip(dag), b)


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 14))
@settings(max_examples=100, deadline=None)
def test_shortest_variants_match_oracle(seed, n, budget):
    m = min(n * (n - 1) // 2, n + 2)
    dag = flip(generate.gen_random_dag(n, m, max_len=8, max_cost=5, seed=seed))
    assert wisdag_budget_exact(dag, budget).total_length == exact_wisdag(dag, budget)[0]


def test_shortest_uniform_diamond():
    d = flip(DagInstance(4, tuple(
        DagEdge(e.id, e.tail, e.head, e.base, e.improved, 1)
        for e in diamond().edges), 0, 3))
    assert wisdag_uniform(d, 0).total_length == 6
    assert wisdag_uniform(d, 1).total_length == 3
    assert wisdag_uniform(d, 2).total_length == 3


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 14),
       st.sampled_from([Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)]))
@settings(max_examples=100, deadline=None)
def test_fptas_guarantee(seed, n, budget, eps):
    m = min(n * (n - 1) // 2, n + 2)
    dag = generate.gen_random_dag(n, m, max_len=30, max_cost=5, seed=seed)
    opt = exact_wildag(dag, budget)[0]
    sol = wildag_fptas(dag, budget, eps)
    assert sol.total_spend <= budget
    assert sol.total_length >= (1 - eps) * opt
    assert evaluate_path(dag, sol.edge_ids, sol.improved) == (
        sol.total_length, sol.total_spend)


@given(st.integers(0, 20_000), st.integers(3, 8), st.integers(0, 14),
       st.sampled_from([Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)]))
@settings(max_examples=60, deadline=None)
def test_shortest_fptas_guarantee(seed, n, budget, eps):
    m = min(n * (n - 1) // 2, n + 2)
    dag = flip(generate.gen_random_dag(n, m, max_len=30, max_cost=5, seed=seed))
    opt = exact_wisdag(dag, budget)[0]
    sol = wisdag_fptas(dag, budget, eps)
    assert sol.total_spend <= budget
    assert sol.total_length <= (1 + eps) * opt


def test_fptas_accepts_float_eps():
    dag = generate.gen_random_dag(6, 9, max_len=40, seed=2)
    a = wildag_fptas(dag, 5, 0.25)
    b = wildag_fptas(dag, 5, Fraction(1, 4))
    assert a == b


def test_fptas_eps_range_checked():
    dag = generate.gen_random_dag(4, 4, seed=0)
    with pytest.raises(ValueError):
        wildag_fptas(dag, 3, 0)
    with pytest.raises(ValueError):
        wildag_fptas(dag, 3, 1)
