"""Metamorphic relations at sizes no oracle reaches.

The brute-force oracles stop at a dozen vertices, but some relations need no
ground truth.  The tree solvers pick their answer by copy id, never by vertex
label, so permuting the vertices leaves the two-cost tree, the uniform
tree and every randomized trial unchanged.  A DAG's best length and, among
paths of that length, the least spend are canonical, so they too survive a
permutation; and a larger budget never gives a worse length.  At DAG sizes
the exact budget DP is fast, so it is the reference for the FPTAS.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wisdag_budget_exact,
    wisdag_fptas,
)
from netupgrade.imst_random import RandomizedConfig, imst_solve
from netupgrade.instances import (
    DagEdge,
    DagInstance,
    MultiGraph,
    UpgradableGraph,
    expand_to_multigraph,
)
from netupgrade.mst_uniform import uimst_half_approx
from netupgrade.two_cost import two_cost_mst

EPS = Fraction(1, 2)


@st.composite
def heavy_graphs(draw, eps, levels=st.integers(2, 3)):
    """(graph, budget, vertex permutation): n = 20-40, m = 2n, and a budget
    at which at most the drawn 0-9 level copies cost more than eps*B."""
    n = draw(st.integers(20, 40))
    g = generate.gen_random_graph(n, 2 * n, max_len=100, max_cost=100,
                                  levels=draw(levels), seed=draw(st.integers(0, 2**30)))
    cost = sorted((c.cost for c in expand_to_multigraph(g).copies),
                  reverse=True)[draw(st.integers(0, 9))]
    return g, -(-cost // eps), draw(st.permutations(range(n)))


def heavy_multigraphs():
    """heavy_graphs at EPS, expanded to their multigraphs."""
    return heavy_graphs(EPS).map(lambda case: (expand_to_multigraph(case[0]), *case[1:]))


def relabel(graph, perm):
    return UpgradableGraph(graph.n, tuple(
        e._replace(u=perm[e.u], v=perm[e.v]) for e in graph.edges))


@given(heavy_multigraphs())
@settings(max_examples=40, deadline=None)
def test_two_cost_tree_ignores_vertex_labels(case):
    mg, budget, perm = case
    moved = MultiGraph(mg.n, tuple(c._replace(u=perm[c.u], v=perm[c.v]) for c in mg.copies))
    assert two_cost_mst(moved, budget, EPS) == two_cost_mst(mg, budget, EPS)


@given(heavy_graphs(EPS, levels=st.just(2)))
@settings(max_examples=40, deadline=None)
def test_uimst_tree_ignores_vertex_labels(case):
    graph, _budget, perm = case
    moved = relabel(graph, perm)
    for k in (0, 3, 10):
        assert uimst_half_approx(moved, k) == uimst_half_approx(graph, k)


@given(st.sampled_from([Fraction(3, 10), Fraction(1, 2)]), st.integers(0, 2**64 - 1),
       st.data())
@settings(max_examples=25, deadline=None)
def test_imst_trials_and_answer_ignore_vertex_labels(eps, master_seed, data):
    """The relaxation runs at eps' = eps/2, so the heavy copies are counted
    there."""
    graph, budget, perm = data.draw(heavy_graphs(eps / 2))
    config = RandomizedConfig(eps, Fraction(1, 5), master_seed)
    got = imst_solve(relabel(graph, perm), budget, config)
    want = imst_solve(graph, budget, config)
    assert (got.solution, got.trials, got.best_trial) == (
        want.solution, want.trials, want.best_trial)


@st.composite
def dags(draw, n_lo=50, n_hi=200):
    """(DAG, minimize): m = 2n-4n and costs up to 10**7, so that rows fall
    back to dicts."""
    n = draw(st.integers(n_lo, n_hi))
    dag = generate.gen_random_dag(n, draw(st.integers(2, 4)) * n, max_len=1000,
                                  max_cost=10**7, seed=draw(st.integers(0, 2**30)))
    minimize = draw(st.booleans())
    if minimize:
        dag = DagInstance(dag.n, tuple(e._replace(base=e.improved, improved=e.base)
                                       for e in dag.edges), dag.source, dag.sink)
    return dag, minimize


def _budget(dag, percent):
    return sum(e.cost for e in dag.edges) * percent // 100


def _objective(dag, budget, minimize):
    solution = (wisdag_budget_exact if minimize else wildag_budget_exact)(dag, budget)
    return solution.total_length, solution.total_spend


@given(dags(), st.integers(0, 50), st.data())
@settings(max_examples=10, deadline=None)
def test_exact_dag_objective_and_spend_ignore_vertex_labels(case, percent, data):
    dag, minimize = case
    perm = data.draw(st.permutations(range(dag.n)))
    moved = DagInstance(dag.n, tuple(
        DagEdge(e.id, perm[e.tail], perm[e.head], e.base, e.improved, e.cost)
        for e in dag.edges), perm[dag.source], perm[dag.sink])
    budget = _budget(dag, percent)
    assert _objective(moved, budget, minimize) == _objective(dag, budget, minimize)


@given(dags(n_lo=30, n_hi=100), st.lists(st.integers(0, 50), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_exact_dag_objective_never_worsens_as_the_budget_grows(case, percents):
    dag, minimize = case
    sign = 1 if minimize else -1
    lengths = [sign * _objective(dag, _budget(dag, p), minimize)[0] for p in sorted(percents)]
    assert lengths == sorted(lengths, reverse=True), lengths


@given(st.integers(100, 200), st.integers(2, 4), st.integers(0, 2**30), st.integers(0, 60),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
@settings(max_examples=20, deadline=None)
def test_fptas_stays_within_eps_of_the_exact_dp(n, density, seed, budget, eps):
    """Lengths up to 10**5, as in the dag-wide FPTAS family, and costs up to
    10 under a budget of at most 60."""
    dag = generate.gen_random_dag(n, density * n, max_len=10**5, max_cost=10, seed=seed)
    longest, exact = wildag_fptas(dag, budget, eps), wildag_budget_exact(dag, budget)
    assert longest.total_length >= (1 - eps) * exact.total_length
    assert longest.total_spend <= budget
    dag = DagInstance(dag.n, tuple(e._replace(base=e.improved, improved=e.base)
                                   for e in dag.edges), dag.source, dag.sink)
    shortest, exact = wisdag_fptas(dag, budget, eps), wisdag_budget_exact(dag, budget)
    assert shortest.total_length <= (1 + eps) * exact.total_length
    assert shortest.total_spend <= budget
