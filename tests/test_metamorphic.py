"""Metamorphic relations at sizes no oracle reaches.

The brute-force oracles stop at a dozen vertices, but some relations need no
ground truth.  The tree solvers pick their answer by copy id, never by vertex
label, so permuting the vertices leaves the two-cost tree unchanged.  A DAG's
best length and, among paths of that length, the least spend are canonical,
so they too survive a permutation; and a larger budget never gives a worse
length.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.dag_dp import wildag_budget_exact, wisdag_budget_exact
from netupgrade.instances import DagEdge, DagInstance, MultiGraph, expand_to_multigraph
from netupgrade.two_cost import two_cost_mst

EPS = Fraction(1, 2)


@st.composite
def heavy_multigraphs(draw):
    """(multigraph, budget, vertex permutation): n = 20-40, m = 2n, and a
    budget at which at most the drawn 0-9 copies cost more than eps*B."""
    n = draw(st.integers(20, 40))
    g = generate.gen_random_graph(n, 2 * n, max_len=100, max_cost=100,
                                  levels=draw(st.integers(2, 3)),
                                  seed=draw(st.integers(0, 2**30)))
    mg = expand_to_multigraph(g)
    cost = sorted((c.cost for c in mg.copies), reverse=True)[draw(st.integers(0, 9))]
    return mg, -(-cost // EPS), draw(st.permutations(range(n)))


@given(heavy_multigraphs())
@settings(max_examples=40, deadline=None)
def test_two_cost_tree_ignores_vertex_labels(case):
    mg, budget, perm = case
    moved = MultiGraph(mg.n, tuple(c._replace(u=perm[c.u], v=perm[c.v]) for c in mg.copies))
    assert two_cost_mst(moved, budget, EPS) == two_cost_mst(mg, budget, EPS)


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
