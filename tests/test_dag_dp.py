import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netupgrade import dag_dp, generate
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wildag_uniform,
    wisdag_budget_exact,
    wisdag_fptas,
    wisdag_uniform,
)
from netupgrade.imst_random import RandomizedConfig
from netupgrade.instances import (
    DagEdge,
    DagInstance,
    evaluate_path,
    expand_to_multigraph,
    st_edges,
)
from netupgrade.oracle import exact_wildag, exact_wisdag
from netupgrade.two_cost import two_cost_mst


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


def test_tree_solvers_read_float_eps_as_the_fptas_does():
    # a float is the decimal it prints as: 0.3 is 3/10, not its binary value
    config = RandomizedConfig(0.3, 0.2)
    assert (config.epsilon, config.delta) == (Fraction(3, 10), Fraction(1, 5))
    for seed in range(30):
        mg = expand_to_multigraph(generate.gen_random_graph(8, 12, max_len=20, max_cost=10,
                                                            seed=seed))
        for budget in (10, 20, 30):
            assert two_cost_mst(mg, budget, 0.3) == two_cost_mst(mg, budget, Fraction(3, 10))


def test_fptas_eps_range_checked():
    dag = generate.gen_random_dag(4, 4, seed=0)
    with pytest.raises(ValueError):
        wildag_fptas(dag, 3, 0)
    with pytest.raises(ValueError):
        wildag_fptas(dag, 3, 1)


# ------------------------------------------- the frontier DP against a reference

INF = float("inf")


def reference_frontiers(dag, budget, minimize, weights):
    """((edge ids, flags), pairs): the frontier DP before spend-indexed rows
    and before out-edges were skipped by a bound.  A dict row per vertex
    reads every out-edge, and the (edge id, improved) step of each spend's
    best length is recorded as its candidate is made, so the path is read
    back from those records.  pairs[v] is v's frontier."""
    sign = 1 if minimize else -1
    out = {}
    for e in st_edges(dag):
        out.setdefault(e.tail, []).append(e)
    pairs = {dag.sink: [(0, 0)]}
    via = {}
    for v in reversed(dag.topological_order()):
        if v not in out:
            continue
        length = {}
        how = via[v] = {}
        best = length.get
        for e in out[v]:
            down, eid = pairs[e.head], e.id
            base, improved, price = weights[eid]
            step = sign * base
            for w, s in down:
                w += step
                if w < best(s, INF):
                    length[s] = w
                    how[s] = (eid, False)
            step, room = sign * improved, budget - price
            for w, s in down:
                if s > room:
                    break
                w += step
                s += price
                if w < best(s, INF):
                    length[s] = w
                    how[s] = (eid, True)
        kept, floor = [], INF
        for s in sorted(length):
            if length[s] < floor:
                floor = length[s]
                kept.append((floor, s))
        pairs[v] = kept
    s = pairs[dag.source][-1][1]
    v, edge_ids, flags = dag.source, [], []
    while v != dag.sink:
        eid, imp = via[v][s]
        edge_ids.append(eid)
        flags.append(imp)
        s -= weights[eid][2] if imp else 0
        v = dag.edges[eid].head
    return (edge_ids, flags), pairs


def reference_frontier_dp(dag, budget, minimize, weights):
    return reference_frontiers(dag, budget, minimize, weights)[0]


def frontier_case(seed, n, density, max_len, max_cost, budget_kind, minimize, table, unit):
    """(dag, budget, weights) as one solver would pass them to the DP: the
    budget or FPTAS table of a random DAG (lengths scaled by ``unit``), the
    uniform one at unit prices, or the free-upgrade one at budget 0."""
    m = min(n * (n - 1) // 2, density * n)
    dag = generate.gen_random_dag(n, m, max_len=max_len, max_cost=max_cost, seed=seed)
    if minimize:
        dag = flip(dag)
    budget = {"zero": 0, "small": 3 * max_cost // 2, "total": sum(e.cost for e in dag.edges),
              "huge": 10**12}[budget_kind]
    return (dag, *solver_table(dag, budget, minimize, table, unit))


def solver_table(dag, budget, minimize, table, unit):
    """(budget, weights) of ``table`` as its solver would pass them to the DP."""
    if table == "uniform":
        return min(budget, dag.n - 1), [(e.base, e.improved, 1) for e in dag.edges]
    if table == "free":
        return 0, [(e.base, e.improved, 0 if e.cost <= budget else 1) for e in dag.edges]
    k = unit if table == "fptas" else 1

    def scale(x):
        return -(-x // k) if minimize else x // k

    return budget, [(scale(e.base), scale(e.improved), e.cost) for e in dag.edges]


@given(seed=st.integers(0, 10**6), n=st.integers(2, 40), density=st.integers(1, 4),
       max_len=st.sampled_from([10, 1000, 10**7]), max_cost=st.sampled_from([10, 10**7]),
       budget_kind=st.sampled_from(["zero", "small", "total", "huge"]),
       minimize=st.booleans(), table=st.sampled_from(["budget", "uniform", "fptas", "free"]),
       unit=st.integers(2, 300))
@settings(max_examples=150, deadline=None)
# dense DAGs with costs up to 10**6 under an unbounded budget: rows of
# thousands of candidates; longest paths rebuilt over 62-83 steps, one shortest
@example(5, 150, 6, 1000, 10**6, "huge", False, "budget", 1)
@example(7, 150, 6, 1000, 10**6, "huge", False, "budget", 1)
@example(4, 150, 8, 1000, 10**6, "huge", False, "budget", 1)
@example(3, 150, 8, 1000, 10**6, "huge", True, "budget", 1)
def test_frontier_dp_matches_the_dict_row_reference(seed, n, density, max_len, max_cost,
                                                    budget_kind, minimize, table, unit):
    dag, budget, weights = frontier_case(seed, n, density, max_len, max_cost,
                                         budget_kind, minimize, table, unit)
    want = reference_frontier_dp(dag, budget, minimize, weights)
    assert dag_dp._frontier_dp(dag, budget, minimize, weights) == want


def traced_locals(marker, names, *args):
    """(``_frontier_dp(*args)``, [values]): the DP's result and the locals
    ``names`` of its frame, as a tuple, each time a line hook sees it reach
    the line holding ``marker``, before that line runs."""
    code = dag_dp._frontier_dp.__code__
    lines, first = inspect.getsourcelines(code)
    at = first + next(i for i, line in enumerate(lines) if marker in line)
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == at:
            seen.append(tuple(frame.f_locals[name] for name in names))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code is code else None

    before = sys.gettrace()
    sys.settrace(hook)
    try:
        return dag_dp._frontier_dp(*args), seen
    finally:
        sys.settrace(before)


def filled_rows(*args):
    """(``_frontier_dp(*args)``, [(row, reads)]): the DP's result and every
    row it fills, with the head pairs it read, taken at the statement that
    reads the frontier off the row."""
    return traced_locals("kept, floor = [], INF", ("row", "reads"), *args)


def test_both_row_kinds_run_and_list_rows_stay_within_twice_their_reads():
    """Costs up to 10 keep spend-indexed rows short enough to be lists; costs
    up to 10**7 spread spends so that rows fall back to dicts."""
    rng = random.Random(16)
    kinds = {list: 0, dict: 0}
    for i in range(80):
        minimize = rng.random() < 0.5
        dag, budget, weights = frontier_case(
            rng.randrange(10**6), rng.randint(10, 40), rng.randint(1, 4), 1000,
            (10, 10**7)[i % 2], rng.choice(["small", "total", "huge"]), minimize, "budget", 1)
        got, rows = filled_rows(dag, budget, minimize, weights)
        assert got == reference_frontier_dp(dag, budget, minimize, weights)
        for row, reads in rows:
            kinds[dict if isinstance(row, dict) else list] += 1
            if type(row) is list:
                assert len(row) <= 2 * reads
    assert kinds[list] > 100 and kinds[dict] > 100, kinds


@given(seed=st.integers(0, 10**6), n=st.integers(2, 40), density=st.integers(1, 4),
       max_len=st.sampled_from([10, 1000, 10**7]), max_cost=st.sampled_from([10, 10**7]),
       budget_kind=st.sampled_from(["zero", "small", "total", "huge"]),
       minimize=st.booleans(), table=st.sampled_from(["budget", "uniform", "fptas", "free"]),
       unit=st.integers(2, 300))
@settings(max_examples=100, deadline=None)
# free upgrades on a shortest-path DAG: the bound sits above the spend-0
# pair at 7 of 8 vertices, and 17 out-edges are skipped
@example(37629, 10, 4, 10, 10**7, "huge", True, "free", 2)
def test_every_vertex_keeps_the_reference_frontier(seed, n, density, max_len, max_cost,
                                                   budget_kind, minimize, table, unit):
    """Out-edges skipped by the spend-0 bound change no vertex's frontier.
    In the free table a price-0 upgrade puts an improved candidate at spend
    0, so there the bound can sit above the frontier's spend-0 pair."""
    dag, budget, weights = frontier_case(seed, n, density, max_len, max_cost,
                                         budget_kind, minimize, table, unit)
    path, pairs = reference_frontiers(dag, budget, minimize, weights)
    got, kept = traced_locals("pairs[v] = kept", ("v", "kept"), dag, budget, minimize, weights)
    assert got == path
    assert [v for v, _ in kept] == [v for v in reversed(dag.topological_order())
                                    if v in pairs and v != dag.sink]
    for v, frontier in kept:
        assert frontier == pairs[v], v


def dead_ends(scale):
    """Source 0, sink 4, and every kind of vertex off the source-sink paths:
    3 and 5 are reached but reach no sink, 5 only through the sink's own
    out-edge, 6 reaches the sink unreached, and 7 is isolated.  Lengths are
    multiplied by ``scale``."""
    arcs = [(0, 1, 1, 3, 2), (0, 2, 2, 2, 0), (1, 2, 0, 4, 1), (1, 4, 3, 5, 2),
            (2, 4, 1, 6, 3), (1, 3, 9, 9, 0), (3, 5, 9, 9, 0), (4, 5, 7, 8, 1),
            (6, 2, 9, 9, 0)]
    return DagInstance(8, tuple(DagEdge(i, u, v, scale * base, scale * improved, cost)
                                for i, (u, v, base, improved, cost) in enumerate(arcs)), 0, 4)


@pytest.mark.parametrize("scale", [1, 2**1100], ids=["unit", "2**1100"])
@pytest.mark.parametrize("minimize", [False, True])
@pytest.mark.parametrize("table", ["budget", "uniform", "fptas", "free"])
def test_vertices_off_every_source_sink_path_fill_no_row(table, minimize, scale):
    """A vertex that reaches no sink keeps the dead-end frontier and one the
    source cannot reach is never visited, so the DP fills the reference's
    vertices with its frontiers.  Lengths beyond the float range (2**1100)
    still add to a dead end's length."""
    dag = dead_ends(scale)
    if minimize:
        dag = flip(dag)
    for budget in (0, 2, 5):
        cap, weights = solver_table(dag, budget, minimize, table, 2)
        args = (dag, cap, minimize, weights)
        path, pairs = reference_frontiers(*args)
        got, kept = traced_locals("pairs[v] = kept", ("v", "kept"), *args)
        assert got == path
        assert [v for v, _ in kept] == [2, 1, 0]
        assert [v for v, _ in kept] == [v for v in reversed(dag.topological_order())
                                        if v in pairs and v != dag.sink]
        for v, frontier in kept:
            assert frontier == pairs[v], v
        assert dag_dp._path(dag, *got) == dag_dp._path(dag, *path)


@pytest.mark.parametrize("n, expected", [(25, 2028), (50, 15925)])
def test_the_transitive_tournament_reads_what_the_spend_0_bound_leaves(n, expected):
    """T_n: arcs i -> j for all i < j, base 1, improved 2, price 1, b = n - 1.
    w keeps n - w pairs, and v's bound is n - 1 - v (its edge to v + 1 at
    base length), so v reads w's pairs exactly when 2(n - w) >= n - 1 - v."""
    dag = DagInstance(n, tuple(DagEdge(i, u, v, 1, 2, 1) for i, (u, v) in
                               enumerate((u, v) for u in range(n) for v in range(u + 1, n))),
                      0, n - 1)
    weights = [(1, 2, 1)] * dag.m
    got, rows = filled_rows(dag, n - 1, False, weights)
    assert got == reference_frontier_dp(dag, n - 1, False, weights)
    assert sum(reads for _row, reads in rows) == expected == sum(
        n - w for v in range(n) for w in range(v + 1, n) if 2 * (n - w) >= n - 1 - v)


@given(seed=st.integers(0, 10**6), n=st.integers(2, 40), density=st.integers(1, 4),
       max_len=st.sampled_from([10, 1000]),
       budget_kind=st.sampled_from(["zero", "small", "total", "huge"]), minimize=st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_uniform_dp_reads_at_most_its_cap_plus_one_pairs_per_edge(
        seed, n, density, max_len, budget_kind, minimize):
    """The uniform table prices every upgrade 1 within b = min(budget, n - 1),
    so a frontier holds at most b + 1 pairs and the DP reads at most
    m * (b + 1) head pairs: the paper's O(n^3) once m < n^2."""
    dag, b, weights = frontier_case(seed, n, density, max_len, 10, budget_kind, minimize,
                                    "uniform", 1)
    _got, rows = filled_rows(dag, b, minimize, weights)
    assert sum(reads for _row, reads in rows) <= dag.m * (b + 1)


def doubling_chain(k):
    """Vertices 0..k, edge i from i to i + 1 with base 0 and improved length
    = cost = 2**i: at budget 2**k - 1 every subset of upgrades is a distinct
    spend at its own length, so every subset sum is a kept pair."""
    return DagInstance(k + 1, tuple(DagEdge(i, i, i + 1, 0, 2**i, 2**i) for i in range(k)),
                       0, k)


@pytest.mark.parametrize("k", [8, 10, 12, 14])
def test_the_budget_dp_reads_every_subset_sum_of_the_doubling_chain(k):
    """Vertex v reads the 2**(k - 1 - v) pairs of v + 1, 2**k - 1 in all."""
    dag, budget = doubling_chain(k), 2**k - 1
    weights = solver_table(dag, budget, False, "budget", 1)[1]
    got, rows = filled_rows(dag, budget, False, weights)
    assert got == (list(range(k)), [True] * k)
    assert [reads for _row, reads in rows] == [2**i for i in range(k)]
    assert sum(reads for _row, reads in rows) == 2**k - 1


def test_the_fptas_reads_grow_as_eps_halves_within_the_scaled_bound(monkeypatch):
    """The k = 12 doubling chain at B = 2**12 - 1 has W = 2048 and n = 13, so
    the FPTAS unit K = max(1, floor(eps*W/n)) falls from 78 at eps = 1/2 to 1
    at 1/128.  A unit K leaves at most floor(W/K) per edge, so a frontier
    holds at most min(B + 1, n*floor(W/K) + 1) pairs, and at K = 1 the DP is
    the exact one."""
    dag, budget = doubling_chain(12), 2**12 - 1
    width, n = dag.effective_max_length(budget), dag.n
    assert (width, n) == (2048, 13)
    calls, real = [], dag_dp._frontier_dp
    monkeypatch.setattr(dag_dp, "_frontier_dp", lambda *args: calls.append(args) or real(*args))
    epsilons = [Fraction(1, 2**j) for j in range(1, 8)]
    for eps in epsilons:
        wildag_fptas(dag, budget, eps)
    monkeypatch.undo()
    units, counts = [], []
    for eps, args in zip(epsilons, calls):
        unit = max(1, eps * width // n)
        assert args == (dag, budget, False, solver_table(dag, budget, False, "fptas", unit)[1])
        units.append(unit)
        counts.append(sum(reads for _row, reads in filled_rows(*args)[1]))
    assert units == [78, 39, 19, 9, 4, 2, 1]
    assert counts == [255, 447, 767, 1279, 3071, 4095, 4095]
    assert counts == sorted(counts)
    for unit, count in zip(units, counts):
        assert count <= dag.m * min(budget + 1, n * (width // unit) + 1)
    exact = filled_rows(dag, budget, False, solver_table(dag, budget, False, "budget", 1)[1])[1]
    assert counts[-1] == sum(reads for _row, reads in exact)


def test_an_edge_beaten_by_the_spend_0_bound_reads_no_head_pair():
    """The source reaches the sink directly at length 100, or through a
    chain of k edges that each add 1 when upgraded.  The chain's head keeps
    k + 1 pairs, all shorter than 100, so the source's row reads only the
    sink's one pair."""
    k = 5
    edges = [DagEdge(0, 0, k + 1, 100, 100, 1), DagEdge(1, 0, 1, 0, 1, 1)]
    edges += [DagEdge(i + 1, i, i + 1, 0, 1, 1) for i in range(1, k + 1)]
    dag = DagInstance(k + 2, tuple(edges), 0, k + 1)
    weights = [(e.base, e.improved, e.cost) for e in dag.edges]
    got, rows = filled_rows(dag, k, False, weights)
    assert got == reference_frontier_dp(dag, k, False, weights) == ([0], [False])
    # chain vertices k..1 read their heads' 1..k pairs; the source reads 1, not 1 + (k + 1)
    assert [reads for _row, reads in rows] == list(range(1, k + 1)) + [1]
