"""Facts memoized on an instance: validation, a DAG's out-edge lists with its
topological order and its source reach, uimst's edge orders and the
randomized solver's relaxation plan, whose fallback is the base-length
spanning tree.

The memo must be invisible: solving an instance once or many times gives the
results of the unmemoized pipeline, failures are never remembered, and the
instance compares, hashes and prints as before.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from netupgrade import dag_dp, generate, imst_random, instances
from netupgrade.imst_random import (
    ImstResult,
    RandomizedConfig,
    TrialSummary,
    _keep_probability,
    _map_lengths,
    imst_solve,
    minimize_transform,
    sample_improved_forest,
)
from netupgrade.instances import (
    DagEdge,
    DagInstance,
    DisconnectedGraphError,
    ImprovementLevel,
    InvalidInstanceError,
    UpgradableEdge,
    UpgradableGraph,
    choices_from_copies,
    expand_to_multigraph,
    require_valid,
    solution_from_choices,
    validate,
)
from netupgrade.mst_uniform import max_spanning_tree, uimst_half_approx
from netupgrade.serialization import Problem, parse, serialize
from netupgrade.two_cost import two_cost_mst
from netupgrade._util import MASK64, UnionFind, splitmix64


def count_validations(monkeypatch) -> list:
    calls = []
    real = instances.validate
    monkeypatch.setattr(instances, "validate",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    return calls


# ------------------------------------------------------------ memo semantics

def test_repeated_solves_validate_once(monkeypatch):
    calls = count_validations(monkeypatch)
    g = generate.gen_random_graph(8, 13, seed=4)
    for seed in range(12):
        imst_solve(g, 9, RandomizedConfig(Fraction(3, 10), Fraction(1, 5), seed))
    for k in range(g.n):
        uimst_half_approx(g, k)
    assert len(calls) == 1


def test_parsed_instance_is_not_validated_again(monkeypatch):
    doc = {"kind": "wildag", "n": 3, "budget": 2,
           "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[5, 0], [2, 1]]},
                     {"id": 1, "u": 1, "v": 2, "ladder": [[4, 0], [1, 1]]}],
           "source": 0, "sink": 2, "directed": True}
    dag = parse(json.dumps(doc)).dag
    calls = count_validations(monkeypatch)
    dag_dp.wisdag_budget_exact(dag, 2)
    dag_dp.wisdag_uniform(dag, 1)
    assert calls == []


def invalid_graph():
    return UpgradableGraph(3, (
        UpgradableEdge(0, 0, 0, (ImprovementLevel(1, 1),)),
        UpgradableEdge(1, 1, 2, (ImprovementLevel(3, 0), ImprovementLevel(2, 1),
                                 ImprovementLevel(4, 2))),
    ))


def invalid_dag():
    # a cycle, a sink equal to the source and a decreasing ladder
    return DagInstance(2, (DagEdge(0, 0, 1, 5, 2, 1), DagEdge(1, 1, 0, 1, 1, 0)), 0, 0)


@pytest.mark.parametrize("make, solve", [
    (invalid_graph, lambda g: imst_solve(
        g, 3, RandomizedConfig(Fraction(1, 2), Fraction(1, 5)))),
    (invalid_graph, lambda g: uimst_half_approx(g, 1)),
    (invalid_graph, require_valid),
    (invalid_dag, lambda d: dag_dp.wildag_budget_exact(d, 1)),
    (invalid_dag, lambda d: dag_dp.wisdag_uniform(d, 1)),
    (invalid_dag, require_valid),
])
def test_failures_are_never_remembered(make, solve):
    instance = make()
    seen = []
    for _ in range(3):
        with pytest.raises(InvalidInstanceError) as exc:
            solve(instance)
        seen.append(exc.value.violations)
    assert seen[0] and seen[0] == seen[1] == seen[2]


def test_a_pass_counts_for_its_direction_only():
    dag = DagInstance(2, (DagEdge(0, 0, 1, 2, 5, 1),), 0, 1)
    require_valid(dag, improvement="increase")
    dag_dp.wildag_budget_exact(dag, 1)
    for _ in range(2):
        with pytest.raises(InvalidInstanceError, match="improved length above base"):
            require_valid(dag, improvement="decrease")
        with pytest.raises(InvalidInstanceError, match="improved length above base"):
            dag_dp.wisdag_budget_exact(dag, 1)


def test_memo_is_invisible_to_eq_hash_and_repr():
    g = generate.gen_random_graph(7, 11, seed=9)
    twin = generate.gen_random_graph(7, 11, seed=9)
    dag = generate.gen_random_dag(7, 12, seed=3)
    before = [(repr(x), hash(x)) for x in (g, dag)]
    imst_solve(g, 6, RandomizedConfig(Fraction(3, 10), Fraction(1, 5), 1))
    imst_solve(g, 6, RandomizedConfig(Fraction(3, 10), Fraction(1, 5), 2), minimize=False)
    uimst_half_approx(g, 2)
    dag_dp.wildag_budget_exact(dag, 4)
    assert [(repr(x), hash(x)) for x in (g, dag)] == before
    assert g == twin and twin == g
    assert dag == generate.gen_random_dag(7, 12, seed=3)


def test_topological_order_returns_a_fresh_list():
    dag = generate.gen_random_dag(9, 20, seed=5)
    order = dag.topological_order()
    expected = list(order)
    order.reverse()
    order.append(99)
    assert dag.topological_order() == expected
    assert dag.topological_order() is not dag.topological_order()


def test_a_cycle_is_reported_on_every_call():
    dag = DagInstance(3, (DagEdge(0, 0, 1, 1, 2, 1), DagEdge(1, 1, 2, 1, 2, 1),
                          DagEdge(2, 2, 1, 1, 2, 1)), 0, 2)
    for _ in range(3):
        with pytest.raises(InvalidInstanceError, match="not acyclic"):
            dag.topological_order()
        assert validate(dag) == ["not acyclic"]
        with pytest.raises(InvalidInstanceError, match="not acyclic"):
            dag_dp.wildag_uniform(dag, 1)
    assert None not in instances._memo(dag).values()


def test_parse_and_solve_order_and_walk_from_the_source_once(monkeypatch):
    kahn, walks = [], []
    real_kahn, real_walk = instances._topological_order, instances.reachable_from
    monkeypatch.setattr(instances, "_topological_order",
                        lambda *a: kahn.append(a) or real_kahn(*a))
    monkeypatch.setattr(instances, "reachable_from",
                        lambda *a: walks.append(a) or real_walk(*a))
    doc = serialize(Problem("wildag", 6, dag=generate.gen_random_dag(12, 30, seed=2)))
    dag = parse(doc).dag
    dag_dp.wildag_budget_exact(dag, 6)
    dag_dp.wildag_fptas(dag, 6, Fraction(1, 3))
    assert len(kahn) == 1 and len(walks) == 1


def test_solution_totals_read_from_the_kept_ladders():
    rng = random.Random(5)
    for seed in range(20):
        g = generate.gen_random_graph(7, 12, levels=3, seed=seed)
        for _ in range(3):
            choices = {e.id: rng.randrange(len(e.ladder)) for e in g.edges[:6]}
            sol = solution_from_choices(g, choices)
            steps = [g.edges[eid].ladder[lvl] for eid, lvl in choices.items()]
            assert sol.choices == choices
            assert sol.total_length == sum(s.length for s in steps)
            assert sol.total_spend == sum(s.cost for s in steps)


# ------------------------------------- equivalence with the unmemoized pipeline

def analysis_shift(graph, config):
    """The length shift of the analysis, which the solver skips: every
    length x as n*x + ceil(3(1+eps')^2/eps'^4)."""
    ep = config.epsilon_prime
    shift = math.ceil(3 * (1 + ep) ** 2 / ep ** 4)
    return _map_lengths(graph, lambda x: x * graph.n + shift)


def sample_tree(graph, choices, eps_prime, rng):
    """One trial as a tree: ``choices`` with every upgraded edge that
    ``sample_improved_forest`` reverts set to level 0, drawing one
    ``rng.random()`` per upgraded edge in ascending edge id."""
    sampled = dict(sorted(choices.items()))
    upgraded = [eid for eid, lvl in sampled.items() if lvl > 0]
    for eid in sample_improved_forest(upgraded, _keep_probability(eps_prime), rng.random):
        sampled[eid] = 0
    return solution_from_choices(graph, sampled)


def reference_imst_solve(graph, budget, config, minimize=False):
    """The solver before its relaxation was memoized: validate, shift,
    expand and relax on every call, draw every trial as a tree, then return
    the relaxed tree if it fits, else the first feasible trial of best
    length, else the fallback."""
    assert validate(graph, improvement="decrease" if minimize else "increase") == []
    assert budget >= 0
    work = minimize_transform(graph) if minimize else graph
    shifted = analysis_shift(work, config)
    mg = expand_to_multigraph(shifted)
    choices = choices_from_copies(mg, two_cost_mst(mg, budget, config.epsilon_prime).copy_ids)
    pipeline_sol = solution_from_choices(graph, choices)
    base_edges = [(e.id, e.u, e.v, e.ladder[0].length) for e in work.edges]
    fallback = solution_from_choices(
        graph, {eid: 0 for eid in max_spanning_tree(work.n, base_edges)})
    sampled, trials = [], []
    rng = random.Random(splitmix64(config.master_seed & MASK64))
    for i in range(config.num_trials):
        sampled.append(sample_tree(graph, choices, config.epsilon_prime, rng))
        trials.append(TrialSummary(i, sampled[i].total_length, sampled[i].total_spend,
                                   sampled[i].total_spend <= budget))
    if pipeline_sol.total_spend <= budget:
        return ImstResult(pipeline_sol, trials, None)
    feasible = [i for i in range(len(trials)) if trials[i].feasible]
    if not feasible:
        return ImstResult(fallback, trials, None)
    sign = -1 if minimize else 1
    # the first of equal lengths wins
    best = max(feasible, key=lambda i: (sign * trials[i].length, -i))
    return ImstResult(sampled[best], trials, best)


def ladder_graph(rng: random.Random, minimize: bool, min_levels: int = 2) -> UpgradableGraph:
    """A random graph whose edges have min_levels-4 level ladders, lengths
    falling along the ladder when ``minimize``."""
    n = rng.randint(3, 8)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
    up = generate.gen_random_graph(n, m, max_len=rng.choice((6, 30)), max_cost=5,
                                   levels=4, seed=rng.randrange(1 << 30))
    edges = []
    for e in up.edges:
        ladder = e.ladder[:rng.randint(min_levels, 4)]
        if minimize:
            ladder = tuple(ImprovementLevel(lv.length, lc.cost)
                           for lv, lc in zip(reversed(ladder), ladder))
        edges.append(UpgradableEdge(e.id, e.u, e.v, ladder))
    return UpgradableGraph(n, tuple(edges))


def test_imst_solve_equals_the_unmemoized_pipeline():
    rng = random.Random(20261018)
    cases = fallbacks = 0
    for _ in range(320):
        minimize = rng.random() < 0.5
        g = ladder_graph(rng, minimize)
        total = sum(e.ladder[-1].cost for e in g.edges)
        budget = rng.randint(0, max(1, total // 2))
        eps = rng.choice((Fraction(3, 10), Fraction(1, 2)))
        for seed in rng.sample(range(10_000), 3):
            config = RandomizedConfig(eps, Fraction(1, 5), seed, rng.choice((None, 1, 3)))
            got = imst_solve(g, budget, config, minimize=minimize)
            want = reference_imst_solve(g, budget, config, minimize=minimize)
            assert (got.solution, got.trials, got.best_trial) == (
                want.solution, want.trials, want.best_trial)
            cases += 1
            fallbacks += got.best_trial is None
    assert cases == 960 and fallbacks > 0


def test_returned_trees_do_not_share_the_plan():
    g = generate.gen_random_graph(6, 9, seed=3)
    config = RandomizedConfig(Fraction(3, 10), Fraction(1, 5), 0)
    first = imst_solve(g, 7, config).solution
    first.choices.clear()
    assert imst_solve(g, 7, config).solution == reference_imst_solve(g, 7, config).solution


def relaxed_choices(graph, budget, config, minimize):
    """The relaxed tree's edge -> level choices, as the reference computes them."""
    work = minimize_transform(graph) if minimize else graph
    mg = expand_to_multigraph(analysis_shift(work, config))
    return choices_from_copies(mg, two_cost_mst(mg, budget, config.epsilon_prime).copy_ids)


def upgrade_heavy_cases(seed: int, graphs: int):
    """(graph, budget, config, minimize, relaxed choices) on 3-4 level
    ladders with budgets up to the full ladder cost, so most tree edges of
    the relaxed tree upgrade and most trials revert some of them."""
    rng = random.Random(seed)
    for _ in range(graphs):
        minimize = rng.random() < 0.5
        g = ladder_graph(rng, minimize, min_levels=3)
        total = sum(e.ladder[-1].cost for e in g.edges)
        budget = rng.randint(total // 8, total)
        eps = rng.choice((Fraction(3, 10), Fraction(1, 2)))
        config = RandomizedConfig(eps, Fraction(1, 5))
        relaxed = relaxed_choices(g, budget, config, minimize)
        for master_seed in rng.sample(range(10_000), 3):
            config = RandomizedConfig(eps, Fraction(1, 5), master_seed,
                                      rng.choice((None, 1, 40)))
            yield g, budget, config, minimize, relaxed


def test_upgrade_heavy_solves_equal_the_unmemoized_pipeline():
    cases = upgraded = tree_edges = 0
    winners = {"reverting trial": 0, "relaxed tree": 0, "fallback": 0}
    for g, budget, config, minimize, relaxed in upgrade_heavy_cases(20261019, 140):
        got = imst_solve(g, budget, config, minimize=minimize)
        want = reference_imst_solve(g, budget, config, minimize=minimize)
        assert (got.solution, got.trials, got.best_trial) == (
            want.solution, want.trials, want.best_trial)
        cases += 1
        upgraded += sum(lvl > 0 for lvl in relaxed.values())
        tree_edges += len(relaxed)
        # a winning trial reverts some edge: one that reverts none spends
        # what the relaxed tree spends, and that tree is returned if it fits
        if got.solution.choices == relaxed:
            winners["relaxed tree"] += 1
            assert got.best_trial is None
        elif got.best_trial is None:
            winners["fallback"] += 1
        else:
            winners["reverting trial"] += 1
    assert cases >= 400 and 2 * upgraded > tree_edges
    assert min(winners.values()) > 0, winners


def test_best_trial_names_the_returned_tree():
    # the relaxed tree fits on about half of these and a trial wins on most
    # of the rest, so both outcomes are checked
    relaxed_returned = trial_returned = 0
    for seed in range(30):
        g = generate.gen_random_graph(7, 12, levels=3, seed=seed)
        budget = sum(e.ladder[-1].cost for e in g.edges) // 2
        config = RandomizedConfig(Fraction(3, 10), Fraction(1, 5), seed)
        res = imst_solve(g, budget, config)
        relaxed = solution_from_choices(g, relaxed_choices(g, budget, config, False))
        if relaxed.total_spend <= budget:
            assert (res.solution, res.best_trial) == (relaxed, None)
            relaxed_returned += 1
        if res.best_trial is not None:
            best = res.trials[res.best_trial]
            assert (best.length, best.spend, best.feasible) == (
                res.solution.total_length, res.solution.total_spend, True)
            trial_returned += 1
    assert relaxed_returned > 0 and trial_returned > 0


def test_every_trial_replays_through_sample_improved_forest():
    lengthened = 0
    for g, budget, config, minimize, relaxed in upgrade_heavy_cases(7, 40):
        res = imst_solve(g, budget, config, minimize=minimize)
        relaxed_length = solution_from_choices(g, relaxed).total_length
        # one generator per solve, read by the trials in order
        rng = random.Random(splitmix64(config.master_seed & MASK64))
        for summary in res.trials:
            sampled = sample_tree(g, relaxed, config.epsilon_prime, rng)
            assert (sampled.total_length, sampled.total_spend) == (
                summary.length, summary.spend)
            # on a falling ladder a reverted edge lengthens the tree
            lengthened += minimize and summary.length > relaxed_length
    assert lengthened > 0


def test_a_warm_solve_builds_at_most_one_tree(monkeypatch):
    g = generate.gen_random_graph(12, 24, levels=3, seed=11)
    budget = sum(e.ladder[-1].cost for e in g.edges) // 2
    eps, delta = Fraction(3, 10), Fraction(1, 5)
    imst_solve(g, budget, RandomizedConfig(eps, delta))
    built = []
    real = imst_random.solution_from_choices
    monkeypatch.setattr(imst_random, "solution_from_choices",
                        lambda *a: built.append(a) or real(*a))
    for seed in range(20):
        before = len(built)
        imst_solve(g, budget, RandomizedConfig(eps, delta, seed, 40))
        assert len(built) - before <= 1


# Test-local copies of two helpers no solver calls any more: the size-capped
# greedy forest on improved lengths and its greedy extension to a spanning
# tree, which uimst_half_approx now runs as one Kruskal sweep.

def max_forest_capped(n, edges, k):
    """Edge ids of the greedy maximum forest with at most k edges."""
    if k < 0:
        raise ValueError("cap must be nonnegative")
    uf, chosen = UnionFind(n), []
    for eid, u, v, _w in sorted(edges, key=lambda e: (-e[3], e[0])):
        if len(chosen) >= k:
            break
        if uf.union(u, v):
            chosen.append(eid)
    return tuple(chosen)


def extend_forest_to_tree(n, forest_ids, all_edges, fill_edges):
    """Grow a forest to a spanning tree with fill edges by descending weight;
    ``all_edges`` supplies endpoints for the forest ids."""
    by_id = {e[0]: e for e in all_edges}
    uf = UnionFind(n)
    for eid in forest_ids:
        _, u, v, _w = by_id[eid]
        if not uf.union(u, v):
            raise ValueError("forest contains a cycle")
    tree = list(forest_ids)
    for eid, u, v, _w in sorted(fill_edges, key=lambda e: (-e[3], e[0])):
        if eid not in forest_ids and uf.union(u, v):
            tree.append(eid)
    if len(tree) != n - 1:
        raise DisconnectedGraphError("graph is not connected")
    return tree


def reference_uimst(graph, k):
    assert validate(graph) == []
    base = [(e.id, e.u, e.v, e.ladder[0].length) for e in graph.edges]
    improved = [(e.id, e.u, e.v, e.ladder[1].length) for e in graph.edges]
    sol1 = solution_from_choices(graph, {eid: 0 for eid in max_spanning_tree(graph.n, base)})
    forest = max_forest_capped(graph.n, improved, k)
    tree2 = extend_forest_to_tree(graph.n, forest, improved, base)
    sol2 = solution_from_choices(graph, {eid: int(eid in forest) for eid in tree2})
    return sol1 if sol1.total_length > sol2.total_length else sol2


def test_uimst_equals_the_unmemoized_solver_for_every_k():
    small = [(3 + seed % 8, 12, seed) for seed in range(60)]
    # the benchmark's tree-resample sizes (n = 20-40, m = 2n), with ties and without
    large = [(n, max_len, seed) for seed, n in enumerate(range(20, 41, 5))
             for max_len in (12, 100)]
    for n, max_len, seed in small + large:
        g = generate.gen_random_graph(n, min(n * (n - 1) // 2, 2 * n), max_len=max_len,
                                      seed=seed)
        for k in range(n + 1):
            assert uimst_half_approx(g, k) == reference_uimst(g, k)


def test_uimst_results_stay_fresh_across_repeated_calls():
    # the ladder check and edge orders are kept on the graph, so a caller
    # editing one result must not change any later one; a falling copy of the
    # graph is rejected on every call
    for seed in range(40):
        n = 3 + seed % 6
        g = generate.gen_random_graph(n, min(n * (n - 1) // 2, 2 * n), max_len=12, seed=seed)
        for k in range(n):
            first = uimst_half_approx(g, k)
            first.choices.clear()
            first.choices[n] = 1
            assert uimst_half_approx(g, k) == reference_uimst(g, k)
        flipped = UpgradableGraph(n, tuple(
            UpgradableEdge(e.id, e.u, e.v, (ImprovementLevel(e.ladder[1].length, 0),
                                            ImprovementLevel(e.ladder[0].length,
                                                             e.ladder[1].cost)))
            for e in g.edges))
        for k in range(n):
            with pytest.raises(InvalidInstanceError, match="ladder lengths not nondecreasing"):
                uimst_half_approx(flipped, k)


def test_uimst_ladder_check_is_never_remembered_as_a_pass():
    g = generate.gen_random_graph(5, 7, levels=3, seed=2)
    for k in (1, 1, 0):
        with pytest.raises(ValueError, match="two-level"):
            uimst_half_approx(g, k)
    two_level = generate.gen_random_graph(5, 7, seed=2)
    uimst_half_approx(two_level, 1)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        uimst_half_approx(two_level, -1)


def test_each_direction_keeps_its_own_plan():
    # one graph solved both ways keeps a separate plan per direction
    g = UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (ImprovementLevel(9, 0), ImprovementLevel(9, 5))),
        UpgradableEdge(1, 1, 2, (ImprovementLevel(8, 0), ImprovementLevel(8, 5))),
        UpgradableEdge(2, 0, 2, (ImprovementLevel(2, 0), ImprovementLevel(2, 5))),
    ))
    config = RandomizedConfig(Fraction(1, 2), Fraction(1, 5))
    high = imst_solve(g, 0, config)
    low = imst_solve(g, 0, config, minimize=True)
    assert high.solution.total_length == 17 and low.solution.total_length == 10
    assert imst_solve(g, 0, config).solution == high.solution
    assert imst_random._plan(g, 0, config.epsilon_prime, False)[4] == (0, 1)
    assert imst_random.imst_solve(g, 0, config, minimize=True).solution == low.solution
