import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate, imst_random
from netupgrade.cli import main
from netupgrade.imst_random import (
    RandomizedConfig,
    _keep_probability,
    _map_lengths,
    imst_solve,
    minimize_transform,
    sample_improved_forest,
)
from netupgrade.instances import (
    ImprovementLevel,
    InvalidInstanceError,
    UpgradableEdge,
    UpgradableGraph,
)
from netupgrade.oracle import exact_imst, spanning_trees


def cfg(eps="3/10", delta="1/5", seed=0, trials=None):
    return RandomizedConfig(Fraction(eps), Fraction(delta), seed, trials)


def shift_lengths(graph, shift, n_scale):
    """The analysis' length shift, which the solver never applies: every
    level length x as x * n_scale + shift."""
    return _map_lengths(graph, lambda x: x * n_scale + shift)


def test_config_derived_quantities():
    c = cfg(eps="1/2")
    ep = Fraction(1, 4)
    assert c.epsilon_prime == ep
    # failure per trial is 2/e, so t = ceil(ln(1/delta) / ln(e/2))
    want = math.ceil(math.log(5) / math.log(math.e / 2))
    assert cfg(delta="1/5").num_trials == want


def test_trial_count_reads_log_one_over_delta_exactly():
    # float(10**-400) is 0.0; the count reads delta's numerator and denominator
    assert cfg(delta=Fraction(1, 10**400)).num_trials == 3002
    deltas = ["1/2", "1/3", "1/4", "1/5", "3/10", "1/10", "1/20", "1/100"]
    assert [cfg(delta=d).num_trials for d in deltas] == [3, 4, 5, 6, 4, 8, 10, 16]


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(eps="0")
    with pytest.raises(ValueError):
        cfg(delta="1")
    with pytest.raises(ValueError):
        cfg(trials=0)


def test_shift_lengths_moves_every_level():
    g = generate.gen_random_graph(4, 5, seed=1)
    shifted = shift_lengths(g, 7, g.n)
    for e, se in zip(g.edges, shifted.edges):
        for lvl, slvl in zip(e.ladder, se.ladder):
            assert slvl.length == lvl.length * g.n + 7
            assert slvl.cost == lvl.cost
    assert shift_lengths(g, 0, 1) == g


def test_sampling_keeps_tree_topology():
    """A trial only lowers levels of the relaxed tree: it reverts an in-order
    subsequence of its upgrade records, one draw per record, and a record
    stays when its draw is below ``keep``."""
    records = [(0, 5, 2), (2, 3, 1), (5, 7, 4), (6, 1, 1)]
    draws = iter([0.1, 0.9, 0.5, 0.7])
    assert sample_improved_forest(records, 0.6, lambda: next(draws)) == [(2, 3, 1), (6, 1, 1)]
    assert next(draws, None) is None
    rng = random.Random(5)
    reverted = sample_improved_forest(records, _keep_probability(Fraction(1, 4)), rng.random)
    rest = iter(records)
    assert all(rec in rest for rec in reverted)
    assert sample_improved_forest(records, 1.0, rng.random) == []
    assert sample_improved_forest(records, 0.0, rng.random) == records


def test_sampling_is_seed_deterministic():
    records = [(eid, eid + 1, 1) for eid in range(40)]
    keep = _keep_probability(Fraction(1, 4))
    a = sample_improved_forest(records, keep, random.Random(9).random)
    b = sample_improved_forest(records, keep, random.Random(9).random)
    assert a == b
    assert 0 < len(a) < len(records)


def lvl(length, cost):
    return ImprovementLevel(length, cost)


def test_minimize_transform_maps_lengths_to_max_minus_length():
    g = UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (lvl(9, 0), lvl(4, 2))),
        UpgradableEdge(1, 1, 2, (lvl(6, 0), lvl(1, 1))),
        UpgradableEdge(2, 0, 2, (lvl(3, 0),)),
    ))
    # the largest length is 9: x -> 9 - x, costs unchanged
    assert minimize_transform(g) == UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (lvl(0, 0), lvl(5, 2))),
        UpgradableEdge(1, 1, 2, (lvl(3, 0), lvl(8, 1))),
        UpgradableEdge(2, 0, 2, (lvl(6, 0),)),
    ))


def test_minimize_transform_rejects_nonmonotone():
    g = UpgradableGraph(2, (
        UpgradableEdge(0, 0, 1, (lvl(5, 0), lvl(9, 1), lvl(2, 2))),))
    with pytest.raises(InvalidInstanceError):
        minimize_transform(g)


def test_solution_always_budget_feasible():
    g = generate.gen_random_graph(6, 9, seed=3)
    for budget in (0, 2, 5, 11):
        res = imst_solve(g, budget, cfg(seed=4))
        assert res.solution.total_spend <= budget
        assert len(res.solution.choices) == g.n - 1


def test_zero_budget_matches_base_optimum():
    g = generate.gen_random_graph(6, 9, seed=3)
    res = imst_solve(g, 0, cfg())
    assert res.solution.total_length == exact_imst(g, 0)[0]


def test_loose_budget_hits_all_improved_optimum():
    g = generate.gen_random_graph(5, 7, seed=6)
    budget = sum(e.ladder[-1].cost for e in g.edges)
    res = imst_solve(g, budget, cfg())
    assert res.solution.total_length == exact_imst(g, budget)[0]


def test_master_seed_determinism():
    g = generate.gen_random_graph(6, 9, seed=3)
    a = imst_solve(g, 7, cfg(seed=42))
    b = imst_solve(g, 7, cfg(seed=42))
    assert a.solution == b.solution
    assert a.trials == b.trials and a.best_trial == b.best_trial


def test_trial_summaries_recorded():
    g = generate.gen_random_graph(5, 7, seed=8)
    res = imst_solve(g, 4, cfg(trials=5, seed=1))
    assert len(res.trials) == 5
    for t in res.trials:
        assert t.feasible == (t.spend <= 4)


def reversed_ladders(up):
    """A min-instance: each ladder's lengths reversed, its costs kept."""
    return UpgradableGraph(up.n, tuple(
        UpgradableEdge(e.id, e.u, e.v, tuple(
            ImprovementLevel(lv.length, lc.cost)
            for lv, lc in zip(reversed(e.ladder), e.ladder)))
        for e in up.edges))


def test_fallback_is_the_networkx_spanning_tree_on_level_0_lengths():
    """Runs in both directions that return neither the relaxed tree (it
    overspends) nor a trial (none fits) return the maximum spanning tree on
    level-0 lengths, or the minimum one when minimizing, as networkx builds
    it: the same total always, and the same edges when no two weights tie."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261021)
    fallbacks, distinct = {False: 0, True: 0}, 0
    for _ in range(800):
        minimize = rng.random() < 0.5
        n = rng.randint(3, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        up = generate.gen_random_graph(n, m, max_len=rng.choice((6, 10**6)), max_cost=6,
                                       levels=3, seed=rng.randrange(1 << 30))
        g = reversed_ladders(up) if minimize else up
        budget = rng.randint(0, sum(e.ladder[-1].cost for e in g.edges) // 4)
        config = cfg(rng.choice(("3/10", "1/2")), seed=rng.randrange(10_000),
                     trials=rng.choice((1, 2)))
        res = imst_solve(g, budget, config, minimize=minimize)
        relaxed_spend = imst_random._plan(g, budget, config.epsilon_prime, minimize)[2]
        if res.best_trial is not None or relaxed_spend <= budget:
            continue
        fallbacks[minimize] += 1
        base = nx.Graph()
        base.add_nodes_from(range(g.n))
        base.add_edges_from((e.u, e.v, {"weight": e.ladder[0].length, "id": e.id})
                            for e in g.edges)
        tree = (nx.minimum_spanning_tree if minimize else nx.maximum_spanning_tree)(base)
        assert set(res.solution.choices.values()) == {0} and res.solution.total_spend == 0
        assert res.solution.total_length == tree.size(weight="weight")
        if len({e.ladder[0].length for e in g.edges}) == g.m:
            assert set(res.solution.choices) == {d["id"] for *_, d in tree.edges(data=True)}
            distinct += 1
    assert min(fallbacks.values()) >= 10 and distinct >= 10, (fallbacks, distinct)


@given(st.integers(0, 5000), st.integers(3, 6), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_minimize_returns_feasible_tree(seed, n, budget):
    m = min(n * (n - 1) // 2, n + 1)
    down = reversed_ladders(generate.gen_random_graph(n, m, max_len=9, max_cost=4, seed=seed))
    res = imst_solve(down, budget, cfg(seed=seed), minimize=True)
    assert res.solution.total_spend <= budget
    assert len(res.solution.choices) == down.n - 1


def brute_force_minimum(graph, budget):
    """The shortest budget-feasible tree's length, over every spanning tree
    times every level of each of its edges."""
    best = None
    for tree in spanning_trees(graph.n, [(e.u, e.v) for e in graph.edges]):
        for levels in itertools.product(*(graph.edges[i].ladder for i in tree)):
            if sum(lvl.cost for lvl in levels) <= budget:
                length = sum(lvl.length for lvl in levels)
                best = length if best is None else min(best, length)
    return best


def minimize_runs(graph, budget, eps, seeds):
    """(OPT, the additive bound OPT + eps*((n - 1)*M - OPT), the lengths that
    master seeds 0 .. seeds - 1 return), checking spend <= budget on each."""
    opt = brute_force_minimum(graph, budget)
    big_m = max(lvl.length for e in graph.edges for lvl in e.ladder)
    lengths = []
    for seed in range(seeds):
        sol = imst_solve(graph, budget, cfg(eps=eps, seed=seed), minimize=True).solution
        assert sol.total_spend <= budget
        lengths.append(sol.total_length)
    return opt, opt + Fraction(eps) * ((graph.n - 1) * big_m - opt), lengths


def test_minimize_meets_the_additive_bound():
    # criterion 3's test at delta = 1/5: per instance, the share of seeds
    # within the bound stays above 1 - delta less three standard deviations
    seeds, target = 20, 0.8
    floor = target - 3 * math.sqrt(target * (1 - target) / seeds)
    rng = random.Random(1212)
    beaten = 0
    for _ in range(40):
        n = rng.randint(4, 6)
        m = rng.randint(n, min(n * (n - 1) // 2, n + 3))
        g = reversed_ladders(generate.gen_random_graph(
            n, m, max_len=rng.choice((9, 30, 100)), max_cost=4, levels=3,
            seed=rng.randrange(1 << 30)))
        total = sum(e.ladder[-1].cost for e in g.edges)
        budget = rng.randint(total // 8, total // 2)
        opt, bound, lengths = minimize_runs(g, budget, "3/10", seeds)
        assert min(lengths) >= opt
        assert sum(length <= bound for length in lengths) >= floor * seeds, (
            n, m, budget, opt, bound, lengths)
        beaten += max(lengths) > opt
    assert beaten > 0


def test_minimize_can_exceed_one_plus_eps_times_opt():
    # the reflection carries the maximizing bound over only additively
    g = reversed_ladders(generate.gen_random_graph(5, 6, max_len=30, max_cost=4,
                                                   levels=2, seed=74))
    opt, bound, lengths = minimize_runs(g, 8, "3/10", 20)
    assert (opt, bound, set(lengths)) == (20, Fraction(202, 5), {20, 23, 26, 27})
    assert max(lengths) > Fraction(13, 10) * opt


def test_fewer_trials_record_a_prefix_of_more():
    # the trials read one stream in turn, so trial i's draws do not depend
    # on how many trials follow it
    varied = 0
    for seed in range(12):
        g = generate.gen_random_graph(7, 12, levels=3, seed=seed)
        budget = sum(e.ladder[-1].cost for e in g.edges) // 2
        full = imst_solve(g, budget, cfg(seed=seed * 7919, trials=30)).trials
        for t in (1, 6, 29):
            assert imst_solve(g, budget, cfg(seed=seed * 7919, trials=t)).trials == full[:t]
        varied += len({s.length for s in full}) > 1
    assert varied > 6


def test_verify_trials_draw_pairwise_distinct_sequences(monkeypatch, capsys):
    """``verify --algo imst`` solves each instance at 20 master seeds
    (seed * 1_000_003 + t) with 6 trials each: 120 trials, none of which
    may replay another's draws."""
    per_trial = []
    real = imst_random.sample_improved_forest

    def recording(records, keep, draw):
        drawn = []

        def tap():
            drawn.append(draw())
            return drawn[-1]

        reverted = real(records, keep, tap)
        per_trial.append(tuple(drawn))
        return reverted

    monkeypatch.setattr(imst_random, "sample_improved_forest", recording)
    assert main(["verify", "--algo", "imst", "--count", "5", "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",True") for row in rows)
    assert len(per_trial) == 5 * 120
    for k in range(5):
        draws = per_trial[120 * k:120 * (k + 1)]
        assert all(draws) and len(set(draws)) == 120
