"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL summary line (visible under pytest -v
with -s, and in the captured output on failure).  Criterion 6 measures
machine-dependent wall times and is reported without gating the suite.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from netupgrade import generate
from netupgrade.dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wildag_uniform,
)
from netupgrade.imst_random import RandomizedConfig, _map_lengths, imst_solve
from netupgrade.instances import MultiGraph, EdgeCopy, expand_to_multigraph
from netupgrade.mst_uniform import uimst_half_approx
from netupgrade.oracle import (
    OracleBudget,
    exact_imst,
    exact_two_cost,
    exact_uimst_table,
    exact_wildag,
    knapsack_exact,
)
from netupgrade.serialization import Problem, parse, serialize
from netupgrade.two_cost import two_cost_mst


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def random_graph(rng: random.Random, n_max=7, n_min=4):
    n = rng.randint(n_min, n_max)
    m = min(n * (n - 1) // 2, n + 2)
    return generate.gen_random_graph(n, m, max_len=9, max_cost=5,
                                     seed=rng.randrange(1 << 30))


def random_dag(rng: random.Random, n_max=9, n_min=4, uniform=None, max_len=8):
    n = rng.randint(n_min, n_max)
    m = min(n * (n - 1) // 2, n + 2)
    return generate.gen_random_dag(n, m, max_len=max_len, max_cost=5,
                                   seed=rng.randrange(1 << 30),
                                   uniform_cost=uniform)


def test_criterion_1_uimst_half_approximation():
    rng = random.Random(101)
    checked = violations = 0
    for _ in range(500):
        g = random_graph(rng)
        opts = exact_uimst_table(g)
        for k in range(g.n):
            sol = uimst_half_approx(g, k)
            checked += 1
            if 2 * sol.total_length < opts[k] or len(sol.improved_edges()) > k:
                violations += 1
    ok = violations == 0
    report("criterion 1 (uimst half-approximation)", ok,
           f"{checked} (graph, cap) pairs over 500 graphs, "
           f"{violations} violations")
    assert ok


def test_criterion_2_two_cost_bicriteria():
    rng = random.Random(202)
    checked = violations = 0
    for _ in range(300):
        g = random_graph(rng, n_max=6, n_min=3)
        mg = expand_to_multigraph(g)
        budget = rng.randint(0, 12)
        opt, _c, _ids = exact_two_cost(mg, budget)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            res = two_cost_mst(mg, budget, eps)
            checked += 1
            if res.length < opt or res.cost > (1 + eps) * budget:
                violations += 1
    ok = violations == 0
    report("criterion 2 (two-cost (1, 1+eps) guarantee)", ok,
           f"{checked} solves over 300 instances x 3 eps, "
           f"{violations} violations")
    assert ok


def test_criterion_3_randomized_imst_probability():
    eps, delta = Fraction(3, 10), Fraction(1, 5)
    runs_per_instance = 200
    rng = random.Random(303)
    worst_fraction = 1.0
    infeasible_runs = total_runs = 0
    all_ok = True
    for _ in range(20):
        g = random_graph(rng, n_max=6, n_min=4)
        budget = rng.randint(0, 12)
        opt, _ = exact_imst(g, budget)
        good = 0
        for r in range(runs_per_instance):
            config = RandomizedConfig(eps, delta,
                                      master_seed=rng.randrange(1 << 30))
            sol = imst_solve(g, budget, config).solution
            total_runs += 1
            if sol.total_spend > budget:
                infeasible_runs += 1
            if sol.total_spend <= budget and sol.total_length >= (1 - eps) * opt:
                good += 1
        fraction = good / runs_per_instance
        worst_fraction = min(worst_fraction, fraction)
        target = 1 - float(delta)
        band = 3 * math.sqrt(target * (1 - target) / runs_per_instance)
        if fraction < target - band:
            all_ok = False
    ok = all_ok and infeasible_runs == 0
    report("criterion 3 (randomized imst success probability)", ok,
           f"20 instances x {runs_per_instance} runs, worst success fraction "
           f"{worst_fraction:.3f} vs target {1 - float(delta):.2f} - 3sigma, "
           f"{infeasible_runs}/{total_runs} over-budget runs")
    assert ok


def test_criterion_4_dag_dp_exactness():
    rng = random.Random(404)
    checked = mismatches = 0
    for _ in range(500):
        dag = random_dag(rng)
        budget = rng.randint(0, 10)
        checked += 1
        if wildag_budget_exact(dag, budget).total_length != exact_wildag(dag, budget)[0]:
            mismatches += 1
    for _ in range(500):
        dag = random_dag(rng, uniform=1)
        b = rng.randint(0, 5)
        checked += 1
        uni = wildag_uniform(dag, b).total_length
        if uni != exact_wildag(dag, b)[0]:
            mismatches += 1
        # with unit costs the cap-b and budget-b problems coincide
        if uni != wildag_budget_exact(dag, b).total_length:
            mismatches += 1
    ok = mismatches == 0
    report("criterion 4 (dag dp equals oracle)", ok,
           f"{checked} DAGs (budgeted + uniform + consistency), "
           f"{mismatches} mismatches")
    assert ok


def test_criterion_5_fptas_guarantee():
    rng = random.Random(505)
    checked = violations = 0
    for _ in range(200):
        dag = random_dag(rng, max_len=30)
        budget = rng.randint(0, 12)
        opt = exact_wildag(dag, budget)[0]
        for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            sol = wildag_fptas(dag, budget, eps)
            checked += 1
            if sol.total_length < (1 - eps) * opt or sol.total_spend > budget:
                violations += 1
    ok = violations == 0
    report("criterion 5 (fptas (1-eps) guarantee, exact spend)", ok,
           f"{checked} solves over 200 DAGs x 3 eps, {violations} violations")
    assert ok


def test_criterion_6_runtime_shape_soft():
    # soft criterion: wall-clock shape is machine-dependent, reported only
    sizes = [50, 100, 200, 400]
    times = []
    for n in sizes:
        m = min(n * (n - 1) // 2, n * n // 8)
        dag = generate.gen_random_dag(n, m, max_len=10, max_cost=1,
                                      seed=606 + n, uniform_cost=1)
        start = time.perf_counter()
        wildag_uniform(dag, n // 2)
        times.append(time.perf_counter() - start)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))

    dag = generate.gen_random_dag(60, 200, max_len=1000, max_cost=6, seed=607)
    budget = sum(e.cost for e in dag.edges) // 3
    fp_times = []
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        start = time.perf_counter()
        wildag_fptas(dag, budget, eps)
        fp_times.append(time.perf_counter() - start)
    ratios = [b / a for a, b in zip(fp_times, fp_times[1:])]
    in_band = 2.5 <= slope <= 3.5
    report("criterion 6 (runtime shape, soft)", True,
           f"uniform-dp log-log slope {slope:.2f} over n={sizes} "
           f"({'within' if in_band else 'outside'} 3.0 +/- 0.5), fptas wall "
           f"ratios per eps halving {[f'{r:.2f}' for r in ratios]} "
           "(reported, not gated)")


def test_criterion_7_knapsack_reductions():
    rng = random.Random(707)
    limits = OracleBudget(max_tree_vertices=13, max_dag_vertices=13)
    checked = mismatches = 0
    for _ in range(100):
        k = rng.randint(2, 12)
        profits = [rng.randint(0, 20) for _ in range(k)]
        costs = [rng.randint(0, 9) for _ in range(k)]
        budget = rng.randint(0, sum(costs))
        want = knapsack_exact(profits, costs, budget)[0]
        graph, known_g = generate.gen_knapsack_imst(profits, costs, budget)
        dag, known_d = generate.gen_knapsack_wildag(profits, costs, budget)
        checked += 1
        if not (known_g == known_d == want
                == exact_imst(graph, budget, limits)[0]
                == exact_wildag(dag, budget, limits)[0]):
            mismatches += 1
    ok = mismatches == 0
    report("criterion 7 (knapsack reduction consistency)", ok,
           f"{checked} random knapsack inputs (2-12 items), both reductions, "
           f"{mismatches} mismatches")
    assert ok


def shift_lengths(graph, shift, n_scale):
    """The analysis' length shift, which the solver never applies: every
    level length x as x * n_scale + shift."""
    return _map_lengths(graph, lambda x: x * n_scale + shift)


def test_criterion_8_invariance_suite():
    rng = random.Random(808)
    shift_bad = rescale_bad = seed_bad = roundtrip_bad = 0

    for _ in range(100):
        g = random_graph(rng, n_max=5, n_min=3)
        budget = rng.randint(0, 10)
        eps = Fraction(1, 2)
        plain = expand_to_multigraph(shift_lengths(g, 0, g.n))
        shifted = expand_to_multigraph(shift_lengths(g, rng.randint(1, 50), g.n))
        if (two_cost_mst(plain, budget, eps).copy_ids
                != two_cost_mst(shifted, budget, eps).copy_ids):
            shift_bad += 1

    for _ in range(100):
        g = random_graph(rng, n_max=5, n_min=3)
        budget = rng.randint(0, 10)
        factor = rng.randint(2, 9)
        eps = Fraction(1, 2)
        mg = expand_to_multigraph(g)
        scaled = MultiGraph(mg.n, tuple(
            EdgeCopy(c.copy_id, c.u, c.v, c.length, c.cost * factor,
                     c.edge_id, c.level) for c in mg.copies))
        if (two_cost_mst(mg, budget, eps).copy_ids
                != two_cost_mst(scaled, budget * factor, eps).copy_ids):
            rescale_bad += 1

    for _ in range(100):
        g = random_graph(rng, n_max=6, n_min=4)
        budget = rng.randint(0, 10)
        config = RandomizedConfig(Fraction(3, 10), Fraction(1, 5),
                                  master_seed=rng.randrange(1 << 30))
        a = imst_solve(g, budget, config)
        b = imst_solve(g, budget, config)
        if a.solution != b.solution or a.trials != b.trials:
            seed_bad += 1

    for _ in range(100):
        if rng.random() < 0.5:
            p = Problem("imst", rng.randint(0, 9), graph=random_graph(rng))
        else:
            p = Problem("wildag", rng.randint(0, 9), dag=random_dag(rng))
        data = serialize(p)
        if serialize(parse(data)) != data:
            roundtrip_bad += 1

    ok = shift_bad == rescale_bad == seed_bad == roundtrip_bad == 0
    report("criterion 8 (invariance suite)", ok,
           f"100 cases each: shift argmax ({shift_bad} bad), cost rescale "
           f"({rescale_bad} bad), seed determinism ({seed_bad} bad), "
           f"serialization round-trip ({roundtrip_bad} bad)")
    assert ok
