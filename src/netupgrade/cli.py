"""Command-line front end: generate, solve, verify, benchmark.

All machine-readable data goes to stdout (JSON for single results, CSV for
batches); diagnostics go to stderr.  Exit codes: 0 success, 2 usage, invalid
or oversized input, 3 infeasible / no path, 4 oracle size exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import dag_dp, generate, imst_random, mst_uniform, oracle, two_cost
from .instances import (
    DisconnectedGraphError,
    InvalidInstanceError,
    choices_from_copies,
    expand_to_multigraph,
)
from .serialization import FormatError, Problem, instance_hash, parse, serialize

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4

TREE_ALGOS = ("uimst", "twocost", "imst", "exact-imst", "exact-twocost")
DAG_ALGOS = ("wildag-uniform", "wildag-exact", "wildag-fptas",
             "wisdag-uniform", "wisdag-exact", "wisdag-fptas",
             "exact-wildag", "exact-wisdag")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _int_list(text: str) -> list[int]:
    text = text.strip()
    return [int(x) for x in text.split(",")] if text else []


def _default_seed() -> int:
    return int(os.environ.get("NETUPGRADE_SEED", "0"))


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")


def cmd_gen(args) -> int:
    if args.knapsack:
        profits = _int_list(args.knapsack[0])
        costs = _int_list(args.knapsack[1])
        budget = args.budget if args.budget is not None else 0
        instance, known = generate.gen_knapsack_reduction(
            profits, costs, budget, args.kind)
        if args.kind == "imst":
            problem = Problem("imst", budget, graph=instance)
        else:
            problem = Problem("wildag", budget, dag=instance)
        meta = {"hash": instance_hash(problem), "known_optimum": known}
    else:
        if args.n is None or args.m is None:
            raise UsageError("--n and --m are required without --knapsack")
        budget = args.budget if args.budget is not None else 0
        if args.kind == "imst":
            graph = generate.gen_random_graph(args.n, args.m, args.max_len,
                                              args.max_cost, args.levels, args.seed)
            problem = Problem("imst", budget, graph=graph)
        else:
            dag = generate.gen_random_dag(args.n, args.m, args.max_len,
                                          args.max_cost, args.seed)
            problem = Problem("wildag", budget, dag=dag)
        meta = {"hash": instance_hash(problem)}
    data = serialize(problem)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data + b"\n")
        _emit(meta)
    else:
        sys.stdout.write(data.decode() + "\n")
        sys.stderr.write(json.dumps(meta) + "\n")
    return 0


def _tree_edges(choices: dict[int, int]) -> list[dict]:
    return [{"id": eid, "level": lvl} for eid, lvl in sorted(choices.items())]


def _path_edges(solution) -> list[dict]:
    return [{"id": eid, "level": 1 if imp else 0}
            for eid, imp in zip(solution.edge_ids, solution.improved)]


def _uniform_improvement_cap(dag, budget: int) -> int:
    costs = {e.cost for e in dag.edges}
    if len(costs) > 1:
        raise UsageError("uniform solver needs equal improvement costs on all edges")
    q = costs.pop() if costs else 0
    return dag.n - 1 if q == 0 else budget // q


class UsageError(RuntimeError):
    pass


def _run_algo(algo: str, problem: Problem, args):
    """Return (objective, spend, edges, feasible)."""
    budget = args.budget if args.budget is not None else problem.budget
    if algo in TREE_ALGOS and problem.kind != "imst":
        raise UsageError(f"algorithm {algo} needs an imst instance")
    if algo in DAG_ALGOS and problem.kind != "wildag":
        raise UsageError(f"algorithm {algo} needs a wildag instance")

    if algo == "uimst":
        sol = mst_uniform.uimst_half_approx(problem.graph, args.k or 0)
        return sol.total_length, sol.total_spend, _tree_edges(sol.choices), True
    if algo == "twocost":
        mg = expand_to_multigraph(problem.graph)
        res = two_cost.two_cost_mst(mg, budget, args.epsilon or Fraction(1, 2))
        edges = _tree_edges(choices_from_copies(mg, res.copy_ids))
        return res.length, res.cost, edges, res.cost <= budget
    if algo == "imst":
        config = imst_random.RandomizedConfig(
            epsilon=args.epsilon or Fraction(3, 10),
            delta=args.delta or Fraction(1, 5),
            master_seed=args.seed, trials=args.trials)
        res = imst_random.imst_solve(problem.graph, budget, config,
                                     minimize=args.minimize)
        sol = res.solution
        return sol.total_length, sol.total_spend, _tree_edges(sol.choices), True
    if algo == "exact-imst":
        val, sol = oracle.exact_imst(problem.graph, budget)
        return val, sol.total_spend, _tree_edges(sol.choices), True
    if algo == "exact-twocost":
        mg = expand_to_multigraph(problem.graph)
        length, cost, ids = oracle.exact_two_cost(mg, budget)
        return length, cost, _tree_edges(choices_from_copies(mg, ids)), True

    dag = problem.dag
    if algo in ("wildag-uniform", "wisdag-uniform"):
        cap = _uniform_improvement_cap(dag, budget)
        fn = dag_dp.wildag_uniform if algo.startswith("wildag") else dag_dp.wisdag_uniform
        sol = fn(dag, cap)
    elif algo in ("wildag-exact", "wisdag-exact"):
        fn = dag_dp.wildag_budget_exact if algo.startswith("wildag") else dag_dp.wisdag_budget_exact
        sol = fn(dag, budget)
    elif algo in ("wildag-fptas", "wisdag-fptas"):
        fn = dag_dp.wildag_fptas if algo.startswith("wildag") else dag_dp.wisdag_fptas
        sol = fn(dag, budget, args.epsilon or Fraction(1, 2))
    elif algo == "exact-wildag":
        _val, sol = oracle.exact_wildag(dag, budget)
    elif algo == "exact-wisdag":
        _val, sol = oracle.exact_wisdag(dag, budget)
    else:
        raise UsageError(f"unknown algorithm {algo!r}")
    return sol.total_length, sol.total_spend, _path_edges(sol), sol.total_spend <= budget


def cmd_solve(args) -> int:
    with open(args.infile, "rb") as fh:
        problem = parse(fh.read())
    start = time.perf_counter()
    objective, spend, edges, feasible = _run_algo(args.algo, problem, args)
    wall_ms = (time.perf_counter() - start) * 1000.0
    budget = args.budget if args.budget is not None else problem.budget
    doc = {
        "algorithm": args.algo,
        "objective": objective,
        "spend": spend,
        "budget": budget,
        "feasible": feasible,
        "edges": edges,
        "seed": args.seed,
    }
    if not args.no_timing:
        doc["wall_ms"] = round(wall_ms, 3)
    _emit(doc)
    return 0


VERIFY_FIELDS = ["instance", "hash", "algo", "n", "m", "budget", "epsilon",
                 "delta", "trials", "successes", "fraction", "min_ratio", "passed"]


def _verify_instance_graph(size: int, seed: int):
    cap = size * (size - 1) // 2
    m = min(cap, size + size // 2 + 1)
    graph = generate.gen_random_graph(size, m, max_len=8, max_cost=6, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    total = sum(e.ladder[-1].cost for e in graph.edges)
    return graph, rng.randint(0, max(1, total // 2))


def _verify_instance_dag(size: int, seed: int, uniform: bool):
    cap = size * (size - 1) // 2
    m = min(cap, size + size // 2 + 1)
    dag = generate.gen_random_dag(size, m, max_len=6, max_cost=5, seed=seed,
                                  uniform_cost=1 if uniform else None)
    rng = random.Random(seed ^ 0x5EED)
    total = sum(e.cost for e in dag.edges)
    return dag, rng.randint(0, max(1, total // 2))


def cmd_verify(args) -> int:
    eps = args.epsilon or Fraction(3, 10)
    delta = args.delta or Fraction(1, 5)
    writer = csv.DictWriter(sys.stdout, fieldnames=VERIFY_FIELDS, lineterminator="\n")
    writer.writeheader()
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        rows.append(_verify_one(args.algo, args.size, seed, args.trials,
                                eps, delta, i))
    for row in sorted(rows, key=lambda r: r["instance"]):
        writer.writerow(row)
    return 0


def _verify_one(algo: str, size: int, seed: int, trials: int,
                eps: Fraction, delta: Fraction, index: int) -> dict:
    row = {"instance": index, "algo": algo, "epsilon": str(eps),
           "delta": str(delta), "trials": trials}
    if algo == "uimst":
        graph, budget = _verify_instance_graph(size, seed)
        row.update(n=graph.n, m=graph.m, budget=budget,
                   hash=instance_hash(Problem("imst", budget, graph=graph)))
        opts = oracle.exact_uimst_table(graph)
        successes, ratios = 0, []
        for k in range(graph.n):
            sol = mst_uniform.uimst_half_approx(graph, k)
            ratios.append(sol.total_length / opts[k] if opts[k] else 1.0)
            successes += 2 * sol.total_length >= opts[k]
        row.update(trials=graph.n, successes=successes,
                   fraction=round(successes / graph.n, 6),
                   min_ratio=round(min(ratios), 6),
                   passed=successes == graph.n)
    elif algo == "twocost":
        graph, budget = _verify_instance_graph(size, seed)
        row.update(n=graph.n, m=graph.m, budget=budget,
                   hash=instance_hash(Problem("imst", budget, graph=graph)))
        mg = expand_to_multigraph(graph)
        opt, _c, _ids = oracle.exact_two_cost(mg, budget)
        res = two_cost.two_cost_mst(mg, budget, eps)
        ok = res.length >= opt and res.cost <= (1 + eps) * budget
        row.update(trials=1, successes=int(ok), fraction=float(ok),
                   min_ratio=round(res.length / opt, 6) if opt else 1.0,
                   passed=ok)
    elif algo == "imst":
        graph, budget = _verify_instance_graph(size, seed)
        row.update(n=graph.n, m=graph.m, budget=budget,
                   hash=instance_hash(Problem("imst", budget, graph=graph)))
        opt, _sol = oracle.exact_imst(graph, budget)
        successes, ratios = 0, []
        for t in range(trials):
            config = imst_random.RandomizedConfig(
                epsilon=eps, delta=delta, master_seed=seed * 1_000_003 + t)
            res = imst_random.imst_solve(graph, budget, config)
            sol = res.solution
            ratios.append(sol.total_length / opt if opt else 1.0)
            successes += (sol.total_spend <= budget
                          and sol.total_length >= (1 - eps) * opt)
        target = 1 - float(delta)
        band = 3 * math.sqrt(target * (1 - target) / trials)
        fraction = successes / trials
        row.update(successes=successes, fraction=round(fraction, 6),
                   min_ratio=round(min(ratios), 6),
                   passed=fraction >= target - band)
    elif algo in ("wildag-exact", "wildag-fptas", "wildag-uniform"):
        uniform = algo == "wildag-uniform"
        dag, budget = _verify_instance_dag(size, seed, uniform)
        row.update(n=dag.n, m=dag.m, budget=budget,
                   hash=instance_hash(Problem("wildag", budget, dag=dag)))
        opt, _sol = oracle.exact_wildag(dag, budget)
        if algo == "wildag-exact":
            sol = dag_dp.wildag_budget_exact(dag, budget)
            ok = sol.total_length == opt and sol.total_spend <= budget
        elif algo == "wildag-uniform":
            sol = dag_dp.wildag_uniform(dag, budget)
            ok = sol.total_length == opt
        else:
            sol = dag_dp.wildag_fptas(dag, budget, eps)
            ok = (sol.total_length >= (1 - eps) * opt
                  and sol.total_spend <= budget)
        row.update(trials=1, successes=int(ok), fraction=float(ok),
                   min_ratio=round(sol.total_length / opt, 6) if opt else 1.0,
                   passed=ok)
    else:
        raise UsageError(f"verify does not support algorithm {algo!r}")
    return row


BENCH_FIELDS = ["algo", "n", "m", "W", "epsilon", "wall_ms", "objective"]


def _third_of_costs(dag) -> int:
    return sum(e.cost for e in dag.edges) // 3


# algorithm -> (solve(dag, budget, eps), budget rule(dag))
_BENCH_ALGOS = {
    "wildag-uniform": (lambda dag, b, _eps: dag_dp.wildag_uniform(dag, b),
                       lambda dag: dag.n // 2),
    "wildag-exact": (lambda dag, b, _eps: dag_dp.wildag_budget_exact(dag, b),
                     _third_of_costs),
    "wildag-fptas": (lambda dag, b, eps: dag_dp.wildag_fptas(dag, b, eps or Fraction(1, 2)),
                     _third_of_costs),
}


def cmd_bench(args) -> int:
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    if args.algo not in _BENCH_ALGOS:
        raise UsageError(f"bench does not support algorithm {args.algo!r}")
    solve, budget_rule = _BENCH_ALGOS[args.algo]
    epsilons = args.epsilons or [None]
    for n in args.sizes:
        m = min(n * (n - 1) // 2, max(n, n * n // 8))
        uniform = args.algo.endswith("uniform")
        dag = generate.gen_random_dag(n, m, max_len=10, max_cost=4,
                                      seed=args.seed + n,
                                      uniform_cost=1 if uniform else None)
        budget = budget_rule(dag)
        for eps in epsilons:
            start = time.perf_counter()
            sol = solve(dag, budget, eps)
            wall = (time.perf_counter() - start) * 1000.0
            writer.writerow({
                "algo": args.algo, "n": n, "m": dag.m,
                "W": dag.effective_max_length(budget),
                "epsilon": "" if eps is None else str(eps),
                "wall_ms": round(wall, 3), "objective": sol.total_length,
            })
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="netupgrade")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=["imst", "wildag"], required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--levels", type=int, default=2)
    gen.add_argument("--max-len", type=int, default=10)
    gen.add_argument("--max-cost", type=int, default=10)
    gen.add_argument("--budget", type=int)
    gen.add_argument("--seed", type=int, default=_default_seed())
    gen.add_argument("--knapsack", nargs=2, metavar=("PROFITS", "COSTS"))
    gen.add_argument("--out")

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--algo", required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--budget", type=int)
    solve.add_argument("--epsilon", type=_fraction)
    solve.add_argument("--delta", type=_fraction)
    solve.add_argument("--seed", type=int, default=_default_seed())
    solve.add_argument("--k", type=int)
    solve.add_argument("--trials", type=int)
    solve.add_argument("--minimize", action="store_true")
    solve.add_argument("--no-timing", action="store_true")

    verify = sub.add_parser("verify", help="batch-check a solver against oracles")
    verify.add_argument("--algo", required=True)
    verify.add_argument("--count", type=int, default=10)
    verify.add_argument("--size", type=int, default=6)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--epsilon", type=_fraction)
    verify.add_argument("--delta", type=_fraction)
    verify.add_argument("--seed", type=int, default=_default_seed())

    bench = sub.add_parser("bench", help="size/epsilon sweeps with wall times")
    bench.add_argument("--algo", required=True)
    bench.add_argument("--sizes", type=_int_list, default=[])
    bench.add_argument("--epsilons", type=lambda s: [Fraction(x) for x in s.split(",") if x],
                       default=None)
    bench.add_argument("--seed", type=int, default=_default_seed())
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "solve": cmd_solve,
                "verify": cmd_verify, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (UsageError, InvalidInstanceError, FormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:
        sys.stderr.write(f"error: input too large ({type(exc).__name__})\n")
        return EXIT_USAGE
    except (dag_dp.NoPathError, DisconnectedGraphError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except oracle.OracleSizeError as exc:
        sys.stderr.write(f"oracle bound exceeded: {exc}\n")
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
