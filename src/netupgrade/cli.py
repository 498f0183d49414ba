"""Command-line front end: generate, solve, verify, benchmark.

All machine-readable data goes to stdout (JSON for single results, CSV for
batches); diagnostics go to stderr.  Exit codes: 0 success, 2 usage, invalid
or oversized input, 3 infeasible (no budget-feasible spanning tree exists, one
line on stderr and nothing on stdout), 4 oracle size exceeded.
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
    choices_from_copies,
    expand_to_multigraph,
    solution_from_choices,
)
from .serialization import Problem, instance_hash, parse, serialize

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _int_list(text: str) -> list[int]:
    text = text.strip()
    return [int(x) for x in text.split(",")] if text else []


def _default_seed() -> int:
    value = os.environ.get("NETUPGRADE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"NETUPGRADE_SEED must be an integer, got {value!r}") from None


def _given(value, default):
    """An option's value, or ``default`` when it was not given; 0 is a value."""
    return default if value is None else value


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")


def cmd_gen(args) -> int:
    budget = _given(args.budget, 0)
    if args.knapsack:
        instance, known = generate.gen_knapsack_reduction(
            _int_list(args.knapsack[0]), _int_list(args.knapsack[1]), budget, args.kind)
    elif args.n is None or args.m is None:
        raise UsageError("--n and --m are required without --knapsack")
    elif args.kind == "imst":
        instance = generate.gen_random_graph(args.n, args.m, args.max_len,
                                             args.max_cost, args.levels, args.seed)
    else:
        instance = generate.gen_random_dag(args.n, args.m, args.max_len,
                                           args.max_cost, args.seed)
    if args.kind == "imst":
        problem = Problem("imst", budget, graph=instance)
    else:
        problem = Problem("wildag", budget, dag=instance)
    meta = {"hash": instance_hash(problem)}
    if args.knapsack:
        meta["known_optimum"] = known
    data = serialize(problem)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data + b"\n")
        _emit(meta)
    else:
        sys.stdout.write(data.decode() + "\n")
        sys.stderr.write(json.dumps(meta) + "\n")
    return 0


def _on_multigraph(graph, copy_ids):
    """Tree entry for a solver that picks ``copy_ids(multigraph)`` of the expanded graph."""
    mg = expand_to_multigraph(graph)
    return solution_from_choices(graph, choices_from_copies(mg, copy_ids(mg)))


def _imst(graph, budget: int, opts):
    config = imst_random.RandomizedConfig(
        epsilon=_given(opts.epsilon, Fraction(3, 10)), delta=_given(opts.delta, Fraction(1, 5)),
        master_seed=opts.seed, trials=opts.trials)
    return imst_random.imst_solve(graph, budget, config, minimize=opts.minimize).solution


def _improvement_cap(dag, budget: int) -> int:
    """Improvements the budget buys at the first edge's cost; the uniform
    solvers reject instances whose edges cost different amounts, and a
    negative count.  A negative budget buys a negative count even when
    upgrades are free."""
    q = dag.edges[0].cost if dag.edges else 0
    if q == 0:
        return dag.n - 1 if budget >= 0 else budget
    return budget // q


class UsageError(RuntimeError):
    pass


# Entries are run(instance, budget, opts): tree entries return a
# TreeSolution, DAG entries a PathSolution.  They look solvers up through
# their modules at call time, so a module attribute rebound later (a
# wrapper, a mock) is the one that runs.
TREE_ALGOS = {
    "uimst": lambda g, b, o: mst_uniform.uimst_half_approx(g, o.k or 0),
    "twocost": lambda g, b, o: _on_multigraph(
        g, lambda mg: two_cost.two_cost_mst(mg, b, _given(o.epsilon, Fraction(1, 2))).copy_ids),
    "imst": _imst,
    "exact-imst": lambda g, b, o: oracle.exact_imst(g, b)[1],
    "exact-twocost": lambda g, b, o: _on_multigraph(
        g, lambda mg: oracle.exact_two_cost(mg, b)[2]),
}
DAG_ALGOS = {
    "wildag-uniform": lambda d, b, o: dag_dp.wildag_uniform(d, _improvement_cap(d, b)),
    "wildag-exact": lambda d, b, o: dag_dp.wildag_budget_exact(d, b),
    "wildag-fptas": lambda d, b, o: dag_dp.wildag_fptas(d, b, _given(o.epsilon, Fraction(1, 2))),
    "wisdag-uniform": lambda d, b, o: dag_dp.wisdag_uniform(d, _improvement_cap(d, b)),
    "wisdag-exact": lambda d, b, o: dag_dp.wisdag_budget_exact(d, b),
    "wisdag-fptas": lambda d, b, o: dag_dp.wisdag_fptas(d, b, _given(o.epsilon, Fraction(1, 2))),
    "exact-wildag": lambda d, b, o: oracle.exact_wildag(d, b)[1],
    "exact-wisdag": lambda d, b, o: oracle.exact_wisdag(d, b)[1],
}


def _run_algo(algo: str, problem: Problem, budget: int, opts) -> tuple:
    """Return (objective, spend, edges, feasible)."""
    if algo in TREE_ALGOS:
        if problem.kind != "imst":
            raise UsageError(f"algorithm {algo} needs an imst instance")
        sol = TREE_ALGOS[algo](problem.graph, budget, opts)
        edges = [{"id": eid, "level": lvl} for eid, lvl in sorted(sol.choices.items())]
    elif algo in DAG_ALGOS:
        if problem.kind != "wildag":
            raise UsageError(f"algorithm {algo} needs a wildag instance")
        sol = DAG_ALGOS[algo](problem.dag, budget, opts)
        edges = [{"id": eid, "level": 1 if imp else 0}
                 for eid, imp in zip(sol.edge_ids, sol.improved)]
    else:
        raise UsageError(f"unknown algorithm {algo!r}")
    return sol.total_length, sol.total_spend, edges, sol.total_spend <= budget


def cmd_solve(args) -> int:
    with open(args.infile, "rb") as fh:
        problem = parse(fh.read())
    budget = _given(args.budget, problem.budget)
    start = time.perf_counter()
    objective, spend, edges, feasible = _run_algo(args.algo, problem, budget, args)
    wall_ms = (time.perf_counter() - start) * 1000.0
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
VERIFY_ALGOS = ("uimst", "twocost", "imst", "wildag-exact", "wildag-fptas",
                "wildag-uniform")


def _require_size(option: str, size: int, algo: str) -> None:
    """Reject a size the generator cannot serve: a graph needs a vertex, a
    DAG a source and a sink."""
    least = 1 if algo in TREE_ALGOS else 2
    if size < least:
        raise UsageError(f"{option} must be at least {least} for {algo}")


def _verify_problem(algo: str, size: int, seed: int) -> Problem:
    """A random instance for ``algo``, budget drawn up to half its total cost."""
    m = min(size * (size - 1) // 2, size + size // 2 + 1)
    rng = random.Random(seed ^ 0x5EED)
    if algo in TREE_ALGOS:
        graph = generate.gen_random_graph(size, m, max_len=8, max_cost=6, seed=seed)
        total = sum(e.ladder[-1].cost for e in graph.edges)
        return Problem("imst", rng.randint(0, max(1, total // 2)), graph=graph)
    dag = generate.gen_random_dag(size, m, max_len=6, max_cost=5, seed=seed,
                                  uniform_cost=1 if algo == "wildag-uniform" else None)
    total = sum(e.cost for e in dag.edges)
    return Problem("wildag", rng.randint(0, max(1, total // 2)), dag=dag)


def cmd_verify(args) -> int:
    if args.algo not in VERIFY_ALGOS:
        raise UsageError(f"verify does not support algorithm {args.algo!r}")
    if args.algo == "imst" and args.trials < 1:
        raise UsageError("--trials must be positive")
    if args.count < 0:
        raise UsageError("--count must be nonnegative")
    _require_size("--size", args.size, args.algo)
    eps = _given(args.epsilon, Fraction(3, 10))
    delta = _given(args.delta, Fraction(1, 5))
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        problem = _verify_problem(args.algo, args.size, seed)
        rows.append({"instance": i, "hash": instance_hash(problem), "algo": args.algo,
                     "n": problem.instance.n, "m": problem.instance.m,
                     "budget": problem.budget, "epsilon": str(eps),
                     "delta": str(delta), "trials": args.trials,
                     **_verify_one(args.algo, problem, seed, args.trials, eps, delta)})
    # the header follows the solves, so an argument a solver rejects prints nothing
    writer = csv.DictWriter(sys.stdout, fieldnames=VERIFY_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0


def _verify_one(algo: str, problem: Problem, seed: int, trials: int,
                eps: Fraction, delta: Fraction) -> dict:
    budget = problem.budget
    if algo in DAG_ALGOS:
        dag = problem.dag
        opt, _sol = oracle.exact_wildag(dag, budget)
        sol = DAG_ALGOS[algo](dag, budget, argparse.Namespace(epsilon=eps))
        if algo == "wildag-exact":
            ok = sol.total_length == opt and sol.total_spend <= budget
        elif algo == "wildag-uniform":
            ok = sol.total_length == opt
        else:
            ok = (sol.total_length >= (1 - eps) * opt
                  and sol.total_spend <= budget)
        return dict(trials=1, successes=int(ok), fraction=float(ok),
                    min_ratio=round(sol.total_length / opt, 6) if opt else 1.0,
                    passed=ok)
    graph = problem.graph
    if algo == "uimst":
        opts = oracle.exact_uimst_table(graph)
        successes, ratios = 0, []
        for k in range(graph.n):
            sol = mst_uniform.uimst_half_approx(graph, k)
            ratios.append(sol.total_length / opts[k] if opts[k] else 1.0)
            successes += 2 * sol.total_length >= opts[k]
        return dict(trials=graph.n, successes=successes,
                    fraction=round(successes / graph.n, 6),
                    min_ratio=round(min(ratios), 6), passed=successes == graph.n)
    if algo == "twocost":
        mg = expand_to_multigraph(graph)
        opt, _c, _ids = oracle.exact_two_cost(mg, budget)
        res = two_cost.two_cost_mst(mg, budget, eps)
        ok = res.length >= opt and res.cost <= (1 + eps) * budget
        return dict(trials=1, successes=int(ok), fraction=float(ok),
                    min_ratio=round(res.length / opt, 6) if opt else 1.0, passed=ok)
    opt, _sol = oracle.exact_imst(graph, budget)
    successes, ratios = 0, []
    for t in range(trials):
        config = imst_random.RandomizedConfig(
            epsilon=eps, delta=delta, master_seed=seed * 1_000_003 + t)
        sol = imst_random.imst_solve(graph, budget, config).solution
        ratios.append(sol.total_length / opt if opt else 1.0)
        successes += (sol.total_spend <= budget
                      and sol.total_length >= (1 - eps) * opt)
    target = 1 - float(delta)
    band = 3 * math.sqrt(target * (1 - target) / trials)
    fraction = successes / trials
    return dict(successes=successes, fraction=round(fraction, 6),
                min_ratio=round(min(ratios), 6), passed=fraction >= target - band)


BENCH_FIELDS = ["algo", "n", "m", "W", "epsilon", "wall_ms", "objective"]


def _third_of_costs(dag) -> int:
    return sum(e.cost for e in dag.edges) // 3


# algorithm -> budget rule(dag); the solve itself is the DAG_ALGOS entry
_BENCH_BUDGETS = {
    "wildag-uniform": lambda dag: dag.n // 2,
    "wildag-exact": _third_of_costs,
    "wildag-fptas": _third_of_costs,
}


def cmd_bench(args) -> int:
    if args.algo not in _BENCH_BUDGETS:
        raise UsageError(f"bench does not support algorithm {args.algo!r}")
    solve = DAG_ALGOS[args.algo]
    rows = []
    for n in args.sizes:
        _require_size("--sizes", n, args.algo)
        m = min(n * (n - 1) // 2, max(n, n * n // 8))
        uniform = args.algo.endswith("uniform")
        dag = generate.gen_random_dag(n, m, max_len=10, max_cost=4,
                                      seed=args.seed + n,
                                      uniform_cost=1 if uniform else None)
        budget = _BENCH_BUDGETS[args.algo](dag)
        for eps in args.epsilons or [None]:
            start = time.perf_counter()
            sol = solve(dag, budget, argparse.Namespace(epsilon=eps))
            wall = (time.perf_counter() - start) * 1000.0
            rows.append({
                "algo": args.algo, "n": n, "m": dag.m,
                "W": dag.effective_max_length(budget),
                "epsilon": "" if eps is None else str(eps),
                "wall_ms": round(wall, 3), "objective": sol.total_length,
            })
    # the header follows the solves, so an argument a solver rejects prints nothing
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
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
    gen.add_argument("--seed", type=int)
    gen.add_argument("--knapsack", nargs=2, metavar=("PROFITS", "COSTS"))
    gen.add_argument("--out")

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--algo", required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--budget", type=int)
    solve.add_argument("--epsilon", type=_fraction)
    solve.add_argument("--delta", type=_fraction)
    solve.add_argument("--seed", type=int)
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
    verify.add_argument("--seed", type=int)

    bench = sub.add_parser("bench", help="size/epsilon sweeps with wall times")
    bench.add_argument("--algo", required=True)
    bench.add_argument("--sizes", type=_int_list, default=[])
    bench.add_argument("--epsilons", type=lambda s: [Fraction(x) for x in s.split(",") if x],
                       default=None)
    bench.add_argument("--seed", type=int)
    return top


_PARSER = build_parser()


def main(argv=None) -> int:
    handlers = {"gen": cmd_gen, "solve": cmd_solve,
                "verify": cmd_verify, "bench": cmd_bench}
    try:
        args = _PARSER.parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        return handlers[args.command](args)
    # DisconnectedGraphError is a ValueError, so its clause comes first
    except DisconnectedGraphError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:
        sys.stderr.write(f"error: input too large ({type(exc).__name__})\n")
        return EXIT_USAGE
    except oracle.OracleSizeError as exc:
        sys.stderr.write(f"oracle bound exceeded: {exc}\n")
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
