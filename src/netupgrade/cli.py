"""Command-line front end: generate, solve, verify, benchmark.

All machine-readable data goes to stdout (JSON for single results, CSV for
batches); diagnostics go to stderr.  Exit codes: 0 success, 2 usage, invalid
or oversized input, 3 infeasible (no budget-feasible spanning tree exists, one
line on stderr and nothing on stdout), 4 oracle size exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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


def _number(kind, what: str):
    """An option type for one ``kind`` value; a bad value is a usage error naming it."""
    def read(text: str):
        try:
            return kind(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None
    return read


_fraction, _int = _number(Fraction, "a number"), _number(int, "an integer")


def _list_of(item):
    """An option type for comma-separated ``item``s; empty items are skipped."""
    return lambda text: [item(x) for x in text.split(",") if x.strip()]


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
        instance, known = generate.gen_knapsack_reduction(*args.knapsack, budget, args.kind)
    elif args.n is None or args.m is None:
        raise UsageError("--n and --m are required without --knapsack")
    elif args.kind == "imst":
        instance = generate.gen_random_graph(args.n, args.m, args.max_len,
                                             args.max_cost, args.levels, args.seed)
    else:
        instance = generate.gen_random_dag(args.n, args.m, args.max_len,
                                           args.max_cost, args.seed)
    problem = (Problem("imst", budget, graph=instance) if args.kind == "imst"
               else Problem("wildag", budget, dag=instance))
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


def _longest_path(problem: Problem) -> int:
    return oracle.exact_wildag(problem.dag, problem.budget)[0]


def _shortest_path(problem: Problem) -> int:
    return oracle.exact_wisdag(problem.dag, problem.budget)[0]


# algorithm -> (optimum(problem), meets(length, spend, optimum, budget, eps)):
# the oracle's optimum and the paper's guarantee that verify checks each run
# of the algorithm's solve entry against
_GUARANTEES = {
    "uimst": (lambda p: oracle.exact_uimst_table(p.graph),  # one optimum per cap k
              lambda l, s, opt, b, e: 2 * l >= opt),
    "twocost": (lambda p: oracle.exact_two_cost(expand_to_multigraph(p.graph), p.budget)[0],
                lambda l, s, opt, b, e: l >= opt and s <= (1 + e) * b),
    "imst": (lambda p: oracle.exact_imst(p.graph, p.budget)[0],
             lambda l, s, opt, b, e: l >= (1 - e) * opt and s <= b),
    "wildag-exact": (_longest_path, lambda l, s, opt, b, e: l == opt and s <= b),
    "wildag-fptas": (_longest_path, lambda l, s, opt, b, e: l >= (1 - e) * opt and s <= b),
    "wildag-uniform": (_longest_path, lambda l, s, opt, b, e: l == opt and s <= b),
    "wisdag-exact": (_shortest_path, lambda l, s, opt, b, e: l == opt and s <= b),
    "wisdag-fptas": (_shortest_path, lambda l, s, opt, b, e: l <= (1 + e) * opt and s <= b),
    "wisdag-uniform": (_shortest_path, lambda l, s, opt, b, e: l == opt and s <= b),
}


def _require_size(option: str, size: int, algo: str) -> None:
    """Reject a size the generator cannot serve: a graph needs a vertex, a
    DAG a source and a sink."""
    least = 1 if algo in TREE_ALGOS else 2
    if size < least:
        raise UsageError(f"{option} must be at least {least} for {algo}")


def _verify_problem(algo: str, size: int, seed: int) -> Problem:
    """A random instance for ``algo``, budget drawn up to half its total cost.
    A ``wisdag-*`` instance is the ``wildag-*`` one with each edge's base and
    improved lengths swapped, so that upgrades shorten edges."""
    m = min(size * (size - 1) // 2, size + size // 2 + 1)
    rng = random.Random(seed ^ 0x5EED)
    if algo in TREE_ALGOS:
        graph = generate.gen_random_graph(size, m, max_len=8, max_cost=6, seed=seed)
        total = sum(e.ladder[-1].cost for e in graph.edges)
        return Problem("imst", rng.randint(0, max(1, total // 2)), graph=graph)
    dag = generate.gen_random_dag(size, m, max_len=6, max_cost=5, seed=seed,
                                  uniform_cost=1 if algo.endswith("-uniform") else None)
    if algo.startswith("wisdag"):
        dag = dataclasses.replace(dag, edges=tuple(
            e._replace(base=e.improved, improved=e.base) for e in dag.edges))
    total = sum(e.cost for e in dag.edges)
    return Problem("wildag", rng.randint(0, max(1, total // 2)), dag=dag)


def _write_csv(fields: list[str], rows: list[dict]) -> int:
    # called after the solves, so an argument a solver rejects prints nothing
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0


def cmd_verify(args) -> int:
    if args.algo not in _GUARANTEES:
        raise UsageError(f"verify does not support algorithm {args.algo!r}")
    if args.algo == "imst" and args.trials < 1:
        raise UsageError("--trials must be positive")
    if args.count < 0:
        raise UsageError("--count must be nonnegative")
    _require_size("--size", args.size, args.algo)
    eps = _given(args.epsilon, Fraction(3, 10))
    delta = _given(args.delta, Fraction(1, 5))
    return _write_csv(VERIFY_FIELDS, [_verify_one(args, i, eps, delta) for i in range(args.count)])


def _verify_one(args, i: int, eps: Fraction, delta: Fraction) -> dict:
    """The row for random instance i: the runs of ``args.algo``'s solve entry
    graded by its guarantee.  One run, one per cap k for uimst, or one per
    master seed for imst."""
    algo, seed = args.algo, args.seed + i
    problem = _verify_problem(algo, args.size, seed)
    optimum, meets = _GUARANTEES[algo]
    opt = optimum(problem)
    if algo == "uimst":
        runs = [(argparse.Namespace(k=k), opt[k]) for k in range(problem.graph.n)]
    elif algo == "imst":
        runs = [(argparse.Namespace(epsilon=eps, delta=delta, seed=seed * 1_000_003 + t,
                                    trials=None, minimize=False), opt) for t in range(args.trials)]
    else:
        runs = [(argparse.Namespace(epsilon=eps), opt)]
    successes, ratios = 0, []
    for opts, best in runs:
        length, spend, _edges, _feasible = _run_algo(algo, problem, problem.budget, opts)
        ratios.append(length / best if best else (1.0 if length == best else math.inf))
        successes += meets(length, spend, best, problem.budget, eps)
    fraction = successes / len(runs)
    target = 1 - float(delta)  # imst, randomized, passes within 3σ of a 1 − δ success rate
    passed = (fraction >= target - 3 * math.sqrt(target * (1 - target) / len(runs))
              if algo == "imst" else successes == len(runs))
    return {"instance": i, "hash": instance_hash(problem), "algo": algo,
            "n": problem.instance.n, "m": problem.instance.m, "budget": problem.budget,
            "epsilon": str(eps), "delta": str(delta), "trials": len(runs),
            "successes": successes, "fraction": round(fraction, 6),
            "min_ratio": round(min(ratios), 6), "passed": passed}


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
        dag = generate.gen_random_dag(n, m, max_len=10, max_cost=4, seed=args.seed + n,
                                      uniform_cost=1 if args.algo.endswith("uniform") else None)
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
    return _write_csv(BENCH_FIELDS, rows)


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
    gen.add_argument("--knapsack", nargs=2, type=_list_of(_int), metavar=("PROFITS", "COSTS"))
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
    bench.add_argument("--sizes", type=_list_of(_int), default=[])
    bench.add_argument("--epsilons", type=_list_of(_fraction))
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
