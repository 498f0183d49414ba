"""The four benchmark workloads: their corpora, their ops and their gate.

Every op is a closed-loop call with one client.  CLI ops run
``netupgrade solve ... --no-timing`` in-process through ``cli.main``; library
ops call ``imst_random.imst_solve`` and ``mst_uniform.uimst_half_approx``.
Both look the entry point up through its module attribute at call time, so
the traced run's wrappers see them.  README.md says why each workload exists.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from netupgrade import cli, imst_random, mst_uniform
from netupgrade.serialization import Problem

from checks import (
    CheckError,
    fnv1a64,
    top_tree_length,
    oriented_ratio,
    path_optimum,
    path_totals,
    tree_totals,
)
from corpus import (
    Instance,
    heavy_budget,
    random_dag,
    random_graph,
    relabel,
    rng_for,
    swap_lengths,
    write_corpus,
)


@dataclass
class Op:
    inst: Instance
    algo: str
    eps: Fraction | None = None
    seed: int = 0
    k: int | None = None  # improvement cap of a library uimst op
    library: bool = False

    @property
    def minimize(self) -> bool:
        return self.algo.startswith("wisdag")


@dataclass
class Corpus:
    """Ops grouped in cycles that all do the same work.

    The timed phase stops only at a cycle end, so every run has the same op
    mix.  With ``repeat`` cycle 0 is replayed; otherwise cycle c runs on
    vertex-relabelled copies of cycle 0's graphs and ``cycles`` is the pool.
    ``warmup`` runs untimed before the first cycle.
    """

    cycles: list[list[Op]]
    repeat: bool
    warmup: list[Op]

    def cycle(self, c: int) -> list[Op] | None:
        if self.repeat:
            return self.cycles[0]
        return self.cycles[c] if c < len(self.cycles) else None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object            # (seed, workdir) -> Corpus
    quality_algos: tuple     # ops whose objective feeds quality_ratio
    tail_percentile: float   # fixed so the tail is comparable across changes


def dag_corpus(workdir: str, items, plan) -> Corpus:
    """plan: (instance key, algo, eps) per op of the one repeated cycle."""
    by_key = write_corpus(workdir, items)
    ops = [Op(by_key[key], algo, eps) for key, algo, eps in plan]
    return Corpus([ops], repeat=True, warmup=ops[:1])


def tree_corpus(name: str, seed: int, workdir: str, base, copies: int, plan,
                library: bool) -> Corpus:
    """base: (tag, graph, budget); plan(slot, n) -> [(algo, eps, seed, k)].

    Copy -1 supplies the warm-up; copies 0.. are the pool of cycles.
    """
    items, cycles = [], []
    for c in range(-1, copies):
        rng = rng_for(name, seed, "copy", c)
        cycle = []
        for slot, (tag, graph, budget) in enumerate(base):
            key = f"{name}-{tag}-c{c}"
            items.append((key, Problem("imst", budget, graph=relabel(graph, rng))))
            cycle += [(key, step) for step in plan(slot, graph.n)]
        cycles.append(cycle)
    by_key = write_corpus(workdir, items)
    ops = [[Op(by_key[key], algo, eps, s, k, library) for key, (algo, eps, s, k) in cycle]
           for cycle in cycles]
    first = ops[0][0].inst
    return Corpus(ops[1:], repeat=False, warmup=[op for op in ops[0] if op.inst is first])


# ---------------------------------------------------------------- dag-wide

WIDE_N = 50          # m = 4n
WIDE_MAX_LEN = 250   # short family; the long family has lengths up to 1e5
WIDE_INSTANCES = 3   # per family
WIDE_BUDGET = 30
WIDE_EPS = Fraction(1, 2)       # K = floor(eps W / n) = 2 on the short family
WIDE_LONG_EPS = Fraction(1, 8)  # K = 250 on the long family
# wisdag's unit comes from the free-upgrade shortest path, which is short and
# varies by seed; at 1/2 K flipped between 1 and 2 and doubled the op's cost
# from seed to seed.  At 1/16 K stays 1 on every seed.
WIDE_MIN_EPS = Fraction(1, 16)


def setup_dag_wide(seed: int, workdir: str) -> Corpus:
    """One size, so that the nine exact-work ops (exact, and wisdag-fptas at
    K = 1) have equal tables and form one cluster, with three cheaper and
    three dearer FPTAS ops on either side.  The median then falls inside the
    cluster: a percentile that falls between two op sizes jumps with machine
    noise."""
    items, plan = [], []
    for i in range(WIDE_INSTANCES):
        dag = random_dag(rng_for("dag-wide", seed, i), WIDE_N, 4 * WIDE_N, WIDE_MAX_LEN, 10)
        key = f"wide-{i}"
        items += [(key + "-max", Problem("wildag", WIDE_BUDGET, dag=dag)),
                  (key + "-min", Problem("wildag", WIDE_BUDGET, dag=swap_lengths(dag)))]
        plan += [(key + "-max", "wildag-exact", None), (key + "-max", "wildag-fptas", WIDE_EPS),
                 (key + "-min", "wisdag-exact", None),
                 (key + "-min", "wisdag-fptas", WIDE_MIN_EPS)]
    for i in range(WIDE_INSTANCES):
        dag = random_dag(rng_for("dag-wide-long", seed, i), WIDE_N, 4 * WIDE_N, 100_000, 10)
        items.append((f"long-{i}", Problem("wildag", WIDE_BUDGET, dag=dag)))
        plan.append((f"long-{i}", "wildag-fptas", WIDE_LONG_EPS))
    return dag_corpus(workdir, items, plan)


# --------------------------------------------------------------- dag-dense

DENSE_SIZES = (150, 175, 200)  # m = n^2 / 8, lengths <= 10, unit costs
DENSE_BUDGET = 8               # uniform tables are budget + 1 = 9 columns wide
# The budget DP's table is (n-1) * 10 columns wide whatever the budget, so the
# exact op runs on the smallest size only; that keeps parsing and validation
# a large share of the cycle, which is what this workload measures.
DENSE_EXACT = 150


def setup_dag_dense(seed: int, workdir: str) -> Corpus:
    items, plan = [], []
    for n in DENSE_SIZES:
        dag = random_dag(rng_for("dag-dense", seed, n), n, n * n // 8, 10, 1, uniform_cost=1)
        key = f"dense-{n}"
        items += [(key + "-max", Problem("wildag", DENSE_BUDGET, dag=dag)),
                  (key + "-min", Problem("wildag", DENSE_BUDGET, dag=swap_lengths(dag)))]
        plan += [(key + "-max", "wildag-uniform", None), (key + "-min", "wisdag-uniform", None)]
        if n == DENSE_EXACT:
            plan.append((key + "-max", "wildag-exact", None))
    return dag_corpus(workdir, items, plan)


# -------------------------------------------------------------- tree-relax

RELAX_N = 20                         # m = 2n
RELAX_HEAVY = (0, 2, 4, 6, 8, 10)    # heavy copies seen by the imst relaxation
RELAX_PER_LEVEL = 3                  # graphs per heavy level
RELAX_EPS = Fraction(1, 2)           # imst relaxes at eps' = eps / 2
RELAX_COPIES = 24


def setup_tree_relax(seed: int, workdir: str) -> Corpus:
    """One size, so that the cheap ops (twocost, imst without heavy copies)
    are alike and hold the median, and each heavy level has three graphs."""
    base = []
    for h in RELAX_HEAVY:
        for i in range(RELAX_PER_LEVEL):
            graph = random_graph(rng_for("tree-relax", seed, h, i), RELAX_N, 2 * RELAX_N, 100)
            base.append((f"{h}-{i}", graph, heavy_budget(graph, h, RELAX_EPS / 2)))
    return tree_corpus("tree-relax", seed, workdir, base, RELAX_COPIES, lambda slot, n: [
        ("imst", RELAX_EPS, slot, None), ("twocost", RELAX_EPS, 0, None)], library=False)


# ----------------------------------------------------------- tree-resample

RESAMPLE_SIZES = (20, 25, 30, 35, 40)  # n, m = 2n
RESAMPLE_HEAVY = (0, 1, 2, 3)
RESAMPLE_SEEDS = 32                    # imst_solve calls per instance
RESAMPLE_EPS = Fraction(3, 10)
RESAMPLE_DELTA = Fraction(1, 5)
RESAMPLE_COPIES = 36


def setup_tree_resample(seed: int, workdir: str) -> Corpus:
    base = []
    for n in RESAMPLE_SIZES:
        for h in RESAMPLE_HEAVY:
            graph = random_graph(rng_for("tree-resample", seed, n, h), n, 2 * n, 100)
            base.append((f"{n}-{h}", graph, heavy_budget(graph, h, RESAMPLE_EPS / 2)))
    return tree_corpus("tree-resample", seed, workdir, base, RESAMPLE_COPIES, lambda slot, n: (
        [("imst", RESAMPLE_EPS, 1000 * slot + j, None) for j in range(RESAMPLE_SEEDS)]
        + [("uimst", None, 0, k) for k in range(n)]), library=True)


WORKLOADS = {w.name: w for w in (
    Workload("dag-wide", setup_dag_wide, ("wildag-fptas", "wisdag-fptas"), 75.0),
    Workload("dag-dense", setup_dag_dense, ("wildag-uniform", "wisdag-uniform"), 90.0),
    Workload("tree-relax", setup_tree_relax, ("imst",), 90.0),
    Workload("tree-resample", setup_tree_resample, ("imst",), 99.0),
)}


# ------------------------------------------------------------------ running

def run_op(op: Op):
    """Run one op; returns what result_line() turns into a result line."""
    if not op.library:
        argv = ["solve", "--algo", op.algo, "--in", op.inst.path,
                "--seed", str(op.seed), "--no-timing"]
        if op.eps is not None:
            argv += ["--epsilon", str(op.eps)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    graph = op.inst.problem.graph
    if op.algo == "imst":
        config = imst_random.RandomizedConfig(op.eps, RESAMPLE_DELTA, master_seed=op.seed)
        return imst_random.imst_solve(graph, op.inst.problem.budget, config).solution
    return mst_uniform.uimst_half_approx(graph, op.k)


def result_line(op: Op, raw) -> str:
    """The canonical ``solve --no-timing`` line of an op; raises CheckError
    if the op failed."""
    if not op.library:
        code, out, err = raw
        if code != 0:
            raise CheckError(f"exit code {code}: {err.strip()}")
        return out
    doc = {"algorithm": op.algo, "objective": raw.total_length,
           "spend": raw.total_spend, "budget": op.inst.problem.budget,
           "feasible": raw.total_spend <= op.inst.problem.budget,
           "edges": [{"id": eid, "level": lvl} for eid, lvl in sorted(raw.choices.items())],
           "seed": op.seed}
    return json.dumps(doc, separators=(",", ":")) + "\n"


class Gate:
    """Grades each cycle after its clock stops: per-op checks, a replayed op
    must print its first line again, cross-op checks, the result digest of
    cycle 0 and the quality ratio."""

    def __init__(self, workload: Workload, repeat: bool):
        self.workload = workload
        self.repeat = repeat
        self.failures: list[str] = []
        self._optimum: dict = {}                   # DAG instance key -> optimum
        self._objective: dict = defaultdict(lambda: defaultdict(list))
        self._instances: dict = {}
        self._first: dict = {}                     # op slot -> hash of its line
        self._digest_lines: list[str] = []

    def grade_cycle(self, c: int, results) -> None:
        for slot, (op, raw) in enumerate(results):
            try:
                if isinstance(raw, Exception):
                    raise CheckError(f"{type(raw).__name__}: {raw}")
                line = result_line(op, raw)
                if c == 0:
                    self.check(op, line)
                    if self.repeat:
                        self._first[slot] = fnv1a64(line.encode())
                elif not self.repeat:
                    self.check(op, line)
                elif fnv1a64(line.encode()) != self._first.get(slot):
                    raise CheckError("output differs from the first run of the same op")
            except CheckError as exc:
                self.failures.append(f"{op.inst.key} {op.algo}: {exc}")
                line = "FAILED\n"
            if c == 0:
                self._digest_lines.append(line)

    def digest(self) -> str:
        """FNV-1a over cycle 0's canonical result lines, in op order."""
        return f"{fnv1a64(''.join(self._digest_lines).encode()):016x}"

    def check(self, op: Op, line: str) -> None:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            raise CheckError("output is not one JSON line") from None
        if doc.get("algorithm") != op.algo:
            raise CheckError(f"algorithm field {doc.get('algorithm')!r}")
        problem = op.inst.problem
        budget = problem.budget
        if problem.kind == "wildag":
            length, spend = path_totals(problem.dag, doc.get("edges"))
        else:
            length, spend, upgraded = tree_totals(problem.graph, doc.get("edges"))
        if (doc.get("objective"), doc.get("spend")) != (length, spend):
            raise CheckError(f"reported ({doc.get('objective')}, {doc.get('spend')}) "
                             f"but edges give ({length}, {spend})")
        if op.algo == "twocost":
            if spend > (1 + op.eps) * budget:
                raise CheckError(f"twocost spend {spend} > (1+eps)B")
        elif op.algo == "uimst":
            if upgraded > op.k:
                raise CheckError(f"uimst upgraded {upgraded} > k={op.k}")
        elif spend > budget or doc.get("feasible") is not True:
            raise CheckError(f"spend {spend} exceeds budget {budget}")
        if problem.kind == "wildag":
            self._check_path_objective(op, length)
        self._objective[op.inst.key][op.algo].append(length)
        self._instances[op.inst.key] = op.inst

    def _check_path_objective(self, op: Op, length: int) -> None:
        key = op.inst.key
        if key not in self._optimum:
            self._optimum[key] = path_optimum(op.inst.problem.dag, op.inst.problem.budget,
                                              op.minimize)
        opt = self._optimum[key]
        if op.algo.endswith("fptas"):
            lo, hi = ((opt, (1 + op.eps) * opt) if op.minimize
                      else ((1 - op.eps) * opt, opt))
            if not lo <= length <= hi:
                raise CheckError(f"fptas length {length} outside [{lo}, {hi}] of optimum {opt}")
        elif length != opt:
            raise CheckError(f"{op.algo} length {length} != optimum {opt}")

    def finish(self) -> float:
        """Cross-op checks; returns the quality ratio.

        quality_ratio is the mean over graded ops of the approximate objective
        relative to the best reference the workload has, 1.0 being best.  DAG
        ops compare with the exact optimum.  imst compares with twocost, whose
        length is at least OPT(B) and so at least that of any budget-feasible
        tree; without a twocost op, with the all-upgraded maximum tree.
        """
        ratios = []
        for key, by_algo in self._objective.items():
            twocost = by_algo.get("twocost")
            if twocost and "imst" in by_algo and twocost[0] < max(by_algo["imst"]):
                self.failures.append(f"{key}: twocost length {twocost[0]} "
                                     f"< imst length {max(by_algo['imst'])}")
            for algo in self.workload.quality_algos:
                if algo not in by_algo:
                    continue
                if key in self._optimum:
                    ref, minimize = self._optimum[key], algo.startswith("wisdag")
                else:
                    ref = twocost[0] if twocost else top_tree_length(
                        self._instances[key].problem.graph)
                    minimize = False
                ratios += [oriented_ratio(value, ref, minimize) for value in by_algo[algo]]
        return sum(ratios) / len(ratios) if ratios else 0.0
