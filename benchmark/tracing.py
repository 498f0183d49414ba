"""Per-layer tracing from outside the package.

The tracer rebinds module attributes inside the benchmark process to
wrappers that record spans, so no code under src/ changes.  A name that a
module imported with ``from ... import`` is wrapped at the importing
module's binding (``cli.parse``, ``dag_dp.reachable_from``,
``imst_random.two_cost_mst``), because that is the name the caller looks up.
Spans stay in memory; a layer's self time is its span time minus the time of
the spans it caused.

Counts that describe an instance (table cells, heavy copies) are computed
after the traced pass from the arguments the wrappers kept, so computing
them adds no time to any span.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

from netupgrade import cli, dag_dp, imst_random, instances, mst_uniform, serialization, two_cost

from checks import reverse_topological

DAG_SOLVERS = ("wildag_uniform", "wisdag_uniform", "wildag_budget_exact",
               "wisdag_budget_exact", "wildag_fptas", "wisdag_fptas")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()   # outermost spans of each layer
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.dag_calls: list = []            # (solver name, args)
        self.two_cost_calls: list = []       # (multigraph, budget, eps)
        self._stack: list = []               # child time of each open span
        self._open: Counter = Counter()
        self._patches: list = []

    def patch(self, owner, attr: str, layer: str, on_call=None, on_result=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0]
            self._stack.append(frame)
            self._open[layer] += 1
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                self._open[layer] -= 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                if not self._open[layer]:
                    self.total_ns[layer] += elapsed
                self.self_ns[layer] += elapsed - frame[0]
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        def count(name, amount):
            def hook(*_):
                self.counts[name] += amount(*_)
            return hook

        self.patch(cli, "main", "cli")
        self.patch(cli, "parse", "serialization.parse",
                   on_call=count("serialization.bytes_in", lambda a, k: len(a[0])))
        for owner in (instances, serialization):
            self.patch(owner, "validate", "instances.validate")
        for owner in (instances, dag_dp):
            self.patch(owner, "reachable_from", "instances.reach")
            self.patch(owner, "reaching_to", "instances.reach")
        self.patch(instances.DagInstance, "topological_order", "instances.topo")
        for owner in (cli, imst_random):
            self.patch(owner, "expand_to_multigraph", "instances.expand")
        for name in DAG_SOLVERS:
            self.patch(dag_dp, name, "dag_dp",
                       on_call=lambda a, k, name=name: self.dag_calls.append((name, a)))

        def keep_two_cost(args, _kwargs):
            self.two_cost_calls.append(args)

        def keep_relax(args, kwargs):
            keep_two_cost(args, kwargs)
            self.counts["imst_random.relax.calls"] += 1

        self.patch(two_cost, "two_cost_mst", "two_cost", on_call=keep_two_cost)
        self.patch(imst_random, "two_cost_mst", "two_cost", on_call=keep_relax)
        self.patch(two_cost, "lagrangian_tree", "two_cost.lagrangian_tree")
        self.patch(two_cost, "lambda_search", "two_cost.lambda_search")
        self.patch(two_cost, "swap_chain", "two_cost.swap_chain",
                   on_result=count("two_cost.swap_chain.steps", lambda r: len(r) - 1))
        self.patch(imst_random, "imst_solve", "imst_random",
                   on_result=count("imst_random.trials", lambda r: len(r.trials)))
        self.patch(imst_random, "sample_improved_forest", "imst_random.sample")
        self.patch(mst_uniform, "uimst_half_approx", "mst_uniform")
        for owner in (mst_uniform, imst_random):
            self.patch(owner, "max_spanning_tree", "mst_uniform.mst")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> tuple[dict, dict, float]:
        """(times in ms, deterministic counts, relaxation cache-hit ratio)."""
        ms = lambda ns: ns / 1e6  # noqa: E731
        solves = self.calls["imst_random"]
        relax = self.counts["imst_random.relax.calls"]
        times = {
            "serialization.parse_ms": ms(self.total_ns["serialization.parse"]),
            "cli.self_ms": ms(self.self_ns["cli"]),
            "instances.validate_ms": ms(self.total_ns["instances.validate"]),
            "instances.reach_ms": ms(self.total_ns["instances.reach"]),
            "instances.topo_ms": ms(self.total_ns["instances.topo"]),
            "instances.expand_ms": ms(self.total_ns["instances.expand"]),
            "dag_dp.solve_ms": ms(self.total_ns["dag_dp"]),
            "dag_dp.self_ms": ms(self.self_ns["dag_dp"]),
            "two_cost.solve_ms": ms(self.total_ns["two_cost"]),
            "two_cost.self_ms": ms(self.self_ns["two_cost"]),
            "two_cost.lagrangian_tree_ms": ms(self.total_ns["two_cost.lagrangian_tree"]),
            "two_cost.lambda_search_ms": ms(self.total_ns["two_cost.lambda_search"]),
            "two_cost.swap_chain_ms": ms(self.total_ns["two_cost.swap_chain"]),
            "imst_random.solve_ms": ms(self.total_ns["imst_random"]),
            "imst_random.sample_ms": ms(self.total_ns["imst_random.sample"]),
            "mst_uniform.solve_ms": ms(self.total_ns["mst_uniform"]),
        }
        cells = Counter()
        for name, args in self.dag_calls:
            cells["fptas" if name.endswith("fptas") else "table"] += dag_table_cells(name, *args)
        counts = {
            "serialization.parse.calls": self.calls["serialization.parse"],
            "serialization.bytes_in": self.counts["serialization.bytes_in"],
            "instances.validate.calls": self.calls["instances.validate"],
            "instances.reach.calls": self.calls["instances.reach"],
            "dag_dp.table_cells": cells["table"],
            "dag_dp.fptas_scaled_cells": cells["fptas"],
            "two_cost.heavy_copies": sum(
                sum(1 for c in mg.copies if c.cost > eps * budget)
                for mg, budget, eps in self.two_cost_calls),
            "two_cost.lagrangian_tree.calls": self.calls["two_cost.lagrangian_tree"],
            "two_cost.lambda_search.calls": self.calls["two_cost.lambda_search"],
            "two_cost.swap_chain.steps": self.counts["two_cost.swap_chain.steps"],
            "imst_random.solves": solves,
            "imst_random.relax.calls": relax,
            "imst_random.trials": self.counts["imst_random.trials"],
            "mst_uniform.mst.calls": self.calls["mst_uniform.mst"],
        }
        hit_ratio = (solves - relax) / solves if solves else 0.0
        return times, counts, hit_ratio


# ---------------------------------------------------- table-size accounting
#
# Computed from the instance with the formulas dag_dp documents, so the count
# describes the input, not the implementation: a later DP that fills fewer
# cells leaves these numbers unchanged.

def _reach(dag, start: int, forward: bool) -> set:
    nbrs: dict = {}
    for e in dag.edges:
        a, b = (e.tail, e.head) if forward else (e.head, e.tail)
        nbrs.setdefault(a, []).append(b)
    seen, todo = {start}, [start]
    while todo:
        for w in nbrs.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _budget_cells(dag, budget: int) -> int:
    """|vertices reaching the sink| x (w_max + 1), w_max = (n-1) * W."""
    from_s, to_t = _reach(dag, dag.source, True), _reach(dag, dag.sink, False)
    width = max((max(e.base, e.improved if e.cost <= budget else 0)
                 for e in dag.edges if e.tail in from_s and e.head in to_t), default=0)
    return len(to_t) * ((dag.n - 1) * width + 1)


def _free_shortest(dag, budget: int) -> int:
    """Shortest source-sink length when affordable upgrades are free."""
    out: dict = {}
    for e in dag.edges:
        out.setdefault(e.tail, []).append(e)
    dist = {dag.sink: 0}
    for v in reverse_topological(dag.n, dag.edges):
        for e in out.get(v, ()):
            if e.head in dist:
                step = min(e.base, e.improved) if e.cost <= budget else e.base
                dist[v] = min(dist.get(v, dist[e.head] + step), dist[e.head] + step)
    return dist[dag.source]


def dag_table_cells(name: str, dag, budget: int, eps=None) -> int:
    """Cells of the table a dag_dp solver call fills; for the FPTAS, of the
    table over its scaled instance."""
    if name.endswith("uniform"):
        to_t = _reach(dag, dag.sink, False)
        return len(to_t) * (min(budget, dag.n - 1) + 1)
    if not name.endswith("fptas"):
        return _budget_cells(dag, budget)
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    minimize = name.startswith("wisdag")
    if minimize:
        unit = _free_shortest(dag, budget)
    else:
        from_s, to_t = _reach(dag, dag.source, True), _reach(dag, dag.sink, False)
        unit = max((max(e.base, e.improved if e.cost <= budget else 0)
                    for e in dag.edges if e.tail in from_s and e.head in to_t), default=0)
    k = max(1, (eps.numerator * unit) // (eps.denominator * dag.n))

    def scale(x):
        return -(-x // k) if minimize else x // k

    scaled = instances.DagInstance(dag.n, tuple(
        instances.DagEdge(e.id, e.tail, e.head, scale(e.base),
                          scale(e.improved if e.cost <= budget else e.base),
                          e.cost if e.cost <= budget else 0)
        for e in dag.edges), dag.source, dag.sink)
    return _budget_cells(scaled, budget)
