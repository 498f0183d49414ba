"""Dynamic programs for weight-improvable longest/shortest paths in a DAG.

Every solver, longest (wildag) or shortest (wisdag), runs one dynamic
program: a per-vertex Pareto frontier of non-dominated (length, spend) pairs
for v->sink paths (Nemhauser-Ullmann dominance lists), where each upgrade is
charged a per-edge price.  The solvers differ only in the prices and the
budget they pass:

* budget  -- the edges' own costs within B.  Spends on a frontier are
  distinct integers in [0, B] and lengths at most n*W, so the DP is
  O(m * min(B+1, nW)) pseudo-polynomial.
* uniform -- every upgrade priced 1 within min(b, n-1), so spend counts
  improvements: at most min(b, n-1)+1 pairs per vertex, O(m * n) <= O(n^3).
* fptas   -- the budget DP over lengths scaled down by a unit K; spend is
  exact and the reported length is within (1 -/+ eps) of the optimum.

Frontier entries keep parent pointers, so every solver returns a fully
reconstructed path, totalled by ``instances.evaluate_path``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .instances import (
    DagEdge,
    DagInstance,
    PathSolution,
    evaluate_path,
    reachable_from,
    reaching_to,
    require_valid,
)

INF = math.inf


class NoPathError(RuntimeError):
    """The sink is not reachable, or no state satisfies the budget."""


def _as_fraction(eps) -> Fraction:
    return Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)


def _relevant(dag: DagInstance) -> list[DagEdge]:
    """Edges lying on some source-sink path."""
    from_s = reachable_from(dag, dag.source)
    to_t = reaching_to(dag, dag.sink)
    if dag.sink not in from_s:
        raise NoPathError("sink not reachable from source")
    return [e for e in dag.edges if e.tail in from_s and e.head in to_t]


def _path(dag: DagInstance, edge_ids, improved) -> PathSolution:
    return PathSolution(tuple(edge_ids), tuple(improved),
                        *evaluate_path(dag, edge_ids, improved))


def _require(dag: DagInstance, budget: int, minimize: bool, what: str) -> None:
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if budget < 0:
        raise ValueError(f"{what} must be nonnegative")


def _frontier_dp(dag: DagInstance, budget: int, minimize: bool, costs):
    """Edge ids and improvement flags of the best source-sink path whose
    upgrades, priced ``costs[edge id]``, fit the budget.

    pairs[v] lists the non-dominated (length, spend) pairs of v->sink paths
    by rising spend: a pair survives when every cheaper one has a worse
    length.  Lengths are negated when maximizing, so lower is better.
    via[v] maps a spend to the (edge id, improved) step of its best length.
    Among equal lengths and spends the earliest candidate wins, in out-edge
    order with base before improved, which fixes the path among equal optima.
    """
    sign = 1 if minimize else -1
    out: dict[int, list[DagEdge]] = {}
    for e in _relevant(dag):
        out.setdefault(e.tail, []).append(e)
    pairs = {dag.sink: [(0, 0)]}
    via: dict[int, dict] = {}
    for v in reversed(dag.topological_order()):
        if v not in out:
            continue
        length: dict[int, int] = {}
        how = via[v] = {}
        best = length.get
        for e in out[v]:
            down, eid, price = pairs[e.head], e.id, costs[e.id]
            step = sign * e.base
            for w, s in down:
                w += step
                if w < best(s, INF):
                    length[s] = w
                    how[s] = (eid, False)
            step, room = sign * e.improved, budget - price
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
    v, edge_ids, improved = dag.source, [], []
    while v != dag.sink:
        eid, imp = via[v][s]
        edge_ids.append(eid)
        improved.append(imp)
        s -= costs[eid] if imp else 0
        v = dag.edges[eid].head
    return edge_ids, improved


def _uniform(dag: DagInstance, b: int, minimize: bool) -> PathSolution:
    """At most b improved edges, whatever they cost: every upgrade is priced 1."""
    _require(dag, b, minimize, "improvement count")
    if len({e.cost for e in dag.edges}) > 1:
        raise ValueError("uniform solver needs equal improvement costs on all edges")
    return _path(dag, *_frontier_dp(dag, min(b, dag.n - 1), minimize, [1] * dag.m))


def _budget(dag: DagInstance, budget: int, minimize: bool) -> PathSolution:
    _require(dag, budget, minimize, "budget")
    return _path(dag, *_frontier_dp(dag, budget, minimize, [e.cost for e in dag.edges]))


def wildag_uniform(dag: DagInstance, b: int) -> PathSolution:
    """Longest path using at most b improved edges (uniform costs)."""
    return _uniform(dag, b, minimize=False)


def wisdag_uniform(dag: DagInstance, b: int) -> PathSolution:
    """Shortest path using at most b improved edges (uniform costs)."""
    return _uniform(dag, b, minimize=True)


def wildag_budget_exact(dag: DagInstance, budget: int) -> PathSolution:
    """Exact budgeted longest path: largest length w with L(s, w) <= budget."""
    return _budget(dag, budget, minimize=False)


def wisdag_budget_exact(dag: DagInstance, budget: int) -> PathSolution:
    """Exact budgeted shortest path: smallest length w with L(s, w) <= budget."""
    return _budget(dag, budget, minimize=True)


def _fptas(dag: DagInstance, budget: int, eps: Fraction, unit: int,
           minimize: bool) -> PathSolution:
    """Budget DP over lengths scaled by K = max(1, floor(eps*unit/n)).

    Lengths are floored for longest paths and ceiled for shortest ones.
    Upgrades costing more than the whole budget become no-ops before scaling;
    their flags are dropped afterwards, so the reported spend never counts one.
    """
    k = max(1, (eps.numerator * unit) // (eps.denominator * dag.n))

    def scale(x: int) -> int:
        return -(-x // k) if minimize else x // k

    edges = []
    for e in dag.edges:
        fits = e.cost <= budget
        edges.append(DagEdge(e.id, e.tail, e.head, scale(e.base),
                             scale(e.improved if fits else e.base), e.cost if fits else 0))
    scaled = DagInstance(dag.n, tuple(edges), dag.source, dag.sink)
    edge_ids, flags = _frontier_dp(scaled, budget, minimize, [e.cost for e in edges])
    return _path(dag, edge_ids, [imp and dag.edges[eid].cost <= budget
                                 for eid, imp in zip(edge_ids, flags)])


def wildag_fptas(dag: DagInstance, budget: int, eps) -> PathSolution:
    """(1-eps)-approximate budgeted longest path via floor length scaling.

    The scaling unit is K = max(1, floor(eps*W'/n)) where W' is the largest
    single-edge length realizable on some affordable source-sink path, so the
    optimum is at least W' and the total floor loss (< n*K <= eps*W') stays
    within eps*OPT.  Costs are never scaled, so spend <= budget exactly; the
    returned totals are exact original units.
    """
    eps = _as_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    _require(dag, budget, False, "budget")
    return _fptas(dag, budget, eps, dag.effective_max_length(budget), minimize=False)


def wisdag_fptas(dag: DagInstance, budget: int, eps) -> PathSolution:
    """(1+eps)-approximate budgeted shortest path via ceiling length scaling.

    The scaling unit comes from the all-improvements-free shortest path, a
    lower bound on the optimum, so the ceiling loss stays within eps*OPT.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _require(dag, budget, True, "budget")
    return _fptas(dag, budget, eps, _free_improvement_shortest(dag, budget), minimize=True)


def _free_improvement_shortest(dag: DagInstance, budget: int) -> int:
    """Shortest source-sink path if affordable improvements cost nothing:
    the frontier DP at budget 0, the other upgrades priced out of reach."""
    free = [0 if e.cost <= budget else 1 for e in dag.edges]
    return evaluate_path(dag, *_frontier_dp(dag, 0, True, free))[0]
