"""Dynamic programs for weight-improvable longest/shortest paths in a DAG.

Every solver, longest (wildag) or shortest (wisdag), runs one dynamic
program on the caller's instance: a per-vertex Pareto frontier of
non-dominated (length, spend) pairs for v->sink paths (Nemhauser-Ullmann
dominance lists).  It reads each edge through a weights table,
weights[edge id] = (base length, improved length, price), so the solvers
differ only in the table and the budget they pass:

* budget  -- the edges' own lengths and costs within B.  Spends on a
  frontier are distinct integers in [0, B] and lengths at most n*W, so the
  DP is O(m * min(B+1, nW)) pseudo-polynomial.
* uniform -- every upgrade priced 1 within min(b, n-1), so spend counts
  improvements: at most min(b, n-1)+1 pairs per vertex, O(m * n) <= O(n^3).
* fptas   -- the budget DP over weights whose lengths are scaled down by a
  unit K; spend is exact and the reported length is within (1 -/+ eps) of
  the optimum.

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
    require_valid,
    st_edges,
)
# the reachability names stay importable here: benchmark/tracing.py rebinds them
from .instances import reachable_from, reaching_to  # noqa: F401

INF = math.inf


class NoPathError(RuntimeError):
    """No source-sink path fits the budget.  Exported for callers that catch
    it, though no solver raises it: validation rejects an unreachable sink,
    and the unimproved path fits every nonnegative budget."""


def _as_fraction(eps) -> Fraction:
    return Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)


def _path(dag: DagInstance, edge_ids, improved) -> PathSolution:
    return PathSolution(tuple(edge_ids), tuple(improved),
                        *evaluate_path(dag, edge_ids, improved))


def _require(dag: DagInstance, budget: int, minimize: bool, what: str) -> None:
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if budget < 0:
        raise ValueError(f"{what} must be nonnegative")


def _frontier_dp(dag: DagInstance, budget: int, minimize: bool, weights):
    """Edge ids and improvement flags of the best source-sink path whose
    upgrades fit the budget, each edge read as
    ``weights[edge id] = (base length, improved length, price)``.

    pairs[v] lists the non-dominated (length, spend) pairs of v->sink paths
    by rising spend: a pair survives when every cheaper one has a worse
    length.  Lengths are negated when maximizing, so lower is better.
    via[v] maps a spend to the (edge id, improved) step of its best length.
    Among equal lengths and spends the earliest candidate wins, in out-edge
    order with base before improved, which fixes the path among equal optima.
    """
    sign = 1 if minimize else -1
    out: dict[int, list[DagEdge]] = {}
    for e in st_edges(dag):
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
    return edge_ids, flags


def _uniform(dag: DagInstance, b: int, minimize: bool) -> PathSolution:
    """At most b improved edges, whatever they cost: every upgrade is priced 1."""
    _require(dag, b, minimize, "improvement count")
    if len({e.cost for e in dag.edges}) > 1:
        raise ValueError("uniform solver needs equal improvement costs on all edges")
    weights = [(e.base, e.improved, 1) for e in dag.edges]
    return _path(dag, *_frontier_dp(dag, min(b, dag.n - 1), minimize, weights))


def _budget(dag: DagInstance, budget: int, minimize: bool) -> PathSolution:
    _require(dag, budget, minimize, "budget")
    weights = [(e.base, e.improved, e.cost) for e in dag.edges]
    return _path(dag, *_frontier_dp(dag, budget, minimize, weights))


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

    Lengths are floored for longest paths and ceiled for shortest ones; costs
    are not scaled, and the path is totalled in original units.
    """
    k = max(1, (eps.numerator * unit) // (eps.denominator * dag.n))

    def scale(x: int) -> int:
        return -(-x // k) if minimize else x // k

    weights = [(scale(e.base), scale(e.improved), e.cost) for e in dag.edges]
    return _path(dag, *_frontier_dp(dag, budget, minimize, weights))


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
    free = [(e.base, e.improved, 0 if e.cost <= budget else 1) for e in dag.edges]
    return evaluate_path(dag, *_frontier_dp(dag, 0, True, free))[0]
