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

A vertex collects its candidates in a scratch row by spend, a list or a
dict, and keeps only the frontier read off it.  Base copies are free, so
every frontier starts at spend 0, and the best base-copy extension of the
heads' spend-0 pairs bounds every pair a vertex keeps; an out-edge whose
best candidate is worse than that bound cannot add a kept pair and is
skipped (the simplest label bound of resource-constrained shortest paths,
Dumitrescu & Boland, Networks 42(3), 2003).  No parent pointers are kept:
the answer's path is recovered from the frontiers alone, and every solver
returns it totalled by ``instances.evaluate_path``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction

from ._util import as_fraction
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


def _path(dag: DagInstance, edge_ids, improved) -> PathSolution:
    return PathSolution(tuple(edge_ids), tuple(improved),
                        *evaluate_path(dag, edge_ids, improved))


def _require(dag: DagInstance, budget: int, minimize: bool, what: str) -> None:
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if budget < 0:
        raise ValueError(f"{what} must be nonnegative")


def _keeps(frontier, w: int, s: int) -> bool:
    """Whether a frontier, listed by rising spend, holds the pair (w, s)."""
    i = bisect_left(frontier, s, key=lambda pair: pair[1])
    return i < len(frontier) and frontier[i] == (w, s)


def _frontier_dp(dag: DagInstance, budget: int, minimize: bool, weights):
    """Edge ids and improvement flags of the best source-sink path whose
    upgrades fit the budget, each edge read as
    ``weights[edge id] = (base length, improved length, price)``.

    pairs[v] lists the non-dominated (length, spend) pairs of v->sink paths
    by rising spend: a pair survives when every cheaper one has a worse
    length.  Lengths are negated when maximizing, so lower is better.
    v's row, scratch that lives only while v is filled, holds v's best
    candidate length per spend: each out-edge extends every pair of its head
    at base length and, within the budget, improved at its price.

    Before the row is filled, ``bound`` is the best base candidate from
    the heads' spend-0 pairs.  Every frontier starts at spend 0, by
    induction from the sink's (0, 0), since a base copy costs nothing; so
    v's spend-0 pair is at most ``bound``, and so is every pair v keeps.  An
    out-edge whose best candidate, its head's best length plus the better of
    its two lengths, is strictly above ``bound`` is skipped: each of its
    candidates sits at spend >= 0 behind v's spend-0 pair and can neither
    become nor displace a kept pair.  An edge that attains ``bound`` is
    kept, so the frontiers, and the path rebuilt from them, are the ones
    the unskipped DP finds.  The row reads only the remaining edges.  It
    is a list indexed by spend 0..top, where top = min(budget, largest head
    spend + price), when top + 1 is at most twice the head pairs read;
    otherwise it is a dict.  So a row costs at most a constant times its
    candidates, whatever the budget.  Both kinds share one fill: a spend
    missing from the dict reads INF, as an unfilled list entry does.

    The path is rebuilt from the source's best length at its smallest spend.
    Each step takes the first out-edge, in out-edge order with base before
    improved, whose head keeps the pair (rest of the length, rest of the
    spend), which fixes the path among equal optima.  Every candidate
    extends a kept pair of its head, and the heads' full rows would give the
    same step: a row entry dominated by a cheaper spend feeds no kept pair,
    as the cheaper entry feeds a cheaper spend at no worse length.
    """
    sign = 1 if minimize else -1
    out: dict[int, list[DagEdge]] = {}
    for e in st_edges(dag):
        out.setdefault(e.tail, []).append(e)
    pairs = {dag.sink: [(0, 0)]}
    for v in reversed(dag.topological_order()):
        edges = out.get(v)
        if edges is None:
            continue
        bound = INF
        for e in edges:
            x = pairs[e.head][0][0] + sign * weights[e.id][0]
            if x < bound:
                bound = x
        live, top, reads = [], 0, 0
        for e in edges:
            base, improved, price = weights[e.id]
            down = pairs[e.head]
            step, lift = sign * base, sign * improved
            if down[-1][0] + (step if step < lift else lift) > bound:
                continue
            live.append((down, step, lift, price))
            reads += len(down)
            t = down[-1][1] + price
            if t > top:
                top = t
        if top > budget:
            top = budget
        row = [INF] * (top + 1) if top < 2 * reads else defaultdict(lambda: INF)
        for down, step, lift, price in live:
            for w, s in down:
                x = w + step
                if x < row[s]:
                    row[s] = x
                s += price
                if s <= top:
                    x = w + lift
                    if x < row[s]:
                        row[s] = x
        entries = enumerate(row) if type(row) is list else sorted(row.items())
        kept, floor = [], INF
        for s, w in entries:
            if w < floor:
                floor = w
                kept.append((w, s))
        pairs[v] = kept
    rest, s = pairs[dag.source][-1]
    v, edge_ids, flags = dag.source, [], []
    while v != dag.sink:
        for e in out[v]:
            base, improved, price = weights[e.id]
            down = pairs[e.head]
            if _keeps(down, rest - sign * base, s):
                rest -= sign * base
                flags.append(False)
                break
            if _keeps(down, rest - sign * improved, s - price):
                rest -= sign * improved
                s -= price
                flags.append(True)
                break
        edge_ids.append(e.id)
        v = e.head
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
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    _require(dag, budget, False, "budget")
    return _fptas(dag, budget, eps, dag.effective_max_length(budget), minimize=False)


def wisdag_fptas(dag: DagInstance, budget: int, eps) -> PathSolution:
    """(1+eps)-approximate budgeted shortest path via ceiling length scaling.

    The scaling unit comes from the all-improvements-free shortest path, a
    lower bound on the optimum, so the ceiling loss stays within eps*OPT.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _require(dag, budget, True, "budget")
    return _fptas(dag, budget, eps, _free_improvement_shortest(dag, budget), minimize=True)


def _free_improvement_shortest(dag: DagInstance, budget: int) -> int:
    """Shortest source-sink path if affordable improvements cost nothing:
    the frontier DP at budget 0, the other upgrades priced out of reach."""
    free = [(e.base, e.improved, 0 if e.cost <= budget else 1) for e in dag.edges]
    return evaluate_path(dag, *_frontier_dp(dag, 0, True, free))[0]
