"""Dynamic programs for weight-improvable longest/shortest paths in a DAG.

Three solver families, each with a longest (wildag) and shortest (wisdag)
variant:

* uniform  -- all improvement costs equal; table indexed by (vertex,
  improvements used), O(n^3).
* budget   -- arbitrary costs; per-vertex Pareto frontier of non-dominated
  (length, spend) pairs for v->sink paths (Nemhauser-Ullmann dominance
  lists).  Spends on a frontier are distinct integers in [0, B] and lengths
  at most n*W, so the DP is O(m * min(B+1, nW)) pseudo-polynomial.
* fptas    -- lengths scaled down before the budget DP; spend is exact and
  the reported length is within (1 -/+ eps) of the optimum.

Tables and frontiers store parent pointers so every solver returns a fully
reconstructed path, totalled by ``instances.evaluate_path``.
"""

from __future__ import annotations

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

INF = 1 << 60
_UNSEEN = (INF,)


class NoPathError(RuntimeError):
    """The sink is not reachable, or no state satisfies the budget."""


def _as_fraction(eps) -> Fraction:
    if isinstance(eps, float):
        return Fraction(str(eps))
    return Fraction(eps)


def _relevant(dag: DagInstance):
    """Vertices reaching the sink and edges lying on some source-sink path."""
    from_s = reachable_from(dag, dag.source)
    to_t = reaching_to(dag, dag.sink)
    if dag.sink not in from_s:
        raise NoPathError("sink not reachable from source")
    edges = [e for e in dag.edges if e.head in to_t]
    on_path = [e for e in edges if e.tail in from_s]
    return to_t, edges, on_path


def _uniform_dp(dag: DagInstance, b: int, minimize: bool) -> PathSolution:
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if b < 0:
        raise ValueError("improvement count must be nonnegative")
    costs = {e.cost for e in dag.edges}
    if len(costs) > 1:
        raise ValueError("uniform solver needs equal improvement costs on all edges")
    to_t, edges, _ = _relevant(dag)
    cap = min(b, dag.n - 1)
    order = dag.topological_order()
    worst = -INF if not minimize else INF
    table = {v: [worst] * (cap + 1) for v in to_t}
    parent: dict[int, list] = {v: [None] * (cap + 1) for v in to_t}
    table[dag.sink] = [0] * (cap + 1)
    out: dict[int, list[DagEdge]] = {}
    for e in edges:
        out.setdefault(e.tail, []).append(e)
    prefer = (lambda a, b_: a < b_) if minimize else (lambda a, b_: a > b_)
    for v in reversed(order):
        if v == dag.sink or v not in to_t:
            continue
        row, par = table[v], parent[v]
        for e in out.get(v, ()):
            down = table[e.head]
            for q in range(cap + 1):
                if down[q] != worst:
                    cand = down[q] + e.base
                    if prefer(cand, row[q]):
                        row[q], par[q] = cand, (e.id, False)
                if q >= 1 and down[q - 1] != worst:
                    cand = down[q - 1] + e.improved
                    if prefer(cand, row[q]):
                        row[q], par[q] = cand, (e.id, True)
    if table[dag.source][cap] == worst:
        raise NoPathError("no source-sink path")
    return _reconstruct_uniform(dag, table, parent, cap)


def _reconstruct_uniform(dag, table, parent, cap) -> PathSolution:
    v, q = dag.source, cap
    edge_ids, improved = [], []
    while v != dag.sink:
        eid, imp = parent[v][q]
        edge_ids.append(eid)
        improved.append(imp)
        e = dag.edges[eid]
        v = e.head
        if imp:
            q -= 1
    return _path(dag, edge_ids, improved)


def _path(dag: DagInstance, edge_ids, improved) -> PathSolution:
    return PathSolution(tuple(edge_ids), tuple(improved),
                        *evaluate_path(dag, edge_ids, improved))


def _budget_dp(dag: DagInstance, budget: int, minimize: bool) -> PathSolution:
    """Budgeted path DP over per-vertex Pareto frontiers.

    front[v] maps a v->sink length to (spend, edge id, improved): the least
    spend realizing that length within the budget.  Among equal spends the
    earliest candidate wins, in out-edge order with base before improved,
    which fixes the returned path among equal optima.  Only non-dominated
    pairs are kept: a length survives when no better length costs as little.
    """
    require_valid(dag, improvement="decrease" if minimize else "increase")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    _, _, on_path = _relevant(dag)
    out: dict[int, list[DagEdge]] = {}
    for e in on_path:
        out.setdefault(e.tail, []).append(e)
    front = {dag.sink: {0: (0, None, False)}}
    for v in reversed(dag.topological_order()):
        if v not in out:
            continue
        cand: dict[int, tuple] = {}
        for e in out[v]:
            down = front[e.head]
            steps = [(e.base, 0, False)]
            if e.cost <= budget:
                steps.append((e.improved, e.cost, True))
            for step, cost, imp in steps:
                for w, (s, _, _) in down.items():
                    s += cost
                    w += step
                    if s <= budget and s < cand.get(w, _UNSEEN)[0]:
                        cand[w] = (s, e.id, imp)
        kept, floor = {}, INF
        for w in sorted(cand, reverse=not minimize):
            if cand[w][0] < floor:
                kept[w] = cand[w]
                floor = cand[w][0]
        front[v] = kept
    src = front[dag.source]
    w = min(src) if minimize else max(src)
    v, edge_ids, improved = dag.source, [], []
    while v != dag.sink:
        _, eid, imp = front[v][w]
        e = dag.edges[eid]
        edge_ids.append(eid)
        improved.append(imp)
        w -= e.improved if imp else e.base
        v = e.head
    return _path(dag, edge_ids, improved)


def wildag_uniform(dag: DagInstance, b: int) -> PathSolution:
    """Longest path using at most b improved edges (uniform costs)."""
    return _uniform_dp(dag, b, minimize=False)


def wisdag_uniform(dag: DagInstance, b: int) -> PathSolution:
    """Shortest path using at most b improved edges (uniform costs)."""
    return _uniform_dp(dag, b, minimize=True)


def wildag_budget_exact(dag: DagInstance, budget: int) -> PathSolution:
    """Exact budgeted longest path: largest length w with L(s, w) <= budget."""
    return _budget_dp(dag, budget, minimize=False)


def wisdag_budget_exact(dag: DagInstance, budget: int) -> PathSolution:
    """Exact budgeted shortest path: smallest length w with L(s, w) <= budget."""
    return _budget_dp(dag, budget, minimize=True)


def _scaled_dag(dag: DagInstance, k: int, budget: int, ceiling: bool) -> DagInstance:
    def scale(x: int) -> int:
        return -(-x // k) if ceiling else x // k

    edges = []
    for e in dag.edges:
        improved = e.improved if e.cost <= budget else e.base
        cost = e.cost if e.cost <= budget else 0
        edges.append(DagEdge(e.id, e.tail, e.head, scale(e.base), scale(improved), cost))
    return DagInstance(dag.n, tuple(edges), dag.source, dag.sink)


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
    require_valid(dag)
    w_unit = dag.effective_max_length(budget)
    k = max(1, (eps.numerator * w_unit) // (eps.denominator * dag.n))
    scaled = _budget_dp(_scaled_dag(dag, k, budget, ceiling=False), budget,
                        minimize=False)
    return _rescore(dag, scaled, budget)


def wisdag_fptas(dag: DagInstance, budget: int, eps) -> PathSolution:
    """(1+eps)-approximate budgeted shortest path via ceiling length scaling.

    The scaling unit comes from the all-improvements-free shortest path, a
    lower bound on the optimum, so the ceiling loss stays within eps*OPT.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    require_valid(dag, improvement="decrease")
    lower = _free_improvement_shortest(dag, budget)
    k = max(1, (eps.numerator * lower) // (eps.denominator * dag.n))
    scaled = _budget_dp(_scaled_dag(dag, k, budget, ceiling=True), budget,
                        minimize=True)
    return _rescore(dag, scaled, budget)


def _free_improvement_shortest(dag: DagInstance, budget: int) -> int:
    """Shortest source-sink path if affordable improvements cost nothing."""
    order = dag.topological_order()
    to_t = reaching_to(dag, dag.sink)
    dist = {v: INF for v in to_t}
    dist[dag.sink] = 0
    out: dict[int, list[DagEdge]] = {}
    for e in dag.edges:
        if e.head in to_t:
            out.setdefault(e.tail, []).append(e)
    for v in reversed(order):
        if v == dag.sink or v not in to_t:
            continue
        for e in out.get(v, ()):
            w = min(e.base, e.improved) if e.cost <= budget else e.base
            if dist[e.head] != INF:
                dist[v] = min(dist[v], dist[e.head] + w)
    if dist.get(dag.source, INF) == INF:
        raise NoPathError("no source-sink path")
    return dist[dag.source]


def _rescore(dag: DagInstance, scaled: PathSolution, budget: int) -> PathSolution:
    """Re-evaluate a scaled-instance path in original units.

    Improvement flags on edges whose upgrade alone exceeds the budget were
    clamped to no-ops before scaling; drop them here so the reported spend
    never counts an unaffordable upgrade.
    """
    flags = [imp and dag.edges[eid].cost <= budget
             for eid, imp in zip(scaled.edge_ids, scaled.improved)]
    return _path(dag, scaled.edge_ids, flags)
