"""Correctness gate: re-evaluates solver output against the instance.

Nothing here calls solver code.  Returned edge lists are re-walked and
re-summed, and DAG optima come from a spend-indexed dynamic program that
shares nothing with the package's length-indexed tables.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1


class CheckError(Exception):
    """A solver result that fails the gate."""


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def _levels(edges) -> list[tuple[int, int]]:
    try:
        return [(int(e["id"]), int(e["level"])) for e in edges]
    except (KeyError, TypeError, ValueError):
        raise CheckError("malformed edge list") from None


def path_totals(dag, edges) -> tuple[int, int]:
    """(length, spend) of a returned source-sink path, walked edge by edge."""
    v = dag.source
    length = spend = 0
    for eid, level in _levels(edges):
        if not 0 <= eid < dag.m or level not in (0, 1):
            raise CheckError(f"bad path entry id={eid} level={level}")
        e = dag.edges[eid]
        if e.tail != v:
            raise CheckError(f"edge {eid} does not continue the path at vertex {v}")
        v = e.head
        length += e.improved if level else e.base
        spend += e.cost if level else 0
    if v != dag.sink:
        raise CheckError("path does not end at the sink")
    return length, spend


def tree_totals(graph, edges) -> tuple[int, int, int]:
    """(length, spend, upgraded edges) of a returned spanning tree."""
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    length = spend = upgraded = 0
    seen = set()
    for eid, level in _levels(edges):
        if not 0 <= eid < graph.m or eid in seen:
            raise CheckError(f"bad or repeated tree edge {eid}")
        seen.add(eid)
        e = graph.edges[eid]
        if not 0 <= level < len(e.ladder):
            raise CheckError(f"edge {eid}: level {level} out of range")
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            raise CheckError(f"edge {eid} closes a cycle")
        parent[ru] = rv
        length += e.ladder[level].length
        spend += e.ladder[level].cost
        upgraded += level > 0
    if len(seen) != graph.n - 1:
        raise CheckError(f"{len(seen)} edges do not span {graph.n} vertices")
    return length, spend, upgraded


def reverse_topological(n, edges) -> list[int]:
    indeg = [0] * n
    for e in edges:
        indeg[e.head] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    out: list[list] = [[] for _ in range(n)]
    for e in edges:
        out[e.tail].append(e.head)
    for v in order:
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order[::-1]


def path_optimum(dag, budget: int, minimize: bool) -> int:
    """Best source-sink length with spend <= budget.

    best[v][s] is the best v->sink length at spend exactly s; O(m * budget).
    """
    worse = (lambda a, b: a > b) if minimize else (lambda a, b: a < b)
    best: list[list] = [[None] * (budget + 1) for _ in range(dag.n)]
    best[dag.sink][0] = 0
    out: list[list] = [[] for _ in range(dag.n)]
    for e in dag.edges:
        out[e.tail].append(e)
    for v in reverse_topological(dag.n, dag.edges):
        row = best[v]
        for e in out[v]:
            down = best[e.head]
            for s, tail in enumerate(down):
                if tail is None:
                    continue
                for cost, step in ((0, e.base), (e.cost, e.improved)):
                    if s + cost <= budget:
                        cand = tail + step
                        if row[s + cost] is None or worse(row[s + cost], cand):
                            row[s + cost] = cand
    found = [x for x in best[dag.source] if x is not None]
    if not found:
        raise CheckError("reference found no path within the budget")
    return min(found) if minimize else max(found)


def top_tree_length(graph) -> int:
    """Maximum spanning tree length with every edge at its top ladder level;
    no tree a solver returns is longer."""
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for w, u, v in sorted(((e.ladder[-1].length, e.u, e.v) for e in graph.edges), reverse=True):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def oriented_ratio(value: int, reference: int, minimize: bool) -> float:
    """value relative to reference, oriented so that 1.0 is best."""
    if value == reference:
        return 1.0
    num, den = (reference, value) if minimize else (value, reference)
    return float(Fraction(num, den)) if den else 0.0
