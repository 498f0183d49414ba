"""Problem instances for upgradeable networks.

Two instance families:

* ``UpgradableGraph`` -- an undirected graph whose edges carry a ladder of
  (length, cost) improvement levels; level 0 is always free.
* ``DagInstance`` -- a DAG with per-edge base length, improved length and
  improvement cost, plus a source and a sink.

Both kinds carry a direction, ``validate``'s ``improvement``: ladder lengths
never fall under "increase" (maximizing solvers) and never rise under
"decrease" (minimizing ones); costs never fall.

Edges, ladder levels and multigraph copies are ``NamedTuple`` records, cheap
to build; validation reads them by unpacking.  Both validators read each
edge once, in the loop that words its violations, so valid and invalid
input take one path.  Instances are immutable after construction and
every operation here is pure, so a fact derived from
an instance can be kept on the instance itself: ``_memo(instance)`` is a dict
in the instance's ``__dict__``, outside the dataclass fields, so ``==``,
``hash`` and ``repr`` never see it.  It holds successes only.
``require_valid`` records a passed validation per ``improvement`` direction
and never a failure, so an invalid instance raises the same violations on
every call.  A DAG keeps three entries there: ``"kahn"``, its head lists
(``heads[v]``, the heads of v's out-edges) with the topological order built
from them; ``"from_s"``, the vertices its source reaches; and
``"st_edges"``, its source-sink edges.  So validation,
``effective_max_length`` and the frontier DP share one computation of each.
Reachability is one sweep of the kept order over the head lists.  A graph
keeps only what its solvers derive: uimst's two edge orders
(``"uimst_orders"``) and one ``("imst_plan", ...)`` entry per randomized
relaxation.  The rule assumes the instance is built from tuples and never
mutated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from operator import ge, itemgetter, le
from typing import NamedTuple

from ._util import kruskal


class InvalidInstanceError(ValueError):
    """Raised when a solver is handed an instance that fails validation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DisconnectedGraphError(ValueError):
    """Raised when a spanning-tree routine gets a disconnected graph."""


class ImprovementLevel(NamedTuple):
    length: int
    cost: int


class UpgradableEdge(NamedTuple):
    id: int
    u: int
    v: int
    ladder: tuple[ImprovementLevel, ...]

    @property
    def base(self) -> ImprovementLevel:
        return self.ladder[0]


@dataclass(frozen=True)
class UpgradableGraph:
    n: int
    edges: tuple[UpgradableEdge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)


class DagEdge(NamedTuple):
    id: int
    tail: int
    head: int
    base: int       # length when not improved
    improved: int   # length after paying `cost`
    cost: int


@dataclass(frozen=True)
class DagInstance:
    n: int
    edges: tuple[DagEdge, ...]
    source: int
    sink: int

    @property
    def m(self) -> int:
        return len(self.edges)

    def topological_order(self) -> list[int]:
        """Kahn's algorithm, smallest vertex id first; memoized, as a fresh list.

        Raises InvalidInstanceError if the edge relation has a cycle.
        """
        return list(_kahn(self)[1])

    def effective_max_length(self, budget: int) -> int:
        """Largest edge length realizable on some s-t path within `budget`.

        Improved lengths count only when the improvement alone is affordable;
        edges off every s-t path are ignored.  This is W: the longest-path
        FPTAS derives its scaling unit from it, and ``bench`` reports it.
        """
        return max([0] + [max(e.base, e.improved) if e.cost <= budget else e.base
                          for e in st_edges(self)])


@dataclass
class TreeSolution:
    """A spanning tree with a chosen improvement level per tree edge."""

    choices: dict[int, int]  # edge_id -> level index
    total_length: int
    total_spend: int

    def improved_edges(self) -> list[int]:
        return sorted(e for e, lvl in self.choices.items() if lvl > 0)


@dataclass(frozen=True)
class PathSolution:
    """A simple s-t path with a per-edge improvement flag."""

    edge_ids: tuple[int, ...]
    improved: tuple[bool, ...]
    total_length: int
    total_spend: int


class EdgeCopy(NamedTuple):
    """One parallel copy in the multigraph expansion of an UpgradableGraph."""

    copy_id: int
    u: int
    v: int
    length: int
    cost: int
    edge_id: int
    level: int


@dataclass(frozen=True)
class MultiGraph:
    n: int
    copies: tuple[EdgeCopy, ...]


def _head_lists(n: int, edges) -> list[list[int]]:
    """heads[v]: the heads of v's out-edges, in edge order.

    Raises InvalidInstanceError, in the validator's words, for every edge
    with an endpoint outside [0, n), which would otherwise index a list
    from its end.
    """
    heads: list[list[int]] = [[] for _ in range(n)]
    if not edges:
        return heads
    tails, tips = list(map(itemgetter(1), edges)), list(map(itemgetter(2), edges))
    if min(tails) < 0 or min(tips) < 0 or max(tails) >= n or max(tips) >= n:
        raise InvalidInstanceError([f"edge {e.id}: endpoint out of range" for e in edges
                                    if not (0 <= e.tail < n and 0 <= e.head < n)])
    for tail, head in zip(tails, tips):
        heads[tail].append(head)
    return heads


def _topological_order(n: int, heads: list[list[int]]) -> list[int] | None:
    indeg = [0] * n
    for w in chain.from_iterable(heads):
        indeg[w] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in heads[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == n else None


def _kahn(dag: DagInstance) -> tuple[list[list[int]], list[int]]:
    """(head lists, Kahn's order smallest vertex id first), one memo entry,
    shared, never mutated.

    Raises InvalidInstanceError on an endpoint out of range or a cycle.
    """
    memo = _memo(dag)
    if "kahn" not in memo:
        heads = _head_lists(dag.n, dag.edges)
        order = _topological_order(dag.n, heads)
        if order is None:
            raise InvalidInstanceError(["not acyclic"])
        memo["kahn"] = heads, order
    return memo["kahn"]


def reachable_from(dag: DagInstance, start: int) -> set[int]:
    """Vertices reachable from `start` along the edges: one forward sweep of
    the topological order, so the DAG must be acyclic."""
    heads, order = _kahn(dag)
    seen = {start}
    for v in order:
        if v in seen:
            seen.update(heads[v])
    return seen


def reaching_to(dag: DagInstance, target: int) -> set[int]:
    """Vertices that reach `target` along the edges: one reverse sweep of the
    topological order, so the DAG must be acyclic."""
    heads, order = _kahn(dag)
    seen = {target}
    for v in reversed(order):
        if not seen.isdisjoint(heads[v]):
            seen.add(v)
    return seen


def _source_reach(dag: DagInstance) -> set[int]:
    """Vertices reachable from the source; memoized."""
    memo = _memo(dag)
    if "from_s" not in memo:
        memo["from_s"] = reachable_from(dag, dag.source)
    return memo["from_s"]


def st_edges(dag: DagInstance) -> tuple[DagEdge, ...]:
    """Edges lying on some source-sink path, in id order; memoized."""
    memo = _memo(dag)
    if "st_edges" not in memo:
        from_s = _source_reach(dag)
        to_t = reaching_to(dag, dag.sink)
        memo["st_edges"] = tuple(e for e in dag.edges
                                 if e.tail in from_s and e.head in to_t)
    return memo["st_edges"]


def is_connected(n: int, pairs) -> bool:
    """Whether the (u, v) pairs join all n vertices: Kruskal finds n - 1 joins."""
    return n <= 1 or len(kruskal([(None, u, v) for u, v in pairs], list(range(n)), n - 1)) == n - 1


# solvers look edges up by id as edges[edge_id]
_NOT_DENSE = "edge ids are not dense in [0, m) in list order (edges[i].id == i)"


def _validate_graph(graph: UpgradableGraph, improvement: str) -> list[str]:
    bad: list[str] = []
    if graph.n < 1:
        bad.append("vertex count must be positive")
        return bad
    n, seen_ids = graph.n, set()
    in_order, direction = ((ge, "nonincreasing") if improvement == "decrease"
                           else (le, "nondecreasing"))
    endpoints_in_range = dense = True
    for i, (eid, u, v, ladder) in enumerate(graph.edges):
        if eid in seen_ids:
            bad.append(f"duplicate edge id {eid}")
        seen_ids.add(eid)
        if eid != i:
            dense = False
        if not (0 <= u < n and 0 <= v < n):
            bad.append(f"edge {eid}: endpoint out of range")
            endpoints_in_range = False
        elif u == v:
            bad.append(f"edge {eid}: endpoints must be distinct")
        if not ladder:
            bad.append(f"edge {eid}: empty ladder")
            continue
        lengths, costs = zip(*ladder)
        if costs[0] != 0:
            bad.append(f"edge {eid}: level 0 must cost 0")
        if min(lengths) < 0 or min(costs) < 0:
            bad.append(f"edge {eid}: negative length or cost")
        if not all(map(in_order, lengths, lengths[1:])):
            bad.append(f"edge {eid}: ladder lengths not {direction}")
        if not all(map(le, costs, costs[1:])):
            bad.append(f"edge {eid}: ladder costs not nondecreasing")
    if not dense:
        bad.append(_NOT_DENSE)
    # connectivity is only defined over in-range endpoints
    if endpoints_in_range and not is_connected(graph.n, ((e.u, e.v) for e in graph.edges)):
        bad.append("not connected")
    return bad


def _validate_dag(dag: DagInstance, improvement: str) -> list[str]:
    bad: list[str] = []
    if dag.n < 2:
        bad.append("DAG needs at least two vertices")
        return bad
    n, seen_ids = dag.n, set()
    endpoints_in_range = dense = True
    for i, (eid, tail, head, base, improved, cost) in enumerate(dag.edges):
        if eid in seen_ids:
            bad.append(f"edge {eid}: duplicate id")
        seen_ids.add(eid)
        if eid != i:
            dense = False
        if not (0 <= tail < n and 0 <= head < n):
            bad.append(f"edge {eid}: endpoint out of range")
            endpoints_in_range = False
        if base < 0 or improved < 0 or cost < 0:
            bad.append(f"edge {eid}: negative length or cost")
        if improvement == "increase" and base > improved:
            bad.append(f"edge {eid}: improved length below base length")
        if improvement == "decrease" and improved > base:
            bad.append(f"edge {eid}: improved length above base length")
    if not dense:
        bad.append(_NOT_DENSE)
    if not (0 <= dag.source < dag.n and 0 <= dag.sink < dag.n):
        bad.append("source or sink out of range")
        return bad
    if dag.source == dag.sink:
        bad.append("source and sink must differ")
    if not endpoints_in_range:  # the graph walks below index by endpoint
        return bad
    try:
        dag.topological_order()
    except InvalidInstanceError:
        bad.append("not acyclic")
        return bad
    if dag.sink not in _source_reach(dag):
        bad.append("sink not reachable from source")
    return bad


def validate(instance, *, improvement: str = "increase") -> list[str]:
    """Return all invariant violations; an empty list means the instance is valid.

    ``improvement`` selects the direction every ladder must run in:
    "increase" (lengths never fall) for the maximizing solvers, "decrease"
    (lengths never rise) for the minimizing ones.
    """
    if isinstance(instance, UpgradableGraph):
        return _validate_graph(instance, improvement)
    if isinstance(instance, DagInstance):
        return _validate_dag(instance, improvement)
    raise TypeError(f"cannot validate {type(instance).__name__}")


def _memo(instance) -> dict:
    """The instance's memo of derived facts (see the module docstring)."""
    return instance.__dict__.setdefault("_memo", {})


def require_valid(instance, *, improvement: str = "increase") -> None:
    """Raise InvalidInstanceError unless the instance is valid; a pass is
    remembered per direction, so each instance validates once."""
    memo = _memo(instance)
    if ("valid", improvement) in memo:
        return
    violations = validate(instance, improvement=improvement)
    if violations:
        raise InvalidInstanceError(violations)
    memo["valid", improvement] = True


def expand_to_multigraph(graph: UpgradableGraph) -> MultiGraph:
    """One parallel copy per improvement level of every edge.

    Copies are ordered by (edge_id, level) with dense copy ids, so the level-0
    copy of an edge always precedes its improved copies.
    """
    copies = []
    cid = 0
    for eid, u, v, ladder in graph.edges:
        for level, (length, cost) in enumerate(ladder):
            copies.append(EdgeCopy(cid, u, v, length, cost, eid, level))
            cid += 1
    return MultiGraph(graph.n, tuple(copies))


def solution_from_choices(graph: UpgradableGraph, choices: dict[int, int]) -> TreeSolution:
    """Build a TreeSolution, computing totals from the graph's ladders."""
    edges = graph.edges
    length = spend = 0
    for eid, lvl in choices.items():
        step_length, step_cost = edges[eid].ladder[lvl]
        length += step_length
        spend += step_cost
    return TreeSolution(dict(choices), length, spend)


def choices_from_copies(mg: MultiGraph, copy_ids) -> dict[int, int]:
    """Map multigraph copy ids back to edge_id -> level choices.

    ``expand_to_multigraph`` numbers copies densely, so ``mg.copies[i]`` is
    the copy with id i.
    """
    return {mg.copies[i].edge_id: mg.copies[i].level for i in copy_ids}


def evaluate_path(dag: DagInstance, edge_ids, improved) -> tuple[int, int]:
    """Recompute (length, spend) of a path given its improvement flags."""
    length = 0
    spend = 0
    for eid, imp in zip(edge_ids, improved):
        e = dag.edges[eid]
        if imp:
            length += e.improved
            spend += e.cost
        else:
            length += e.base
    return length, spend
