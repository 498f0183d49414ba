"""Problem instances for upgradeable networks.

Two instance families:

* ``UpgradableGraph`` -- an undirected graph whose edges carry a ladder of
  (length, cost) improvement levels; level 0 is always free.
* ``DagInstance`` -- a DAG with per-edge base length, improved length and
  improvement cost, plus a source and a sink.

Edges, ladder levels and multigraph copies are ``NamedTuple`` records, cheap
to build; validation reads them by unpacking.  Instances are immutable
after construction and every operation here is pure, so a fact derived from
an instance can be kept on the instance itself: ``_memo(instance)`` is a dict
in the instance's ``__dict__``, outside the dataclass fields, so ``==``,
``hash`` and ``repr`` never see it.  It holds successes only.
``require_valid`` records a passed validation per ``improvement`` direction
and never a failure, so an invalid instance raises the same violations on
every call.  A DAG keeps its head lists (``heads[v]``, the heads of v's
out-edges), its topological order, the vertices its source reaches and its
source-sink edges (``st_edges``) there, so validation,
``effective_max_length`` and the frontier DP share one computation of each.
Reachability is one sweep of the kept order over the head lists.
A graph keeps its ladders as plain tuples for ``solution_from_choices``; the
solvers keep their derived plans (the randomized solver's relaxation, the
base-length spanning tree) there too.  The rule assumes the instance is
built from tuples and never mutated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from operator import ge, itemgetter, le
from typing import NamedTuple

from ._util import UnionFind


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
        return list(_order(self))

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


def _heads(dag: DagInstance) -> list[list[int]]:
    """The DAG's head lists; memoized, shared, never mutated."""
    memo = _memo(dag)
    if "heads" not in memo:
        memo["heads"] = _head_lists(dag.n, dag.edges)
    return memo["heads"]


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


def _order(dag: DagInstance) -> list[int]:
    """Kahn's order, smallest vertex id first; memoized, shared, never mutated.

    Raises InvalidInstanceError if the edge relation has a cycle.
    """
    memo = _memo(dag)
    if "order" not in memo:
        order = _topological_order(dag.n, _heads(dag))
        if order is None:
            raise InvalidInstanceError(["not acyclic"])
        memo["order"] = order
    return memo["order"]


def reachable_from(dag: DagInstance, start: int) -> set[int]:
    """Vertices reachable from `start` along the edges: one forward sweep of
    the topological order, so the DAG must be acyclic."""
    order, heads = _order(dag), _heads(dag)
    seen = {start}
    for v in order:
        if v in seen:
            seen.update(heads[v])
    return seen


def reaching_to(dag: DagInstance, target: int) -> set[int]:
    """Vertices that reach `target` along the edges: one reverse sweep of the
    topological order, so the DAG must be acyclic."""
    order, heads = _order(dag), _heads(dag)
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
    if n <= 1:
        return True
    uf = UnionFind(n)
    for u, v in pairs:
        uf.union(u, v)
    return uf.components() == 1


# solvers look edges up by id as edges[edge_id]
_NOT_DENSE = "edge ids are not dense in [0, m) in list order (edges[i].id == i)"


def _validate_graph(graph: UpgradableGraph) -> list[str]:
    bad: list[str] = []
    if graph.n < 1:
        bad.append("vertex count must be positive")
        return bad
    n, seen_ids = graph.n, set()
    endpoints_in_range = True
    for eid, u, v, ladder in graph.edges:
        if eid in seen_ids:
            bad.append(f"duplicate edge id {eid}")
        seen_ids.add(eid)
        if not (0 <= u < n and 0 <= v < n):
            bad.append(f"edge {eid}: endpoint out of range")
            endpoints_in_range = False
        elif u == v:
            bad.append(f"edge {eid}: endpoints must be distinct")
        if not ladder:
            bad.append(f"edge {eid}: empty ladder")
            continue
        if ladder[0].cost != 0:
            bad.append(f"edge {eid}: level 0 must cost 0")
        for length, cost in ladder:
            if length < 0 or cost < 0:
                bad.append(f"edge {eid}: negative length or cost")
                break
        lengths, costs = zip(*ladder)
        increasing = all(a <= b for a, b in zip(lengths, lengths[1:]))
        decreasing = all(a >= b for a, b in zip(lengths, lengths[1:]))
        if not (increasing or decreasing):
            bad.append(f"edge {eid}: ladder lengths not monotone")
        if not all(a <= b for a, b in zip(costs, costs[1:])):
            bad.append(f"edge {eid}: ladder costs not nondecreasing")
    if any(e.id != i for i, e in enumerate(graph.edges)):
        bad.append(_NOT_DENSE)
    # connectivity is only defined over in-range endpoints
    if endpoints_in_range and not is_connected(graph.n, ((e.u, e.v) for e in graph.edges)):
        bad.append("not connected")
    return bad


def _columns_valid(n: int, edges, improvement: str) -> bool:
    """Whether no edge breaks a per-edge rule, checked column by column; ids
    equal to 0..m-1 are both dense and distinct."""
    ids, tails, tips, bases, improveds, costs = zip(*edges)
    return (ids == tuple(range(len(ids)))
            and min(tails) >= 0 and min(tips) >= 0 and max(tails) < n and max(tips) < n
            and min(bases) >= 0 and min(improveds) >= 0 and min(costs) >= 0
            and all(map(ge if improvement == "decrease" else le, bases, improveds)))


def _validate_dag(dag: DagInstance, improvement: str) -> list[str]:
    bad: list[str] = []
    if dag.n < 2:
        bad.append("DAG needs at least two vertices")
        return bad
    n = dag.n
    endpoints_in_range = True
    if dag.edges and not _columns_valid(n, dag.edges, improvement):
        # some rule is broken: word every violation, edge by edge
        seen_ids = set()
        for eid, tail, head, base, improved, cost in dag.edges:
            if eid in seen_ids:
                bad.append(f"edge {eid}: duplicate id")
            seen_ids.add(eid)
            if not (0 <= tail < n and 0 <= head < n):
                bad.append(f"edge {eid}: endpoint out of range")
                endpoints_in_range = False
            if base < 0 or improved < 0 or cost < 0:
                bad.append(f"edge {eid}: negative length or cost")
            if improvement == "increase" and base > improved:
                bad.append(f"edge {eid}: improved length below base length")
            if improvement == "decrease" and improved > base:
                bad.append(f"edge {eid}: improved length above base length")
        if any(e.id != i for i, e in enumerate(dag.edges)):
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

    ``improvement`` selects the expected direction for DAG ladders:
    "increase" for longest-path instances, "decrease" for shortest-path ones.
    """
    if isinstance(instance, UpgradableGraph):
        return _validate_graph(instance)
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
    ladders = _memo(graph).get("ladders")
    if ladders is None:  # read on every tree solve: plain tuples read faster than records
        ladders = _memo(graph)["ladders"] = [tuple(map(tuple, e.ladder)) for e in graph.edges]
    length = spend = 0
    for eid, lvl in choices.items():
        step_length, step_cost = ladders[eid][lvl]
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
