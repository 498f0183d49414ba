"""Problem instances for upgradeable networks.

Two instance families:

* ``UpgradableGraph`` -- an undirected graph whose edges carry a ladder of
  (length, cost) improvement levels; level 0 is always free.
* ``DagInstance`` -- a DAG with per-edge base length, improved length and
  improvement cost, plus a source and a sink.

Instances are immutable after construction; every operation here is pure.
So a fact derived from an instance can be kept on the instance itself:
``_memo(instance)`` is a dict in the instance's ``__dict__``, outside the
dataclass fields, so ``==``, ``hash`` and ``repr`` never see it.  It holds
successes only.  ``require_valid`` records a passed validation per
``improvement`` direction and never a failure, so an invalid instance raises
the same violations on every call.  ``st_edges`` keeps a DAG's source-sink
edges there, which every DAG solve and ``effective_max_length`` read; the
solvers keep their derived plans (the randomized solver's relaxation, the
base-length spanning tree) there too.  The rule assumes the instance is
built from tuples and never mutated.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from ._util import UnionFind


class InvalidInstanceError(ValueError):
    """Raised when a solver is handed an instance that fails validation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DisconnectedGraphError(ValueError):
    """Raised when a spanning-tree routine gets a disconnected graph."""


@dataclass(frozen=True)
class ImprovementLevel:
    length: int
    cost: int


@dataclass(frozen=True)
class UpgradableEdge:
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

    def edge(self, edge_id: int) -> UpgradableEdge:
        return self.edges[edge_id]


@dataclass(frozen=True)
class DagEdge:
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
        """Kahn's algorithm; smallest vertex id first for determinism.

        Raises InvalidInstanceError if the edge relation has a cycle.
        """
        order = _topological_order(self.n, self.edges)
        if order is None:
            raise InvalidInstanceError(["not acyclic"])
        return order

    def effective_max_length(self, budget: int) -> int:
        """Largest edge length realizable on some s-t path within `budget`.

        Improved lengths count only when the improvement alone is affordable;
        edges off every s-t path are ignored.  This is W: the longest-path
        FPTAS derives its scaling unit from it, and ``bench`` reports it.
        """
        best = 0
        for e in st_edges(self):
            best = max(best, e.base)
            if e.cost <= budget:
                best = max(best, e.improved)
        return best


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


@dataclass(frozen=True)
class EdgeCopy:
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


def _topological_order(n: int, edges) -> list[int] | None:
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        out[e.tail].append(e.head)
        indeg[e.head] += 1
    import heapq

    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == n else None


def _walk(dag: DagInstance, start: int, forward: bool) -> set[int]:
    """Vertices reachable from `start` along the edges, or against them."""
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for e in dag.edges:
        if forward:
            nbrs[e.tail].append(e.head)
        else:
            nbrs[e.head].append(e.tail)
    seen = {start}
    queue = deque([start])
    while queue:
        for w in nbrs.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reachable_from(dag: DagInstance, start: int) -> set[int]:
    return _walk(dag, start, forward=True)


def reaching_to(dag: DagInstance, target: int) -> set[int]:
    return _walk(dag, target, forward=False)


def st_edges(dag: DagInstance) -> tuple[DagEdge, ...]:
    """Edges lying on some source-sink path, in id order; memoized."""
    memo = _memo(dag)
    if "st_edges" not in memo:
        from_s = reachable_from(dag, dag.source)
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
    seen_ids = set()
    for e in graph.edges:
        if e.id in seen_ids:
            bad.append(f"duplicate edge id {e.id}")
        seen_ids.add(e.id)
        if not (0 <= e.u < graph.n and 0 <= e.v < graph.n):
            bad.append(f"edge {e.id}: endpoint out of range")
        elif e.u == e.v:
            bad.append(f"edge {e.id}: endpoints must be distinct")
        if not e.ladder:
            bad.append(f"edge {e.id}: empty ladder")
            continue
        if e.ladder[0].cost != 0:
            bad.append(f"edge {e.id}: level 0 must cost 0")
        for lvl in e.ladder:
            if lvl.length < 0 or lvl.cost < 0:
                bad.append(f"edge {e.id}: negative length or cost")
                break
        lengths = [lvl.length for lvl in e.ladder]
        costs = [lvl.cost for lvl in e.ladder]
        increasing = all(a <= b for a, b in zip(lengths, lengths[1:]))
        decreasing = all(a >= b for a, b in zip(lengths, lengths[1:]))
        if not (increasing or decreasing):
            bad.append(f"edge {e.id}: ladder lengths not monotone")
        if not all(a <= b for a, b in zip(costs, costs[1:])):
            bad.append(f"edge {e.id}: ladder costs not nondecreasing")
    if any(e.id != i for i, e in enumerate(graph.edges)):
        bad.append(_NOT_DENSE)
    if not is_connected(graph.n, ((e.u, e.v) for e in graph.edges)):
        bad.append("not connected")
    return bad


def _validate_dag(dag: DagInstance, improvement: str) -> list[str]:
    bad: list[str] = []
    if dag.n < 2:
        bad.append("DAG needs at least two vertices")
        return bad
    seen_ids = set()
    for e in dag.edges:
        if e.id in seen_ids:
            bad.append(f"edge {e.id}: duplicate id")
        seen_ids.add(e.id)
        if not (0 <= e.tail < dag.n and 0 <= e.head < dag.n):
            bad.append(f"edge {e.id}: endpoint out of range")
        if min(e.base, e.improved, e.cost) < 0:
            bad.append(f"edge {e.id}: negative length or cost")
        if improvement == "increase" and e.base > e.improved:
            bad.append(f"edge {e.id}: improved length below base length")
        if improvement == "decrease" and e.improved > e.base:
            bad.append(f"edge {e.id}: improved length above base length")
    if any(e.id != i for i, e in enumerate(dag.edges)):
        bad.append(_NOT_DENSE)
    if not (0 <= dag.source < dag.n and 0 <= dag.sink < dag.n):
        bad.append("source or sink out of range")
        return bad
    if dag.source == dag.sink:
        bad.append("source and sink must differ")
    if _topological_order(dag.n, dag.edges) is None:
        bad.append("not acyclic")
        return bad
    if dag.sink not in reachable_from(dag, dag.source):
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
    for e in graph.edges:
        for level, lvl in enumerate(e.ladder):
            copies.append(EdgeCopy(cid, e.u, e.v, lvl.length, lvl.cost, e.id, level))
            cid += 1
    return MultiGraph(graph.n, tuple(copies))


def solution_from_choices(graph: UpgradableGraph, choices: dict[int, int]) -> TreeSolution:
    """Build a TreeSolution, computing totals from the graph's ladders."""
    length = 0
    spend = 0
    for eid, lvl in choices.items():
        step = graph.edges[eid].ladder[lvl]
        length += step.length
        spend += step.cost
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
