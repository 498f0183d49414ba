"""Canonical JSON on-disk format for problem instances.

Layout (keys in this order, compact separators, UTF-8):

    {"kind":"imst"|"wildag","n":int,"budget":int,
     "edges":[{"id":int,"u":int,"v":int,"ladder":[[len,cost],...]},...],
     "source":int,"sink":int,"directed":bool}

"source"/"sink" appear only for "wildag"; its ladders have exactly two
entries [[l,0],[h,q]].  Edges are sorted by id and ladders by level, so
serialize(parse(serialize(x))) is byte-identical.  ``parse`` accepts edges in
any order and stores them sorted by id, because solvers look an edge up as
``edges[id]``.  "n" is at most MAX_VERTICES, so validation and the solvers'
per-vertex arrays stay small.

A "wildag" document in canonical shape is read in one checked pass: exact
``int`` source and sink, ``"directed": true``, and edges whose keys are
exactly id/u/v/ladder, with exact ``int`` fields and a ladder of two
[length, cost] pairs whose first cost is 0.  The pass builds the instance
directly and validates it once.  At the first departure from that shape it
hands the whole document to the per-field path, which decides whether the
document is accepted (it also allows extra keys) and words every
error.  "imst" documents always take the per-field path.  Undecodable input
(bad UTF-8, JSON nested past the recursion limit) is a FormatError at "$".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

from ._util import fnv1a64
from .instances import (
    DagEdge,
    DagInstance,
    ImprovementLevel,
    UpgradableEdge,
    UpgradableGraph,
    _memo,
    validate,
)

MAX_VERTICES = 1 << 20


class FormatError(ValueError):
    """Malformed document, schema violation or invariant violation."""

    def __init__(self, message: str, location: str = "$"):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class Problem:
    kind: str  # "imst" | "wildag"
    budget: int
    graph: UpgradableGraph | None = None
    dag: DagInstance | None = None

    @property
    def instance(self):
        return self.graph if self.kind == "imst" else self.dag


def _want(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise FormatError(f"missing required field {key!r}", location)
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"field {key!r} must be {kind.__name__}", f"{location}.{key}")
    return value


def parse(data: bytes | str) -> Problem:
    """Parse and validate an instance document."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    kind = _want(doc, "kind", str, "$")
    if kind not in ("imst", "wildag"):
        raise FormatError(f"unknown kind {kind!r}", "$.kind")
    n = _want(doc, "n", int, "$")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count exceeds {MAX_VERTICES}", "$.n")
    budget = _want(doc, "budget", int, "$")
    if budget < 0:
        raise FormatError("budget must be nonnegative", "$.budget")
    raw_edges = _want(doc, "edges", list, "$")
    if kind == "wildag":
        dag = _canonical_dag(doc, n, raw_edges)
        if dag is not None:
            _require_valid(dag, "$")
            return Problem("wildag", budget, dag=dag)
    edges = []
    for i, entry in enumerate(raw_edges):
        loc = f"$.edges[{i}]"
        if not isinstance(entry, dict):
            raise FormatError("edge must be an object", loc)
        eid = _want(entry, "id", int, loc)
        u = _want(entry, "u", int, loc)
        v = _want(entry, "v", int, loc)
        ladder = _want(entry, "ladder", list, loc)
        steps = []
        for j, step in enumerate(ladder):
            if (not isinstance(step, list) or len(step) != 2
                    or any(isinstance(x, bool) or not isinstance(x, int) for x in step)):
                raise FormatError("ladder entry must be [length, cost]",
                                  f"{loc}.ladder[{j}]")
            steps.append((step[0], step[1]))
        edges.append((eid, u, v, steps))
    if kind == "imst":
        if _want(doc, "directed", bool, "$"):
            raise FormatError('"imst" instances must have "directed": false', "$.directed")
        graph = UpgradableGraph(n, tuple(sorted(
            (UpgradableEdge(eid, u, v, tuple(ImprovementLevel(l, c) for l, c in steps))
             for eid, u, v, steps in edges), key=lambda e: e.id)))
        _require_valid(graph, "$")
        return Problem("imst", budget, graph=graph)
    source = _want(doc, "source", int, "$")
    sink = _want(doc, "sink", int, "$")
    if not _want(doc, "directed", bool, "$"):
        raise FormatError('"wildag" instances must have "directed": true', "$.directed")
    dag_edges = []
    for i, (eid, u, v, steps) in enumerate(edges):
        if len(steps) != 2:
            raise FormatError("wildag ladders must have exactly two levels",
                              f"$.edges[{i}].ladder")
        (l, c0), (h, q) = steps
        if c0 != 0:
            raise FormatError("level 0 must cost 0", f"$.edges[{i}].ladder")
        dag_edges.append(DagEdge(eid, u, v, l, h, q))
    dag = DagInstance(n, tuple(sorted(dag_edges, key=lambda e: e.id)), source, sink)
    _require_valid(dag, "$")
    return Problem("wildag", budget, dag=dag)


_EDGE_KEYS = {"id", "u", "v", "ladder"}


def _canonical_dag(doc: dict, n: int, raw_edges: list) -> DagInstance | None:
    """The instance of a "wildag" document in canonical shape, built in one
    pass; None at the first departure from that shape, whether or not the
    per-field path would accept the document."""
    source, sink = doc.get("source"), doc.get("sink")
    if type(source) is not int or type(sink) is not int or doc.get("directed") is not True:
        return None
    edges = []
    for entry in raw_edges:
        if type(entry) is not dict or entry.keys() != _EDGE_KEYS:
            return None
        eid, u, v, ladder = entry["id"], entry["u"], entry["v"], entry["ladder"]
        if (type(eid) is not int or type(u) is not int or type(v) is not int
                or type(ladder) is not list or len(ladder) != 2):
            return None
        low, high = ladder
        if (type(low) is not list or type(high) is not list
                or len(low) != 2 or len(high) != 2):
            return None
        (l, c0), (h, q) = low, high
        if (type(l) is not int or type(c0) is not int or c0
                or type(h) is not int or type(q) is not int):
            return None
        edges.append(DagEdge(eid, u, v, l, h, q))
    edges.sort(key=attrgetter("id"))
    return DagInstance(n, tuple(edges), source, sink)


def _require_valid(instance, location: str) -> None:
    # shortest-path instances store decreasing ladders in the same format
    improvement = "increase"
    if isinstance(instance, DagInstance) and any(e.improved < e.base for e in instance.edges):
        improvement = "decrease"
    if validate(instance, improvement=improvement):
        # errors are reported against the longest-path rules in either case
        violations = validate(instance)
        raise FormatError("invalid instance: " + "; ".join(violations), location)
    # the solver's require_valid in the same direction then passes at once
    _memo(instance)["valid", improvement] = True


def serialize(problem: Problem) -> bytes:
    """Canonical bytes for a problem; inverse of parse on valid data."""
    if problem.kind == "imst":
        graph = problem.graph
        doc = {
            "kind": "imst",
            "n": graph.n,
            "budget": problem.budget,
            "edges": [
                {"id": e.id, "u": e.u, "v": e.v,
                 "ladder": [[lvl.length, lvl.cost] for lvl in e.ladder]}
                for e in sorted(graph.edges, key=lambda e: e.id)
            ],
            "directed": False,
        }
    elif problem.kind == "wildag":
        dag = problem.dag
        doc = {
            "kind": "wildag",
            "n": dag.n,
            "budget": problem.budget,
            "edges": [
                {"id": e.id, "u": e.tail, "v": e.head,
                 "ladder": [[e.base, 0], [e.improved, e.cost]]}
                for e in sorted(dag.edges, key=lambda e: e.id)
            ],
            "source": dag.source,
            "sink": dag.sink,
            "directed": True,
        }
    else:
        raise ValueError(f"unknown kind {problem.kind!r}")
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def instance_hash(problem: Problem) -> str:
    """64-bit FNV-1a over the canonical serialization, as zero-padded hex."""
    return f"{fnv1a64(serialize(problem)):016x}"
