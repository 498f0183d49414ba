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

Every document is read in one checked pass over its edges, which builds
the instance's edge records and notes whether any "wildag" ladder decreases
(a shortest-path instance); the instance is then validated once, in that
direction.  Fields are tested with exact ``type(x) is int``/``list``/``dict``
checks, which equal ``_want``'s for decoded JSON; ``_want`` runs only to
word an error.  A "wildag" edge whose ladder is two [int, int] levels is
checked and unpacked in one step.  Extra keys are accepted.  A "wildag"
ladder-shape error (two levels, level 0 free) is raised only after every
edge's field checks and after "source", "sink" and "directed", as the first
such error in input order.  Undecodable input (bad UTF-8, JSON nested past
the recursion limit) is a FormatError at "$".

Bytes are decoded by orjson, a declared dependency, which reads the
benchmark's largest documents in about half the time of ``json.loads``.
The standard library decodes the document instead, as UTF-8 and then with
``json.loads``, and the same checks run on that, whenever:

* orjson rejects it (NaN, Infinity, 1e400, lone surrogates, bad UTF-8), or
  the checks raise a FormatError on orjson's values.  orjson reads an
  integer outside 64 bits as a float, which no exact int check passes;
* it has more "[" and "{" than ``_ORJSON_MAX_OPENS``; or
* it has more "[" and "{" than the parsed problem's own objects and arrays,
  so something nests outside the schema: an object or array under an
  extra or repeated key, or a bracket inside a string.  orjson reads any
  depth, where ``json.loads`` stops at the recursion limit.

So every error is worded by the stdlib path, and orjson's result is kept
only for documents nested no deeper than the schema, where both decoders
build the same values.  ``str`` input always takes the stdlib path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import orjson

from ._util import fnv1a64
from .instances import (
    DagEdge,
    DagInstance,
    ImprovementLevel,
    InvalidInstanceError,
    UpgradableEdge,
    UpgradableGraph,
    require_valid,
    validate,
)

MAX_VERTICES = 1 << 20
# orjson 3.8 builds nested values recursively, with about 64 bytes of C
# stack a level, and a document nested past the stack ends the process
# (~130k levels on an 8 MiB stack); 1 << 15 levels take about 2 MiB.  A
# document's depth is at most its count of "[" and "{", so one with more is
# read by the standard library only.
_ORJSON_MAX_OPENS = 1 << 15
_EDGE_FIELDS = itemgetter("id", "u", "v", "ladder")


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
    if type(data) is bytes:
        opens = data.count(b"[") + data.count(b"{")
        if opens <= _ORJSON_MAX_OPENS:
            try:
                problem = _read(orjson.loads(data))
            except (orjson.JSONDecodeError, FormatError):
                pass
            else:
                if opens == _containers(problem):
                    return problem
    return _read(_stdlib_loads(data))


def _stdlib_loads(data: bytes | str):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def _containers(problem: Problem) -> int:
    """The objects and arrays in a document of the problem: the top object,
    the edge list, and each edge's object, ladder and ladder steps."""
    if problem.kind == "wildag":
        return 2 + 4 * problem.dag.m
    return 2 + sum(2 + len(e.ladder) for e in problem.graph.edges)


def _edge_fields(entry, i: int) -> tuple:
    """An edge's id, u, v and ladder; FormatError at the first bad field."""
    if type(entry) is not dict:
        raise FormatError("edge must be an object", f"$.edges[{i}]")
    eid, u, v, ladder = entry.get("id"), entry.get("u"), entry.get("v"), entry.get("ladder")
    if (type(eid) is not int or type(u) is not int or type(v) is not int
            or type(ladder) is not list):
        for key, want in (("id", int), ("u", int), ("v", int), ("ladder", list)):
            _want(entry, key, want, f"$.edges[{i}]")
    return eid, u, v, ladder


def _check_ladder(ladder: list, i: int) -> None:
    """Raise FormatError at the first ladder step that is not [int, int]."""
    for j, step in enumerate(ladder):
        if (type(step) is not list or len(step) != 2
                or type(step[0]) is not int or type(step[1]) is not int):
            raise FormatError("ladder entry must be [length, cost]",
                              f"$.edges[{i}].ladder[{j}]")


def _read(doc) -> Problem:
    """The problem a decoded document describes, checked and validated."""
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
    imst = kind == "imst"
    new = tuple.__new__  # builds a record without its generated __new__ frame
    edges = []
    shape_error = None  # first wildag ladder-shape error; raised after every field check
    decrease = False  # a shortest-path instance stores decreasing ladders in the same format
    for i, entry in enumerate(raw_edges):
        if imst:
            eid, u, v, ladder = _edge_fields(entry, i)
            _check_ladder(ladder, i)
            edges.append(new(UpgradableEdge, (eid, u, v, tuple(
                [new(ImprovementLevel, step) for step in ladder]))))
            continue
        try:
            eid, u, v, ((l, c0), (h, q)) = _EDGE_FIELDS(entry)
        except (KeyError, TypeError, ValueError):
            l = None
        if (type(l) is int and type(c0) is int and type(h) is int and type(q) is int
                and type(eid) is int and type(u) is int and type(v) is int and c0 == 0):
            edges.append(new(DagEdge, (eid, u, v, l, h, q)))
            decrease = decrease or h < l
            continue
        # not two [int, int] levels, level 0 free: find the first error in the edge
        ladder = _edge_fields(entry, i)[3]
        _check_ladder(ladder, i)
        if shape_error is None:
            shape_error = FormatError("wildag ladders must have exactly two levels"
                                      if len(ladder) != 2 else "level 0 must cost 0",
                                      f"$.edges[{i}].ladder")
    edges.sort(key=attrgetter("id"))
    if imst:
        if _want(doc, "directed", bool, "$"):
            raise FormatError('"imst" instances must have "directed": false', "$.directed")
        graph = UpgradableGraph(n, tuple(edges))
        _require_valid(graph, "increase")
        return Problem("imst", budget, graph=graph)
    source = _want(doc, "source", int, "$")
    sink = _want(doc, "sink", int, "$")
    if not _want(doc, "directed", bool, "$"):
        raise FormatError('"wildag" instances must have "directed": true', "$.directed")
    if shape_error is not None:
        raise shape_error
    dag = DagInstance(n, tuple(edges), source, sink)
    _require_valid(dag, "decrease" if decrease else "increase")
    return Problem("wildag", budget, dag=dag)


def _require_valid(instance, improvement: str) -> None:
    # a pass is remembered, so the solver's require_valid in the same
    # direction then passes at once
    try:
        require_valid(instance, improvement=improvement)
    except InvalidInstanceError:
        # errors are reported against the longest-path rules in either case
        raise FormatError("invalid instance: " + "; ".join(validate(instance)), "$") from None


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
