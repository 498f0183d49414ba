"""``parse`` against a frozen reference copy on mutated canonical documents.

The reference below is the per-field parser as it stood before the checked
pass for "wildag" documents was added.  Every document either makes both
raise ``FormatError`` with the same text, or makes both return equal
problems whose canonical bytes match and round-trip byte-stably.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.instances import (
    DagEdge,
    DagInstance,
    ImprovementLevel,
    UpgradableEdge,
    UpgradableGraph,
    _memo,
    validate,
)
from netupgrade.serialization import MAX_VERTICES, FormatError, Problem, parse, serialize


# --- reference: verbatim copy of the per-field parser -------------------------

def _want(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise FormatError(f"missing required field {key!r}", location)
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"field {key!r} must be {kind.__name__}", f"{location}.{key}")
    return value


def reference_parse(data: bytes | str) -> Problem:
    """Parse and validate an instance document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
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


# --- mutations -----------------------------------------------------------------

ODD_VALUES = st.sampled_from([True, False, 1.0, 2.5, "1", "", None, [], {}, -1, 0, 1, 10**20])
TOP_KEYS = ["kind", "n", "budget", "edges", "source", "sink", "directed"]
EDGE_KEYS = ["id", "u", "v", "ladder"]


def _edge(doc, draw):
    edges = doc.get("edges")
    if not isinstance(edges, list) or not edges:
        return None
    return draw(st.sampled_from(edges))


def _ladder(doc, draw):
    edge = _edge(doc, draw)
    if not isinstance(edge, dict) or not isinstance(edge.get("ladder"), list):
        return None
    return edge["ladder"]


def drop_key(doc, draw):
    target = doc if draw(st.booleans()) else _edge(doc, draw)
    if isinstance(target, dict) and target:
        del target[draw(st.sampled_from(sorted(target)))]


def add_key(doc, draw):
    target = doc if draw(st.booleans()) else _edge(doc, draw)
    if isinstance(target, dict):
        target[draw(st.sampled_from(["extra", "w", "levels", "Id"]))] = draw(ODD_VALUES)


def swap_top_value(doc, draw):
    doc[draw(st.sampled_from(TOP_KEYS))] = draw(ODD_VALUES)


def swap_edge_value(doc, draw):
    edge = _edge(doc, draw)
    if isinstance(edge, dict):
        edge[draw(st.sampled_from(EDGE_KEYS))] = draw(ODD_VALUES)


def replace_edge(doc, draw):
    edges = doc.get("edges")
    if isinstance(edges, list) and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = draw(
            st.sampled_from([[0, 1, [[1, 0], [2, 1]]], None, 3, "edge"]))


def swap_ladder_value(doc, draw):
    ladder = _ladder(doc, draw)
    if ladder:
        j = draw(st.integers(0, len(ladder) - 1))
        if isinstance(ladder[j], list) and ladder[j] and draw(st.booleans()):
            ladder[j][draw(st.integers(0, len(ladder[j]) - 1))] = draw(ODD_VALUES)
        else:
            ladder[j] = draw(st.sampled_from([[1], [1, 0, 0], 5, None, (), "ab"]))


def reorder_edges(doc, draw):
    edges = doc.get("edges")
    if isinstance(edges, list):
        doc["edges"] = draw(st.permutations(edges))


def resize_ladder(doc, draw):
    ladder = _ladder(doc, draw)
    if ladder is None:
        return
    if draw(st.booleans()):
        del ladder[1:]
    else:
        ladder.append([10**6, 10**6])


def costly_level_zero(doc, draw):
    ladder = _ladder(doc, draw)
    if ladder and isinstance(ladder[0], list) and len(ladder[0]) == 2:
        ladder[0][1] = draw(st.integers(1, 3))


def reverse_ladder_lengths(doc, draw):
    ladder = _ladder(doc, draw)
    if (ladder and len(ladder) == 2 and all(isinstance(s, list) and len(s) == 2
                                             for s in ladder)):
        ladder[0][0], ladder[1][0] = ladder[1][0], ladder[0][0]


def bad_endpoint(doc, draw):
    n = doc["n"] if type(doc.get("n")) is int else 3
    key = draw(st.sampled_from(["source", "sink", "u", "v", "id"]))
    value = draw(st.sampled_from([-1, n, n + 5, 0, 1, True, 1.0]))
    target = doc if key in ("source", "sink") else _edge(doc, draw)
    if isinstance(target, dict):
        target[key] = value


def flip_directed(doc, draw):
    if isinstance(doc.get("directed"), bool):
        doc["directed"] = not doc["directed"]


MUTATIONS = [drop_key, add_key, swap_top_value, swap_edge_value, replace_edge,
             swap_ladder_value, reorder_edges, resize_ladder, costly_level_zero,
             reverse_ladder_lengths, bad_endpoint, flip_directed]


@st.composite
def documents(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    if draw(st.booleans()):
        dag = generate.gen_random_dag(n, m, seed=seed)
        problem = Problem("wildag", draw(st.integers(0, 20)), dag=dag)
    else:
        graph = generate.gen_random_graph(n, m, levels=draw(st.integers(1, 3)), seed=seed)
        problem = Problem("imst", draw(st.integers(0, 20)), graph=graph)
    doc = json.loads(serialize(problem))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(doc, draw)
    compact = draw(st.booleans())
    return json.dumps(doc, separators=(",", ":") if compact else None).encode()


def _outcome(parser, data: bytes):
    try:
        return "ok", parser(data)
    except FormatError as exc:
        return "error", str(exc)


def _ladder_mutant(*, source=None, short_last=False, extra_key=False) -> bytes:
    """A "wildag" document with a ladder-shape error that a later field
    error must outrank, or that must lose to an earlier shape error."""
    dag = generate.gen_random_dag(6, 10, seed=6)
    doc = json.loads(serialize(Problem("wildag", 3, dag=dag)))
    edges = doc["edges"]
    if extra_key:
        edges[0]["note"] = 1
        edges[1]["ladder"][0][1] = 1
        del edges[3]["ladder"][1:]
    else:
        edges[0]["ladder"].append([10**6, 10**6])
    if source is not None:
        doc["source"] = source
    if short_last:
        edges[-1]["ladder"][1] = [1]
    return json.dumps(doc).encode()


@given(documents())
@example(_ladder_mutant(source=True))
@example(_ladder_mutant(short_last=True))
@example(_ladder_mutant(extra_key=True))
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_reference(data):
    got, expected = _outcome(parse, data), _outcome(reference_parse, data)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
        return
    problem = got[1]
    assert problem == expected[1]
    canonical = serialize(problem)
    assert canonical == serialize(expected[1])
    assert serialize(parse(canonical)) == canonical


# --- decoders ------------------------------------------------------------------
# parse decodes bytes with orjson and falls back to json.loads; the reference
# uses json.loads alone.  These documents are where the two decoders differ.

PLACE = 987_654_321  # stands in for a value that json.dumps cannot write


def _small_documents() -> list[dict]:
    dag = generate.gen_random_dag(4, 4, seed=3)
    graph = generate.gen_random_graph(4, 4, levels=2, seed=3)
    return [json.loads(serialize(Problem("wildag", 3, dag=dag))),
            json.loads(serialize(Problem("imst", 3, graph=graph)))]


def _int_fields(doc: dict) -> list[tuple]:
    """The path of every int field of a canonical document."""
    paths = [(key,) for key in ("n", "budget", "source", "sink") if key in doc]
    for i, edge in enumerate(doc["edges"]):
        paths += [("edges", i, key) for key in ("id", "u", "v")]
        paths += [("edges", i, "ladder", j, k)
                  for j in range(len(edge["ladder"])) for k in (0, 1)]
    return paths + [("extra",)]  # a key parse ignores


def _with(doc: dict, path: tuple, text: str) -> bytes:
    """The document with the value at ``path`` written as ``text``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = PLACE
    return json.dumps(doc).replace(str(PLACE), text).encode()


def _same_outcome(data: bytes) -> None:
    got, expected = _outcome(parse, data), _outcome(reference_parse, data)
    assert got == expected, data


def test_integers_past_64_bits_parse_as_the_reference_does():
    cases = 0
    for doc in _small_documents():
        for path in _int_fields(doc):
            for value in (2**63, 2**64, -2**63 - 1, 10**30):
                _same_outcome(_with(doc, path, str(value)))
                cases += 1
    assert cases > 200


def test_non_finite_numbers_parse_as_the_reference_does():
    for doc in _small_documents():
        for path in _int_fields(doc):
            for text in ("NaN", "Infinity", "-Infinity", "1e400"):
                _same_outcome(_with(doc, path, text))


def test_a_lone_surrogate_kind_parses_as_the_reference_does():
    for doc in _small_documents():
        data = _with(doc, ("kind",), '"\\ud800"')
        _same_outcome(data)
        with pytest.raises(FormatError, match="unknown kind"):
            parse(data)


@pytest.mark.parametrize("depth", [1, 5, 50, 400])
def test_nesting_inside_edges_parses_as_the_reference_does(depth):
    nested = "[" * depth + "]" * depth
    for doc in _small_documents():
        _same_outcome(_with(doc, ("edges",), f"[{nested}]"))
        _same_outcome(_with(doc, ("edges", 0, "u"), nested))
        _same_outcome(_with(doc, ("edges", 1, "ladder"), f"[{nested}, [1, 0]]"))
        _same_outcome(_with(doc, ("edges", 0, "note"), nested))
        _same_outcome(_with(doc, ("extra",), nested))


def test_nesting_past_the_recursion_limit_is_an_error_wherever_it_hides():
    # orjson reads these, json.loads does not: a value under an extra key or
    # under a key that a later copy replaces must still fail to parse
    nested = "[" * 5000 + "]" * 5000
    for doc in _small_documents():
        data = _with(doc, ("edges", 0, "note"), nested)
        for document in (data, _with(doc, ("extra",), nested),
                         data.replace(b'{"kind"', b'{"kind":' + nested.encode() + b',"kind"')):
            with pytest.raises(FormatError) as exc:
                parse(document)
            assert str(exc.value) == "$: invalid JSON: nested too deeply"


def test_stdlib_only_results_keep_their_text():
    dag_doc, _ = _small_documents()
    with pytest.raises(FormatError) as exc:
        parse(_with(dag_doc, ("n",), str(10**30)))
    assert str(exc.value) == f"$.n: vertex count exceeds {MAX_VERTICES}"
    with pytest.raises(FormatError) as exc:
        parse(_with(dag_doc, ("edges", 1, "v"), str(10**20)))
    assert str(exc.value) == "$: invalid instance: edge 1: endpoint out of range"


def _count_decodes(monkeypatch) -> dict:
    from netupgrade import serialization

    calls = {"orjson": 0, "json": 0}
    for name, module in (("orjson", serialization.orjson), ("json", serialization.json)):
        def counted(data, real=module.loads, name=name):
            calls[name] += 1
            return real(data)
        monkeypatch.setattr(module, "loads", counted)
    return calls


@pytest.mark.parametrize("problem", [
    Problem("wildag", 5, dag=generate.gen_random_dag(30, 90, seed=8)),
    Problem("imst", 5, graph=generate.gen_random_graph(30, 90, levels=3, seed=8)),
], ids=["wildag", "imst"])
def test_a_valid_document_is_decoded_once_by_orjson_alone(monkeypatch, problem):
    data = serialize(problem)
    calls = _count_decodes(monkeypatch)
    assert serialize(parse(data)) == data
    assert calls == {"orjson": 1, "json": 0}


def test_a_bracket_outside_the_schema_sends_the_document_to_json(monkeypatch):
    dag_doc, _ = _small_documents()
    canonical = reference_parse(json.dumps(dag_doc).encode())
    for data in (_with(dag_doc, ("extra",), '"x["'), _with(dag_doc, ("extra",), "[]"),
                 _with(dag_doc, ("extra",), ",".join(["[]"] * 40_000).join("[]"))):
        calls = _count_decodes(monkeypatch)
        assert parse(data) == canonical
        assert calls["json"] == 1
        monkeypatch.undo()
    # too many brackets to be sure of orjson's stack: json alone decodes it
    assert calls["orjson"] == 0
