import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.serialization import (
    MAX_VERTICES,
    FormatError,
    Problem,
    instance_hash,
    parse,
    serialize,
)

IMST_DOC = (b'{"kind":"imst","n":3,"budget":5,'
            b'"edges":[{"id":0,"u":0,"v":1,"ladder":[[1,0],[4,2]]},'
            b'{"id":1,"u":1,"v":2,"ladder":[[2,0]]},'
            b'{"id":2,"u":0,"v":2,"ladder":[[5,0]]}],"directed":false}')


def test_parse_then_serialize_is_identity():
    assert serialize(parse(IMST_DOC)) == IMST_DOC


def test_roundtrip_preserves_structure():
    p = parse(IMST_DOC)
    assert p.kind == "imst" and p.budget == 5
    assert p.graph.n == 3 and p.graph.m == 3
    assert p.graph.edges[0].ladder[1].cost == 2


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_random_graph_roundtrip(seed, n):
    m = min(n * (n - 1) // 2, n + 1)
    g = generate.gen_random_graph(n, m, seed=seed)
    p = Problem("imst", seed % 17, graph=g)
    data = serialize(p)
    assert serialize(parse(data)) == data


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_random_dag_roundtrip(seed, n):
    m = min(n * (n - 1) // 2, n + 1)
    d = generate.gen_random_dag(n, m, seed=seed)
    p = Problem("wildag", seed % 13, dag=d)
    data = serialize(p)
    assert serialize(parse(data)) == data


def test_hash_is_stable():
    g = generate.gen_random_graph(6, 9, seed=3)
    # frozen: FNV-1a of the canonical bytes, computed once at freeze time
    assert instance_hash(Problem("imst", 8, graph=g)) == "289aa45b1d7e99d2"


def test_hash_depends_on_budget():
    g = generate.gen_random_graph(5, 6, seed=0)
    a = instance_hash(Problem("imst", 3, graph=g))
    b = instance_hash(Problem("imst", 4, graph=g))
    assert a != b


def _mutate(doc_bytes, **overrides):
    doc = json.loads(doc_bytes)
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize("data,loc_frag", [
    (b"not json", "$"),
    (b"[1,2]", "$"),
    (_mutate(IMST_DOC, kind="mst"), "$.kind"),
    (_mutate(IMST_DOC, budget=-1), "$.budget"),
    (_mutate(IMST_DOC, n=True), "$.n"),
    (_mutate(IMST_DOC, directed=True), "$.directed"),
])
def test_bad_documents_report_location(data, loc_frag):
    with pytest.raises(FormatError) as exc:
        parse(data)
    assert loc_frag in str(exc.value)


def test_missing_field_reported():
    doc = json.loads(IMST_DOC)
    del doc["edges"]
    with pytest.raises(FormatError, match="missing required field 'edges'"):
        parse(json.dumps(doc))


def test_bad_ladder_entry_location():
    doc = json.loads(IMST_DOC)
    doc["edges"][0]["ladder"][1] = [4]
    with pytest.raises(FormatError, match=r"\$\.edges\[0\]\.ladder\[1\]"):
        parse(json.dumps(doc))


def test_invalid_instance_rejected_at_parse():
    doc = json.loads(IMST_DOC)
    doc["edges"][0]["ladder"][0] = [1, 3]  # level 0 must be free
    with pytest.raises(FormatError, match="level 0 must cost 0"):
        parse(json.dumps(doc))


def test_wildag_requires_two_levels_and_endpoints():
    d = generate.gen_random_dag(4, 4, seed=1)
    data = serialize(Problem("wildag", 2, dag=d))
    doc = json.loads(data)
    assert doc["directed"] is True and "source" in doc and "sink" in doc
    doc["edges"][0]["ladder"].append([9, 9])
    with pytest.raises(FormatError, match="exactly two levels"):
        parse(json.dumps(doc))


def test_wisdag_style_decreasing_ladders_accepted():
    doc = {"kind": "wildag", "n": 2, "budget": 1,
           "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[5, 0], [2, 1]]}],
           "source": 0, "sink": 1, "directed": True}
    p = parse(json.dumps(doc))
    assert p.dag.edges[0].base == 5 and p.dag.edges[0].improved == 2


@pytest.mark.parametrize("edges,source_sink,message", [
    # one edge improves upward, one downward: neither direction is valid
    ([[0, 1, [[5, 0], [2, 1]]], [1, 2, [[4, 0], [6, 1]]]], (0, 2),
     "$: invalid instance: edge 0: improved length below base length"),
    # every edge improves downward: worded in that direction, so no ladder is blamed
    ([[0, 1, [[5, 0], [2, 1]]], [1, 0, [[4, 0], [1, 1]]]], (0, 0),
     "$: invalid instance: source and sink must differ; not acyclic"),
    ([[0, 1, [[5, 0], [2, 1]]]], (0, 2), "$: invalid instance: sink not reachable from source"),
])
def test_invalid_decreasing_dag_error_text(edges, source_sink, message):
    # a mixed document is worded against the longest-path rules
    doc = {"kind": "wildag", "n": 3, "budget": 1,
           "edges": [{"id": i, "u": u, "v": v, "ladder": ladder}
                     for i, (u, v, ladder) in enumerate(edges)],
           "source": source_sink[0], "sink": source_sink[1], "directed": True}
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


def test_decreasing_dag_is_validated_once(monkeypatch):
    from netupgrade import instances

    calls = []
    real = instances.validate
    monkeypatch.setattr(instances, "validate",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    doc = {"kind": "wildag", "n": 2, "budget": 1,
           "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[5, 0], [2, 1]]}],
           "source": 0, "sink": 1, "directed": True}
    parse(json.dumps(doc))
    assert calls == [{"improvement": "decrease"}]


@pytest.mark.parametrize("ladder,message", [
    ([[5, 0], [7, 1], [9, 2]], "exactly two levels"),
    ([[5, 1], [7, 1]], "level 0 must cost 0"),
])
def test_wildag_ladder_errors_report_array_index(ladder, message):
    # edge id 7 sits at array index 0: the location names the index
    doc = {"kind": "wildag", "n": 2, "budget": 1,
           "edges": [{"id": 7, "u": 0, "v": 1, "ladder": ladder}],
           "source": 0, "sink": 1, "directed": True}
    with pytest.raises(FormatError, match=message) as exc:
        parse(json.dumps(doc))
    assert exc.value.location == "$.edges[0].ladder"


@pytest.mark.parametrize("n", [10**30, MAX_VERTICES + 1])
def test_oversized_vertex_count_is_a_format_error(n):
    with pytest.raises(FormatError, match="vertex count") as exc:
        parse(_mutate(IMST_DOC, n=n))
    assert exc.value.location == "$.n"
    dag_doc = {"kind": "wildag", "n": n, "budget": 1,
               "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[5, 0], [7, 1]]}],
               "source": 0, "sink": 1, "directed": True}
    with pytest.raises(FormatError, match="vertex count"):
        parse(json.dumps(dag_doc))


def _reversed_edges(data: bytes) -> bytes:
    doc = json.loads(data)
    doc["edges"].reverse()
    return json.dumps(doc, separators=(",", ":")).encode()


def test_parse_orders_imst_edges_by_id():
    from netupgrade.mst_uniform import uimst_half_approx

    p = parse(_reversed_edges(IMST_DOC))
    assert [e.id for e in p.graph.edges] == [0, 1, 2]
    assert p == parse(IMST_DOC)
    assert serialize(p) == IMST_DOC
    two_level = (b'{"kind":"imst","n":3,"budget":1,'
                 b'"edges":[{"id":0,"u":0,"v":1,"ladder":[[1,0],[4,2]]},'
                 b'{"id":1,"u":1,"v":2,"ladder":[[2,0],[3,1]]},'
                 b'{"id":2,"u":0,"v":2,"ladder":[[5,0],[6,1]]}],"directed":false}')
    sol = uimst_half_approx(parse(_reversed_edges(two_level)).graph, 1)
    assert sol.choices == {1: 0, 2: 1}
    assert (sol.total_length, sol.total_spend) == (8, 1)


def test_parse_orders_dag_edges_by_id():
    from netupgrade.dag_dp import wildag_budget_exact

    doc = {"kind": "wildag", "n": 3, "budget": 1,
           "edges": [{"id": 1, "u": 1, "v": 2, "ladder": [[2, 0], [3, 1]]},
                     {"id": 0, "u": 0, "v": 1, "ladder": [[4, 0], [5, 1]]}],
           "source": 0, "sink": 2, "directed": True}
    p = parse(json.dumps(doc))
    assert [e.id for e in p.dag.edges] == [0, 1]
    sol = wildag_budget_exact(p.dag, 1)
    assert sol.edge_ids == (0, 1)
    assert (sol.total_length, sol.total_spend) == (7, 1)


def _dag_document(n: int, m: int) -> bytes:
    return serialize(Problem("wildag", 3, dag=generate.gen_random_dag(n, m, seed=n)))


def _imst_document(n: int, m: int) -> bytes:
    graph = generate.gen_random_graph(n, m, levels=3, seed=n)
    return serialize(Problem("imst", 3, graph=graph))


def test_canonical_dag_parse_checks_fields_once_per_document(monkeypatch):
    # the checked pass reads every edge, of either kind, without a per-field
    # _want call
    from netupgrade import serialization

    for document in (_dag_document, _imst_document):
        counts = []
        for n, m in ((6, 10), (60, 1000)):
            calls = []
            real = serialization._want
            monkeypatch.setattr(serialization, "_want",
                                lambda *a: calls.append(a[1]) or real(*a))
            assert parse(document(n, m)).instance.m == m
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1], document.__name__


def test_extra_edge_keys_fall_back_to_the_per_field_path():
    data = _dag_document(6, 10)
    doc = json.loads(data)
    for edge in doc["edges"]:
        edge["note"] = "kept out"
    assert serialize(parse(json.dumps(doc))) == data


@pytest.mark.parametrize("key,value,message", [
    ("source", True, "$.source: field 'source' must be int"),
    ("sink", 1.0, "$.sink: field 'sink' must be int"),
    ("directed", 1, "$.directed: field 'directed' must be bool"),
])
def test_noncanonical_dag_fields_keep_their_error_text(key, value, message):
    doc = json.loads(_dag_document(6, 10))
    doc[key] = value
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("data,message", [
    (b'\xff', "$: invalid UTF-8: "),
    (b'{"kind":"wildag","n":2,"budget":0,"edges":[' + b'[' * 100_000,
     "$: invalid JSON: nested too deeply"),
    (b'[' * 100_000, "$: invalid JSON: nested too deeply"),
], ids=["bad-utf8", "deep-edges", "deep"])
def test_undecodable_documents_are_format_errors(data, message):
    with pytest.raises(FormatError) as exc:
        parse(data)
    assert str(exc.value).startswith(message)
    assert exc.value.location == "$"


@pytest.mark.parametrize("kind,endpoint", [
    ("imst", 3), ("imst", 10**20), ("wildag", 3), ("wildag", 10**20)])
def test_out_of_range_endpoints_are_reported_not_raised(kind, endpoint):
    # connectivity and acyclicity walks index by endpoint; validation must
    # report the endpoint instead of failing inside them
    doc = {"kind": kind, "n": 3, "budget": 1,
           "edges": [{"id": 0, "u": 0, "v": 1, "ladder": [[1, 0], [2, 1]]},
                     {"id": 1, "u": 1, "v": endpoint, "ladder": [[1, 0], [2, 1]]}],
           "directed": kind == "wildag"}
    if kind == "wildag":
        doc.update(source=0, sink=2)
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == "$: invalid instance: edge 1: endpoint out of range"


@pytest.fixture
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_on else gc.disable)()


_PARSE_INPUTS = [
    (b"not json", "invalid JSON"),
    (_mutate(IMST_DOC, budget=-1).encode(), "budget must be nonnegative"),
    (IMST_DOC.replace(b"[[1,0],[4,2]]", b"[[1,3],[4,2]]"), "level 0 must cost 0"),
    (IMST_DOC.decode(), None),
    (IMST_DOC, None),
]
_PARSE_IDS = ["bad-json", "schema", "invalid-instance", "str", "bytes"]


def _parse_outcome(data, error):
    if error is None:
        assert serialize(parse(data)) == IMST_DOC
    else:
        with pytest.raises(FormatError, match=error):
            parse(data)


@pytest.mark.parametrize("data,error", _PARSE_INPUTS, ids=_PARSE_IDS)
def test_parse_turns_an_enabled_collector_back_on(collector_on, data, error):
    _parse_outcome(data, error)
    assert gc.isenabled()


@pytest.mark.parametrize("data,error", _PARSE_INPUTS, ids=_PARSE_IDS)
def test_parse_leaves_a_disabled_collector_off(collector_on, data, error):
    gc.disable()
    _parse_outcome(data, error)
    assert not gc.isenabled()


@pytest.mark.parametrize("document,n,m", [(_dag_document, 400, 5000),
                                          (_imst_document, 300, 2000)],
                         ids=["wildag", "imst"])
def test_parse_sets_off_no_collection_while_it_reads(collector_on, document, n, m):
    # a collection starts in the frame whose allocation crossed the threshold:
    # without the pause, dozens start in parse, _read and the validators; with
    # it, the one collection it defers starts once they have returned
    from netupgrade import instances, serialization

    data = document(n, m)
    reading = {serialization.__file__, instances.__file__}
    starts = []

    def hook(phase, info):
        if phase == "start" and sys._getframe(1).f_code.co_filename in reading:
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        assert parse(data).instance.m == m
    finally:
        gc.callbacks.remove(hook)
    assert starts == []


@pytest.mark.parametrize("document,n,m", [(_dag_document, 400, 5000),
                                          (_imst_document, 300, 2000)],
                         ids=["wildag", "imst"])
def test_serialize_sets_off_no_collection_while_it_builds(collector_on, document, n, m):
    from netupgrade import serialization

    data = document(n, m)
    problem = parse(data)
    starts = []

    def hook(phase, info):
        if phase == "start" and sys._getframe(1).f_code.co_filename == serialization.__file__:
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        assert serialize(problem) == serialize(parse(data))
    finally:
        gc.callbacks.remove(hook)
    assert starts == [] and gc.isenabled()
