"""A DAG's out-edge lists, topological order, reachability sweeps and column-wise
validation against frozen per-edge references.

``reference_validate_dag`` is the per-edge validator as it stood before the
column checks were added; ``bfs`` and ``kahn`` are plain textbook walks.
"""

import heapq
import random
from collections import deque
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from netupgrade import dag_dp, generate, instances
from netupgrade.instances import (
    _NOT_DENSE,
    DagEdge,
    DagInstance,
    InvalidInstanceError,
    _source_reach,
    reachable_from,
    reaching_to,
    validate,
)
from netupgrade.serialization import Problem, parse, serialize


# --- references -----------------------------------------------------------------

def reference_validate_dag(dag: DagInstance, improvement: str) -> list[str]:
    bad: list[str] = []
    if dag.n < 2:
        bad.append("DAG needs at least two vertices")
        return bad
    n, seen_ids = dag.n, set()
    endpoints_in_range = True
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


def bfs(dag: DagInstance, start: int, forward: bool) -> set[int]:
    nbrs: dict[int, list[int]] = {}
    for e in dag.edges:
        a, b = (e.tail, e.head) if forward else (e.head, e.tail)
        nbrs.setdefault(a, []).append(b)
    seen, queue = {start}, deque([start])
    while queue:
        for w in nbrs.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def kahn(dag: DagInstance) -> list[int]:
    indeg = [0] * dag.n
    for e in dag.edges:
        indeg[e.head] += 1
    ready = [v for v in range(dag.n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for e in dag.edges:
            if e.tail == v:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    heapq.heappush(ready, e.head)
    return order


def twin(dag: DagInstance) -> DagInstance:
    """An equal instance with an empty memo."""
    return DagInstance(dag.n, dag.edges, dag.source, dag.sink)


# --- validation -----------------------------------------------------------------

def _duplicate_id(edges, rng):
    i, j = rng.sample(range(len(edges)), 2)
    edges[i] = edges[i]._replace(id=edges[j].id)


def _sparse_id(edges, rng):
    i = rng.randrange(len(edges))
    edges[i] = edges[i]._replace(id=edges[i].id + rng.choice([len(edges), 1, -1]))


def _swap_ids(edges, rng):
    i, j = rng.sample(range(len(edges)), 2)
    edges[i], edges[j] = edges[j], edges[i]


def _bad_endpoint(edges, rng, n):
    i = rng.randrange(len(edges))
    field = rng.choice(["tail", "head"])
    edges[i] = edges[i]._replace(**{field: rng.choice([-1, -n, n, n + 3])})


def _negative(edges, rng):
    i = rng.randrange(len(edges))
    field = rng.choice(["base", "improved", "cost"])
    edges[i] = edges[i]._replace(**{field: -rng.randint(1, 5)})


def _wrong_direction(edges, rng):
    i = rng.randrange(len(edges))
    e = edges[i]
    edges[i] = e._replace(base=e.improved, improved=e.base)


FAULTS = ["duplicate", "sparse", "swap", "endpoint", "negative", "direction"]


@st.composite
def faulty_dags(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    dag = generate.gen_random_dag(n, m, seed=draw(st.integers(0, 10_000)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    edges = list(dag.edges)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        if fault == "duplicate" and m >= 2:
            _duplicate_id(edges, rng)
        elif fault == "sparse":
            _sparse_id(edges, rng)
        elif fault == "swap" and m >= 2:
            _swap_ids(edges, rng)
        elif fault == "endpoint":
            _bad_endpoint(edges, rng, n)
        elif fault == "negative":
            _negative(edges, rng)
        elif fault == "direction":
            _wrong_direction(edges, rng)
    if draw(st.booleans()):  # a shortest-path instance: every ladder decreases
        edges = [e._replace(base=e.improved, improved=e.base) for e in edges]
    return DagInstance(n, tuple(edges), dag.source, dag.sink)


@given(faulty_dags(), st.sampled_from(["increase", "decrease"]))
@settings(max_examples=500, deadline=None)
def test_validation_matches_the_per_edge_reference(dag, improvement):
    assert validate(dag, improvement=improvement) == \
        reference_validate_dag(twin(dag), improvement)


def test_each_fault_is_reported_as_the_reference_words_it():
    dag = generate.gen_random_dag(8, 16, seed=4)
    rng = random.Random(4)
    for fault in (_duplicate_id, _sparse_id, _swap_ids, _negative, _wrong_direction,
                  lambda edges, rng: _bad_endpoint(edges, rng, 8)):
        edges = list(dag.edges)
        fault(edges, rng)
        faulty = DagInstance(8, tuple(edges), dag.source, dag.sink)
        for improvement in ("increase", "decrease"):
            expected = reference_validate_dag(twin(faulty), improvement)
            assert expected and validate(faulty, improvement=improvement) == expected


@st.composite
def edge_id_dags(draw):
    """A small DAG whose edge ids are dense, permuted, or drawn with repeats,
    gaps and negatives, among out-of-range endpoints, negative lengths and
    costs, and upgrades running either way."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, 10))
    ids = draw(st.one_of(st.just(list(range(m))), st.permutations(range(m)),
                         st.lists(st.integers(-2, m + 2), min_size=m, max_size=m)))
    end, value = st.integers(-1, n), st.integers(-2, 6)
    edges = tuple(DagEdge(eid, draw(end), draw(end), draw(value), draw(value), draw(value))
                  for eid in ids)
    return DagInstance(n, edges, draw(end), draw(end))


@given(edge_id_dags(), st.one_of(st.sampled_from(["increase", "decrease"]), st.text(max_size=3),
                                 st.none(), st.integers()))
@settings(max_examples=500, deadline=None)
# id 1 sits at 0, then 1 repeats in its own place
@example(DagInstance(3, (DagEdge(1, 0, 1, 1, 2, 0), DagEdge(1, 1, 2, 1, 2, 0),
                         DagEdge(2, 0, 2, 2, 1, 0)), 0, 2), "increase")
def test_validation_words_every_id_sequence_as_the_reference(dag, improvement):
    assert validate(dag, improvement=improvement) == \
        reference_validate_dag(twin(dag), improvement)


# --- sweeps ---------------------------------------------------------------------

@given(st.integers(2, 200), st.integers(0, 10_000), st.data())
@settings(max_examples=120, deadline=None)
def test_sweeps_match_breadth_first_search_and_kahn(n, seed, data):
    m = data.draw(st.integers(1, min(n * (n - 1) // 2, 4 * n)))
    labels = list(range(n))
    random.Random(seed).shuffle(labels)  # so vertex ids are not already in order
    made = generate.gen_random_dag(n, m, seed=seed)
    dag = DagInstance(n, tuple(e._replace(tail=labels[e.tail], head=labels[e.head])
                               for e in made.edges), labels[0], labels[-1])
    assert dag.topological_order() == kahn(dag)
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)):
        assert reachable_from(dag, v) == bfs(dag, v, forward=True)
        assert reaching_to(dag, v) == bfs(dag, v, forward=False)


def test_sweeps_from_a_vertex_outside_the_dag_find_only_it():
    dag = generate.gen_random_dag(6, 9, seed=1)
    assert reachable_from(dag, 6) == {6} == bfs(dag, 6, forward=True)
    assert reaching_to(dag, -1) == {-1} == bfs(dag, -1, forward=False)


def test_one_parse_and_solve_builds_the_head_lists_once(monkeypatch):
    built = []
    real = instances._out_edges
    monkeypatch.setattr(instances, "_out_edges",
                        lambda *a: built.append(a) or real(*a))
    doc = serialize(Problem("wildag", 6, dag=generate.gen_random_dag(30, 90, seed=3)))
    dag = parse(doc).dag
    dag_dp.wildag_budget_exact(dag, 6)
    dag_dp.wildag_fptas(dag, 6, Fraction(1, 3))
    assert len(built) == 1
