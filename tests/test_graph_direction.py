"""Tree instances carry a direction, as DAG instances do: rising ladders for
the maximizing solvers, falling ones for the minimizing ones.

``reference_validate_graph`` is the graph validator as it stood before the
direction rule, when any monotone ladder passed; on graphs whose ladders all
run in the checked direction the two must word every violation alike.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate, instances
from netupgrade._util import UnionFind
from netupgrade.imst_random import RandomizedConfig, imst_solve, minimize_transform
from netupgrade.instances import (
    _NOT_DENSE,
    ImprovementLevel,
    InvalidInstanceError,
    UpgradableEdge,
    UpgradableGraph,
    validate,
)
from netupgrade.mst_uniform import uimst_half_approx
from netupgrade.serialization import FormatError, Problem, parse, serialize


# --- reference -------------------------------------------------------------------

def reference_is_connected(n: int, pairs) -> bool:
    if n <= 1:
        return True
    uf = UnionFind(n)
    for u, v in pairs:
        uf.union(u, v)
    return len({uf.find(v) for v in range(n)}) == 1


def reference_validate_graph(graph: UpgradableGraph) -> list[str]:
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
    if endpoints_in_range and not reference_is_connected(
            graph.n, ((e.u, e.v) for e in graph.edges)):
        bad.append("not connected")
    return bad


# --- faults that keep every ladder rising -----------------------------------------

def _pick(edges, rng):
    i = rng.randrange(len(edges))
    return i, edges[i]


def _duplicate_id(edges, rng, n):
    if len(edges) >= 2:
        i, j = rng.sample(range(len(edges)), 2)
        edges[i] = edges[i]._replace(id=edges[j].id)


def _sparse_id(edges, rng, n):
    i, e = _pick(edges, rng)
    edges[i] = e._replace(id=e.id + rng.choice([len(edges), 1, -1]))


def _bad_endpoint(edges, rng, n):
    i, e = _pick(edges, rng)
    edges[i] = e._replace(**{rng.choice(["u", "v"]): rng.choice([-1, -n, n, n + 3])})


def _self_loop(edges, rng, n):
    i, e = _pick(edges, rng)
    edges[i] = e._replace(v=e.u)


def _empty_ladder(edges, rng, n):
    i, e = _pick(edges, rng)
    edges[i] = e._replace(ladder=())


def _paid_level_zero(edges, rng, n):
    i, e = _pick(edges, rng)
    if e.ladder:
        edges[i] = e._replace(ladder=(e.ladder[0]._replace(cost=rng.randint(1, 5)),)
                              + e.ladder[1:])


def _negative(edges, rng, n):
    # a negative level-0 length or cost keeps the ladder rising
    i, e = _pick(edges, rng)
    if e.ladder:
        field = rng.choice(["length", "cost"])
        edges[i] = e._replace(ladder=(e.ladder[0]._replace(**{field: -rng.randint(1, 5)}),)
                              + e.ladder[1:])


def _falling_cost(edges, rng, n):
    i, e = _pick(edges, rng)
    if len(e.ladder) >= 2:
        last = e.ladder[-1]
        edges[i] = e._replace(ladder=e.ladder[:-1] + (
            last._replace(cost=e.ladder[-2].cost - rng.randint(1, 3)),))


FAULTS = {"duplicate": _duplicate_id, "sparse": _sparse_id, "endpoint": _bad_endpoint,
          "self-loop": _self_loop, "empty": _empty_ladder, "paid": _paid_level_zero,
          "negative": _negative, "falling cost": _falling_cost}


def reflect(edge: UpgradableEdge) -> UpgradableEdge:
    """The edge with its ladder's lengths reversed, costs kept in place: a
    rising ladder becomes a falling one."""
    lengths = [lvl.length for lvl in reversed(edge.ladder)]
    return edge._replace(ladder=tuple(ImprovementLevel(x, lvl.cost)
                                      for x, lvl in zip(lengths, edge.ladder)))


@st.composite
def faulty_graphs(draw):
    """(graph, direction): a generated graph with injected faults, its
    ladders all rising, or all falling under "decrease"."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(max(n - 1, 1), max(n * (n - 1) // 2, 1))) if n > 1 else 0
    graph = (generate.gen_random_graph(n, m, max_len=draw(st.sampled_from([3, 30])),
                                       levels=draw(st.integers(1, 4)),
                                       seed=draw(st.integers(0, 10_000)))
             if m else UpgradableGraph(n, ()))
    rng = random.Random(draw(st.integers(0, 10_000)))
    edges = list(graph.edges)
    for fault in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=4)):
        if edges:
            FAULTS[fault](edges, rng, n)
    if draw(st.booleans()):  # an isolated extra vertex
        n += 1
    direction = draw(st.sampled_from(["increase", "decrease"]))
    if direction == "decrease":
        edges = [reflect(e) for e in edges]
    return UpgradableGraph(n, tuple(edges)), direction


@given(faulty_graphs())
@settings(max_examples=200, deadline=None)
def test_validation_matches_the_reference_in_the_graphs_direction(case):
    graph, direction = case
    assert validate(graph, improvement=direction) == reference_validate_graph(graph)


def test_each_fault_is_reported_as_the_reference_words_it():
    graph = generate.gen_random_graph(8, 14, levels=3, seed=4)
    rng = random.Random(4)
    for name, fault in FAULTS.items():
        edges = list(graph.edges)
        fault(edges, rng, 8)
        for direction in ("increase", "decrease"):
            faulty = UpgradableGraph(8, tuple(edges if direction == "increase"
                                              else map(reflect, edges)))
            expected = reference_validate_graph(faulty)
            assert expected, name
            assert validate(faulty, improvement=direction) == expected, name
    disconnected = UpgradableGraph(9, graph.edges)
    assert validate(disconnected) == reference_validate_graph(disconnected) == ["not connected"]


# --- the rule -------------------------------------------------------------------

def two_level(n, ladders):
    """A path graph 0-1-...-n-1 plus the chord 0-(n-1), one ladder per edge."""
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return UpgradableGraph(n, tuple(
        UpgradableEdge(i, u, v, tuple(ImprovementLevel(*step) for step in ladder))
        for i, ((u, v), ladder) in enumerate(zip(pairs, ladders))))


RISING = two_level(4, [[(1, 0), (5, 2)], [(2, 0), (3, 1)], [(4, 0), (6, 3)], [(3, 0), (3, 1)]])
FALLING = two_level(4, [[(5, 0), (1, 2)], [(3, 0), (2, 1)], [(6, 0), (4, 3)], [(3, 0), (3, 1)]])
FLAT = two_level(4, [[(5, 0), (5, 2)], [(3, 0), (3, 1)], [(6, 0), (6, 3)], [(3, 0), (3, 1)]])
CONFIG = RandomizedConfig(Fraction(1, 2), Fraction(1, 5))


def fresh(graph):
    """An equal graph with an empty memo."""
    return UpgradableGraph(graph.n, graph.edges)


def test_each_direction_rejects_the_other_ones_ladders():
    assert validate(RISING) == validate(FALLING, improvement="decrease") == []
    assert validate(FALLING) == [f"edge {i}: ladder lengths not nondecreasing"
                                 for i in range(3)]
    assert validate(RISING, improvement="decrease") == [
        f"edge {i}: ladder lengths not nonincreasing" for i in range(3)]


@pytest.mark.parametrize("solve", [
    lambda g: uimst_half_approx(g, 1),
    lambda g: imst_solve(g, 3, CONFIG),
], ids=["uimst", "max-imst"])
def test_maximizing_solvers_reject_falling_ladders(solve):
    with pytest.raises(InvalidInstanceError, match="not nondecreasing"):
        solve(fresh(FALLING))
    solve(fresh(RISING))


@pytest.mark.parametrize("solve", [
    lambda g: imst_solve(g, 3, CONFIG, minimize=True),
    minimize_transform,
], ids=["min-imst", "minimize_transform"])
def test_minimizing_solvers_reject_rising_ladders(solve):
    with pytest.raises(InvalidInstanceError, match="not nonincreasing"):
        solve(fresh(RISING))
    solve(fresh(FALLING))


def test_flat_ladders_pass_both_ways():
    g = fresh(FLAT)
    high, low = imst_solve(g, 3, CONFIG), imst_solve(g, 3, CONFIG, minimize=True)
    assert (high.solution.total_length, low.solution.total_length) == (14, 11)
    assert uimst_half_approx(g, 2).total_length == 14


# --- parsing --------------------------------------------------------------------

def test_a_falling_document_is_validated_once_in_its_direction(monkeypatch):
    calls = []
    real = instances.validate
    monkeypatch.setattr(instances, "validate",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    graph = parse(serialize(Problem("imst", 3, graph=FALLING))).graph
    assert graph == FALLING
    imst_solve(graph, 3, CONFIG, minimize=True)
    minimize_transform(graph)
    assert calls == [{"improvement": "decrease"}]


def test_a_mixed_document_lists_only_its_falling_edges():
    mixed = two_level(4, [[(1, 0), (5, 2)], [(3, 0), (2, 1)], [(4, 0), (6, 3)],
                          [(9, 0), (0, 1)]])
    with pytest.raises(FormatError) as exc:
        parse(serialize(Problem("imst", 3, graph=mixed)))
    assert str(exc.value) == ("$: invalid instance: edge 1: ladder lengths not nondecreasing; "
                              "edge 3: ladder lengths not nondecreasing")


def test_a_falling_document_is_worded_in_its_direction():
    # falling edges 0-1 and 1-2 leave vertex 3 apart, and no ladder is to blame
    apart = two_level(4, [[(5, 0), (2, 1)], [(4, 0), (1, 1)]])
    with pytest.raises(FormatError) as exc:
        parse(serialize(Problem("imst", 3, graph=apart)))
    assert str(exc.value) == "$: invalid instance: not connected"
