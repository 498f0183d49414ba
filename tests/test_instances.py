import pytest

from netupgrade.generate import gen_random_dag, gen_random_graph
from netupgrade.instances import (
    DagEdge,
    DagInstance,
    EdgeCopy,
    ImprovementLevel,
    InvalidInstanceError,
    UpgradableEdge,
    UpgradableGraph,
    evaluate_path,
    expand_to_multigraph,
    reachable_from,
    reaching_to,
    require_valid,
    solution_from_choices,
    validate,
)
from netupgrade.serialization import Problem, parse, serialize


def lvl(length, cost):
    return ImprovementLevel(length, cost)


def triangle():
    return UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (lvl(1, 0), lvl(4, 2))),
        UpgradableEdge(1, 1, 2, (lvl(2, 0), lvl(3, 1))),
        UpgradableEdge(2, 0, 2, (lvl(5, 0),)),
    ))


def test_triangle_is_valid():
    assert validate(triangle()) == []


def test_level_zero_must_be_free():
    g = UpgradableGraph(2, (UpgradableEdge(0, 0, 1, (lvl(1, 1),)),))
    assert any("level 0 must cost 0" in v for v in validate(g))


def test_disconnected_graph_reported():
    g = UpgradableGraph(3, (UpgradableEdge(0, 0, 1, (lvl(1, 0),)),))
    assert "not connected" in validate(g)


def test_nonmonotone_ladder_reported():
    g = UpgradableGraph(2, (
        UpgradableEdge(0, 0, 1, (lvl(1, 0), lvl(5, 1), lvl(3, 2))),))
    assert any("not monotone" in v for v in validate(g))


def test_duplicate_and_sparse_edge_ids():
    g = UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (lvl(1, 0),)),
        UpgradableEdge(0, 1, 2, (lvl(1, 0),)),
    ))
    bad = validate(g)
    assert any("duplicate" in v for v in bad)
    assert any("not dense" in v for v in bad)


def test_edges_out_of_id_order_rejected():
    # dense ids, but solvers would read edges[0] as the edge with id 1
    g = UpgradableGraph(3, (
        UpgradableEdge(1, 1, 2, (lvl(1, 0),)),
        UpgradableEdge(0, 0, 1, (lvl(1, 0),)),
    ))
    d = DagInstance(3, (DagEdge(1, 1, 2, 2, 3, 1), DagEdge(0, 0, 1, 4, 5, 1)), 0, 2)
    for instance in (g, d):
        assert any("edges[i].id == i" in v for v in validate(instance))
        with pytest.raises(InvalidInstanceError):
            require_valid(instance)


def test_require_valid_raises_with_all_violations():
    g = UpgradableGraph(2, (UpgradableEdge(0, 0, 0, (lvl(1, 1),)),))
    with pytest.raises(InvalidInstanceError) as exc:
        require_valid(g)
    assert len(exc.value.violations) >= 2


def test_expand_to_multigraph_orders_copies():
    mg = expand_to_multigraph(triangle())
    assert [c.copy_id for c in mg.copies] == list(range(5))
    assert [(c.edge_id, c.level) for c in mg.copies] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert mg.copies[1].length == 4 and mg.copies[1].cost == 2


def test_solution_from_choices_totals():
    sol = solution_from_choices(triangle(), {0: 1, 1: 0})
    assert (sol.total_length, sol.total_spend) == (6, 2)
    assert sol.improved_edges() == [0]


def simple_dag():
    return DagInstance(4, (
        DagEdge(0, 0, 1, 2, 5, 3),
        DagEdge(1, 1, 3, 1, 1, 0),
        DagEdge(2, 0, 2, 4, 6, 2),
        DagEdge(3, 2, 3, 0, 2, 1),
    ), 0, 3)


def test_dag_valid_and_topological_order():
    d = simple_dag()
    assert validate(d) == []
    assert d.topological_order() == [0, 1, 2, 3]


def test_dag_cycle_detected():
    d = DagInstance(2, (DagEdge(0, 0, 1, 1, 1, 0), DagEdge(1, 1, 0, 1, 1, 0)), 0, 1)
    assert "not acyclic" in validate(d)


@pytest.mark.parametrize("endpoint", [-1, -3, 3, 10**20])
def test_endpoints_outside_the_vertex_range_never_index_from_the_end(endpoint):
    # a negative endpoint once read as a list index from the end, so the
    # order listed -1 and left out vertex 2
    d = DagInstance(3, (DagEdge(0, 0, 1, 1, 2, 1), DagEdge(1, 1, endpoint, 1, 2, 1)), 0, 2)
    for walk in (d.topological_order, lambda: reachable_from(d, 0),
                 lambda: reaching_to(d, 2)):
        with pytest.raises(InvalidInstanceError) as exc:
            walk()
        assert exc.value.violations == ["edge 1: endpoint out of range"]
    assert validate(d) == ["edge 1: endpoint out of range"]


def test_dag_improvement_direction():
    d = DagInstance(2, (DagEdge(0, 0, 1, 5, 2, 1),), 0, 1)
    assert any("below base" in v for v in validate(d))
    assert validate(d, improvement="decrease") == []


def test_dag_unreachable_sink():
    d = DagInstance(3, (DagEdge(0, 1, 2, 1, 1, 0), DagEdge(1, 0, 1, 1, 1, 0)), 2, 0)
    assert "sink not reachable from source" in validate(d)


def test_effective_max_length_respects_budget():
    d = simple_dag()
    assert d.effective_max_length(0) == 4
    assert d.effective_max_length(2) == 6
    assert d.effective_max_length(3) == 6


def test_evaluate_path():
    d = simple_dag()
    assert evaluate_path(d, (0, 1), (True, False)) == (6, 3)
    assert evaluate_path(d, (2, 3), (False, True)) == (6, 1)


# ------------------------------------------------------------- edge records
# Each record with its fields in declaration order, positional values and
# the repr text it had as a frozen dataclass.

RECORDS = [
    (ImprovementLevel, ("length", "cost"), (3, 1),
     "ImprovementLevel(length=3, cost=1)"),
    (UpgradableEdge, ("id", "u", "v", "ladder"),
     (0, 0, 1, (ImprovementLevel(1, 0), ImprovementLevel(4, 2))),
     "UpgradableEdge(id=0, u=0, v=1, ladder=(ImprovementLevel(length=1, cost=0),"
     " ImprovementLevel(length=4, cost=2)))"),
    (DagEdge, ("id", "tail", "head", "base", "improved", "cost"), (0, 0, 1, 2, 5, 1),
     "DagEdge(id=0, tail=0, head=1, base=2, improved=5, cost=1)"),
    (EdgeCopy, ("copy_id", "u", "v", "length", "cost", "edge_id", "level"),
     (4, 1, 2, 7, 3, 2, 1),
     "EdgeCopy(copy_id=4, u=1, v=2, length=7, cost=3, edge_id=2, level=1)"),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS)
def test_record_fields_construction_and_repr(cls, fields, values, text):
    record = cls(*values)
    assert cls._fields == fields
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == cls(**dict(zip(fields, values)))
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, values, text", RECORDS)
def test_records_are_immutable_and_hashable(cls, fields, values, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1


def test_upgradable_edge_base_is_level_zero():
    assert UpgradableEdge(0, 0, 1, (lvl(4, 0), lvl(9, 3))).base == lvl(4, 0)


@pytest.mark.parametrize("problem", [
    Problem("imst", 7, graph=gen_random_graph(8, 14, levels=3, seed=2)),
    Problem("wildag", 5, dag=gen_random_dag(9, 20, seed=2)),
])
def test_two_parses_give_equal_hashable_instances(problem):
    doc = serialize(problem)
    first, second = parse(doc).instance, parse(doc).instance
    assert first == second and hash(first) == hash(second)
    assert first.edges == problem.instance.edges
    assert {first, second, problem.instance} == {first}
