import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate
from netupgrade.instances import (
    DisconnectedGraphError,
    ImprovementLevel,
    UpgradableEdge,
    UpgradableGraph,
    solution_from_choices,
)
from netupgrade._util import UnionFind, kruskal
from netupgrade.mst_uniform import max_spanning_tree, uimst_half_approx
from netupgrade.oracle import exact_uimst_table


# Test-local copies of two helpers no solver calls any more: the size-capped
# greedy forest on improved lengths and its greedy extension to a spanning
# tree, which uimst_half_approx now runs as one Kruskal sweep.

def max_forest_capped(n, edges, k):
    """Edge ids of the greedy maximum forest with at most k edges."""
    if k < 0:
        raise ValueError("cap must be nonnegative")
    uf, chosen = UnionFind(n), []
    for eid, u, v, _w in sorted(edges, key=lambda e: (-e[3], e[0])):
        if len(chosen) >= k:
            break
        if uf.union(u, v):
            chosen.append(eid)
    return tuple(chosen)


def extend_forest_to_tree(n, forest_ids, all_edges, fill_edges):
    """Grow a forest to a spanning tree with fill edges by descending weight;
    ``all_edges`` supplies endpoints for the forest ids."""
    by_id = {e[0]: e for e in all_edges}
    uf = UnionFind(n)
    for eid in forest_ids:
        _, u, v, _w = by_id[eid]
        if not uf.union(u, v):
            raise ValueError("forest contains a cycle")
    tree = list(forest_ids)
    for eid, u, v, _w in sorted(fill_edges, key=lambda e: (-e[3], e[0])):
        if eid not in forest_ids and uf.union(u, v):
            tree.append(eid)
    if len(tree) != n - 1:
        raise DisconnectedGraphError("graph is not connected")
    return tree


def test_max_spanning_tree_square():
    edges = [(0, 0, 1, 5), (1, 1, 2, 1), (2, 2, 3, 4), (3, 3, 0, 3)]
    assert sorted(max_spanning_tree(4, edges)) == [0, 2, 3]


def test_max_spanning_tree_disconnected():
    with pytest.raises(DisconnectedGraphError):
        max_spanning_tree(4, [(0, 0, 1, 1)])


def test_capped_forest_respects_cap():
    edges = [(0, 0, 1, 5), (1, 1, 2, 4), (2, 2, 3, 3)]
    assert max_forest_capped(4, edges, 2) == (0, 1)
    assert max_forest_capped(4, edges, 0) == ()


def test_extend_forest_keeps_forest_edges():
    all_edges = [(0, 0, 1, 1), (1, 1, 2, 9), (2, 0, 2, 9), (3, 2, 3, 2)]
    tree = extend_forest_to_tree(4, [0], all_edges, all_edges)
    assert 0 in tree and len(tree) == 3


def test_extend_forest_rejects_cycles():
    edges = [(0, 0, 1, 1), (1, 1, 2, 1), (2, 0, 2, 1)]
    with pytest.raises(ValueError, match="cycle"):
        extend_forest_to_tree(3, [0, 1, 2], edges, edges)


def _random_two_weight_graph(rng):
    """n, then (id, u, v, improved, base) records on distinct endpoints."""
    n = rng.randint(2, 8)
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                       rng.randint(1, n * (n - 1) // 2))
    return n, [(i, u, v, rng.randint(0, 6), rng.randint(0, 6))
               for i, (u, v) in enumerate(pairs)]


def test_kruskal_matches_the_capped_reference_forest():
    rng = random.Random(1234)
    for _ in range(300):
        n, recs = _random_two_weight_graph(rng)
        edges = [(i, u, v, w) for i, u, v, w, _b in recs]
        ordered = sorted(edges, key=lambda e: (-e[3], e[0]))
        for limit in (0, rng.randint(0, n - 2), n - 1, n + 2):
            chosen = kruskal(ordered, list(range(n)), limit)
            assert all(c in edges for c in chosen)
            assert tuple(c[0] for c in chosen) == max_forest_capped(n, edges, limit)


def test_kruskal_on_a_shared_union_find_extends_a_forest_to_a_tree():
    rng = random.Random(4321)
    for _ in range(300):
        n, recs = _random_two_weight_graph(rng)
        improved = [(i, u, v, w) for i, u, v, w, _b in recs]
        base = [(i, u, v, b) for i, u, v, _w, b in recs]
        k = rng.randint(0, n)
        parent = list(range(n))
        forest = [e[0] for e in kruskal(sorted(improved, key=lambda e: (-e[3], e[0])), parent, k)]
        assert tuple(forest) == max_forest_capped(n, improved, k)
        fill = kruskal(sorted(base, key=lambda e: (-e[3], e[0])), parent, n - 1 - len(forest))
        tree = forest + [e[0] for e in fill]
        try:
            assert tree == extend_forest_to_tree(n, forest, improved, base)
        except DisconnectedGraphError:
            assert len(tree) < n - 1 and sum(parent[v] == v for v in range(n)) > 1


def lvl(length, cost):
    return ImprovementLevel(length, cost)


def test_half_approx_zero_cap_is_base_mst():
    g = generate.gen_random_graph(6, 9, seed=3)
    sol = uimst_half_approx(g, 0)
    assert sol.improved_edges() == []
    base = [(e.id, e.u, e.v, e.ladder[0].length) for e in g.edges]
    assert sol.total_length == sum(
        dict(((eid, w) for eid, _u, _v, w in base))[i]
        for i in max_spanning_tree(g.n, base))


def test_half_approx_uses_at_most_k_improvements():
    g = generate.gen_random_graph(7, 12, seed=5)
    for k in range(g.n):
        sol = uimst_half_approx(g, k)
        assert len(sol.improved_edges()) <= k


def test_half_approx_rejects_deep_ladders():
    g = generate.gen_random_graph(4, 4, levels=3, seed=0)
    with pytest.raises(ValueError, match="two-level"):
        uimst_half_approx(g, 1)


def test_half_approx_frozen_example():
    g = generate.gen_random_graph(6, 9, seed=3)
    # frozen exact values per cap, from independent tree enumeration
    assert exact_uimst_table(g) == [22, 31, 38, 41, 44, 47]
    got = [uimst_half_approx(g, k).total_length for k in range(g.n)]
    assert all(2 * v >= opt for v, opt in zip(got, exact_uimst_table(g)))


@given(st.integers(0, 20_000), st.integers(3, 7))
@settings(max_examples=150, deadline=None)
def test_half_approx_guarantee_random(seed, n):
    m = min(n * (n - 1) // 2, n + 2)
    g = generate.gen_random_graph(n, m, max_len=9, max_cost=4, seed=seed)
    opts = exact_uimst_table(g)
    for k in range(n):
        sol = uimst_half_approx(g, k)
        assert 2 * sol.total_length >= opts[k]
        assert len(sol.improved_edges()) <= k


def test_tie_prefers_improved_forest_tree():
    # edges 0 and 1 tie at improved length 2; Kruskal takes the improved
    # copy of edge 0 first, so it is the one upgrade
    g = UpgradableGraph(3, (
        UpgradableEdge(0, 0, 1, (lvl(2, 0), lvl(2, 1))),
        UpgradableEdge(1, 1, 2, (lvl(2, 0), lvl(2, 1))),
        UpgradableEdge(2, 0, 2, (lvl(1, 0), lvl(1, 1))),
    ))
    sol = uimst_half_approx(g, 1)
    assert sol.total_length == 4
    assert sol.improved_edges() == [0]


def _ref_uimst(graph, k):
    # the solver as it was before it kept its edge orders in the graph's
    # memo: both lists are rebuilt and sorted on every call
    def kruskal(edges, cap, parent):
        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        chosen = []
        for eid, u, v, _w in sorted(edges, key=lambda e: (-e[3], e[0])):
            if cap is not None and len(chosen) >= cap:
                break
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append(eid)
        return chosen

    base = [(e.id, e.u, e.v, e.ladder[0].length) for e in graph.edges]
    improved = [(e.id, e.u, e.v, e.ladder[1].length) for e in graph.edges]
    sol1 = solution_from_choices(graph, dict.fromkeys(kruskal(base, None, list(range(graph.n))), 0))
    forest = kruskal(improved, k, list(range(graph.n)))
    parent = list(range(graph.n))
    kruskal([e for e in improved if e[0] in forest], None, parent)
    tree2 = forest + kruskal([e for e in base if e[0] not in forest], None, parent)
    sol2 = solution_from_choices(graph, {eid: int(eid in forest) for eid in tree2})
    return sol1 if sol1.total_length > sol2.total_length else sol2


def test_half_approx_matches_the_per_call_sorting_solver_for_every_k():
    for seed in range(60):
        n = 3 + seed % 10
        # short lengths make equal weights common, so the id tie-break is exercised
        g = generate.gen_random_graph(n, min(n * (n - 1) // 2, n + seed % 7),
                                      max_len=4 + seed % 3 * 10, seed=1000 + seed)
        assert [uimst_half_approx(g, k) for k in range(n)] == [
            _ref_uimst(g, k) for k in range(n)]
