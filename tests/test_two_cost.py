import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netupgrade import generate, two_cost
from netupgrade._util import UnionFind
from netupgrade.instances import (
    DisconnectedGraphError,
    EdgeCopy,
    MultiGraph,
    expand_to_multigraph,
)
from netupgrade.oracle import exact_two_cost
from netupgrade.two_cost import (
    LambdaSearchResult,
    TwoCostResult,
    _forest,
    _hat,
    _hat_bound,
    _heavy_forests,
    _solve_with_heavy_subset,
    lagrangian_tree,
    lambda_search,
    order_at,
    swap_chain,
    two_cost_mst,
)


def small_mg(seed, n=5, budget_hint=8):
    m = min(n * (n - 1) // 2, n + 2)
    g = generate.gen_random_graph(n, m, max_len=9, max_cost=5, seed=seed)
    return expand_to_multigraph(g)


def _split(mg):
    """(k, copies): a multigraph as the solver's (copy_id, u, v, length, cost)
    tuples, in the (cost, copy id) order ``lagrangian_tree`` needs."""
    return mg.n, sorted(((c.copy_id, c.u, c.v, c.length, c.cost) for c in mg.copies),
                        key=lambda c: (c[4], c[0]))


def _tree(k, copies, lam, forced=()):
    """The Lagrangian tree at ``lam``: ``copies`` ordered there, after ``forced``."""
    return lagrangian_tree(k, order_at(copies, lam), forced)


def _above(copies):
    """``copies`` in their order above their total length, as F_inf is."""
    return order_at(copies, Fraction(sum(c[3] for c in copies) + 1))


def _search(k, copies, budget, need=None):
    """``lambda_search`` entered as the solver enters it: the tree at
    multiplier 0 answers a ``need`` it falls short of (None) and a budget it
    fits (the tree itself); ``copies``, ordered at each multiplier, stand in
    for F_lam and F_inf."""
    at_zero = _tree(k, copies, Fraction(0))
    if need is not None and at_zero.length < need:
        return None
    if at_zero.cost <= budget:
        return at_zero
    reach = budget + max((c[4] for c in copies), default=0)
    return lambda_search(k, lambda lam: order_at(copies, lam), budget, reach, need, at_zero,
                         _above(copies), ())


def test_lagrangian_tree_at_zero_is_max_length():
    mg = small_mg(1)
    p = _tree(*_split(mg), Fraction(0))
    brute = max(
        length for length, _c, _ids in [exact_two_cost(mg, 10 ** 9)])
    assert p.length == brute


def test_lagrangian_tree_rejects_negative_multiplier():
    with pytest.raises(ValueError):
        _tree(*_split(small_mg(1)), Fraction(-1))


def test_lambda_search_exact_when_budget_loose():
    mg = small_mg(2)
    total_cost = sum(c.cost for c in mg.copies)
    found = _search(*_split(mg), total_cost)
    assert isinstance(found, TwoCostResult)
    assert found.cost <= total_cost


def test_lambda_search_brackets_budget():
    mg = small_mg(3)
    found = _search(*_split(mg), 2)
    if isinstance(found, LambdaSearchResult):
        lam = found.lam_star
        assert found.under.cost <= 2 < found.over.cost
        assert (found.under.length - lam * (found.under.cost - 2)
                == found.over.length - lam * (found.over.cost - 2))


def test_swap_chain_connects_brackets():
    mg = small_mg(0)
    found = _search(*_split(mg), 1)
    assert isinstance(found, LambdaSearchResult), "seed chosen so the budget binds"
    chain = swap_chain(_split(mg)[1], found.under, found.over, found.lam_star, 1)
    assert chain[0] == found.under.copy_ids
    assert chain[-1] == found.over.copy_ids
    for a, b in zip(chain, chain[1:]):
        assert len(set(a) - set(b)) == 1 and len(set(b) - set(a)) == 1


def test_infeasible_budget_raises():
    mg = MultiGraph(2, (EdgeCopy(0, 0, 1, 3, 5, 0, 0),))
    with pytest.raises(DisconnectedGraphError):
        two_cost_mst(mg, 2, Fraction(1, 2))


def test_frozen_example():
    g = generate.gen_random_graph(6, 9, seed=3)
    mg = expand_to_multigraph(g)
    # frozen: optimum by full tree enumeration at budget 8 is length 41
    assert exact_two_cost(mg, 8)[0] == 41
    res = two_cost_mst(mg, 8, Fraction(1, 2))
    assert res.length >= 41
    assert res.cost <= Fraction(3, 2) * 8


@given(st.integers(0, 20_000), st.integers(3, 6), st.integers(0, 20),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]))
@settings(max_examples=120, deadline=None)
def test_bicriteria_guarantee_random(seed, n, budget, eps):
    mg = small_mg(seed, n)
    opt, _cost, _ids = exact_two_cost(mg, budget)
    res = two_cost_mst(mg, budget, eps)
    assert res.length >= opt
    assert res.cost <= (1 + eps) * budget
    # result is a spanning tree: n-1 copies covering all vertices
    assert len(res.copy_ids) == mg.n - 1


def test_deterministic_output():
    mg = small_mg(9)
    a = two_cost_mst(mg, 6, Fraction(1, 3))
    b = two_cost_mst(mg, 6, Fraction(1, 3))
    assert a == b


def test_zero_budget_returns_free_tree_when_possible():
    g = generate.gen_random_graph(5, 7, seed=13)
    mg = expand_to_multigraph(g)
    res = two_cost_mst(mg, 0, Fraction(1, 2))
    assert res.cost == 0
    assert res.length == exact_two_cost(mg, 0)[0]


# Reference: the bisection multiplier search and the eager, unpruned
# enumeration the solver started from, written out here so that the chord
# search, the pruning and the forest stream are pinned to their results.
# It shares no code with the solver.

def _ref_find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _ref_tree(mg, lam):
    # p*c - q*l with lambda = p/q, read off the Fraction per copy: lambda*c - l scaled by q
    order = sorted(mg.copies, key=lambda c: (
        lam.numerator * c.cost - lam.denominator * c.length, c.cost, c.copy_id))
    parent = list(range(mg.n))
    chosen = []
    for c in order:
        ru, rv = _ref_find(parent, c.u), _ref_find(parent, c.v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(c)
    if len(chosen) != mg.n - 1:
        raise DisconnectedGraphError("multigraph is not connected")
    length = sum(c.length for c in chosen)
    cost = sum(c.cost for c in chosen)
    return TwoCostResult(tuple(sorted(c.copy_id for c in chosen)), length, cost)


def _ref_lambda_search(mg, budget):
    at_zero = _ref_tree(mg, Fraction(0))
    if at_zero.cost <= budget:
        return at_zero
    total_cost = sum(c.cost for c in mg.copies)
    lo, p_lo = Fraction(0), at_zero
    hi = Fraction(sum(c.length for c in mg.copies) + 1)
    p_hi = _ref_tree(mg, hi)
    if p_hi.cost > budget:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    sep = Fraction(1, 2 * (total_cost + 1) ** 2)
    while hi - lo > sep:
        mid = (lo + hi) / 2
        p_mid = _ref_tree(mg, mid)
        if p_mid.cost > budget:
            lo, p_lo = mid, p_mid
        else:
            hi, p_hi = mid, p_mid
    lam = Fraction(p_lo.length - p_hi.length, p_lo.cost - p_hi.cost)
    under_val = p_hi.length - lam * (p_hi.cost - budget)
    over_val = p_lo.length - lam * (p_lo.cost - budget)
    at_lam = _ref_tree(mg, lam)
    assert under_val == over_val == at_lam.length - lam * (at_lam.cost - budget)
    return LambdaSearchResult(lam_star=lam, under=p_hi, over=p_lo)


def _ref_swap_chain(mg, under, over, lam):
    by_id = {c.copy_id: c for c in mg.copies}
    weight = {cid: c.length - lam * c.cost for cid, c in by_id.items()}
    current, target = set(under.copy_ids), set(over.copy_ids)
    chain = [tuple(sorted(current))]
    while current != target:
        for f in sorted(target - current):
            cf = by_id[f]
            adjacency = {}
            for cid in current:
                c = by_id[cid]
                adjacency.setdefault(c.u, []).append((c.v, cid))
                adjacency.setdefault(c.v, []).append((c.u, cid))
            stack, cycle = [(cf.u, -1, [])], None
            while cycle is None:
                v, via, path = stack.pop()
                if v == cf.v:
                    cycle = path
                for w, cid in adjacency.get(v, ()):
                    if cid != via:
                        stack.append((w, cid, path + [cid]))
            swappable = [g for g in cycle if g not in target and weight[g] == weight[f]]
            if swappable:
                current.remove(min(swappable))
                current.add(f)
                chain.append(tuple(sorted(current)))
                break
        else:
            raise AssertionError("no weight-preserving exchange")
    return chain


def _ref_two_cost_mst(mg, budget, eps):
    threshold = eps * budget
    heavy = sorted((c for c in mg.copies if c.cost > threshold), key=lambda c: c.copy_id)
    light = [c for c in mg.copies if c.cost <= threshold]
    forests = []

    def rec(i, picked, cost):
        forests.append(list(picked))
        for j in range(i, len(heavy)):
            c = heavy[j]
            parent = list(range(mg.n))
            acyclic = True
            for p in picked + [c]:
                ru, rv = _ref_find(parent, p.u), _ref_find(parent, p.v)
                acyclic = acyclic and ru != rv
                parent[ru] = rv
            if cost + c.cost <= budget and acyclic:
                rec(j + 1, picked + [c], cost + c.cost)

    rec(0, [], 0)
    by_id = {c.copy_id: c for c in mg.copies}
    best = None
    for subset in forests:
        parent = list(range(mg.n))
        for c in subset:
            parent[_ref_find(parent, c.u)] = _ref_find(parent, c.v)
        roots = sorted({_ref_find(parent, v) for v in range(mg.n)})
        comp = {r: i for i, r in enumerate(roots)}
        rest = budget - sum(c.cost for c in subset)
        ids = tuple(c.copy_id for c in subset)
        if len(roots) > 1:
            res = MultiGraph(len(roots), tuple(
                EdgeCopy(c.copy_id, comp[_ref_find(parent, c.u)], comp[_ref_find(parent, c.v)],
                         c.length, c.cost, c.edge_id, c.level)
                for c in light if _ref_find(parent, c.u) != _ref_find(parent, c.v)))
            try:
                found = _ref_lambda_search(res, rest)
            except DisconnectedGraphError:
                continue
            if isinstance(found, TwoCostResult):
                ids += found.copy_ids
            else:
                res_by_id = {c.copy_id: c for c in res.copies}
                ids += next(t for t in _ref_swap_chain(res, found.under, found.over,
                                                        found.lam_star)
                            if sum(res_by_id[i].cost for i in t) > rest)
        key = (sum(by_id[i].length for i in ids), tuple(sorted(ids)))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    return TwoCostResult(best[1], best[0], sum(by_id[i].cost for i in best[1]))


def _random_mg(rng, n, max_cost=6, max_len=None):
    m = rng.randint(n - 1, min(n * (n - 1) // 2, n + n // 2 + 1))
    max_len = rng.choice([9, 40]) if max_len is None else max_len
    g = generate.gen_random_graph(n, m, max_len=max_len, max_cost=max_cost,
                                  levels=rng.choice([2, 3]), seed=rng.randrange(1 << 30))
    return expand_to_multigraph(g)


def test_lambda_search_matches_bisection_reference():
    rng = random.Random(4242)
    binding = 0
    for _ in range(300):
        mg = _random_mg(rng, rng.randint(4, 20))
        zero_cost = _tree(*_split(mg), Fraction(0)).cost
        budgets = [zero_cost, rng.randrange(zero_cost)] if zero_cost else [0]
        for budget in budgets:
            found = _search(*_split(mg), budget)
            assert found == _ref_lambda_search(mg, budget), (mg, budget)
            binding += isinstance(found, LambdaSearchResult)
    assert binding >= 250


def test_swap_chain_stops_at_the_first_tree_over_budget():
    # the graph of test_swap_chain_connects_brackets, then the binding budgets
    # of the bisection corpus above
    cases = [(small_mg(0), 1)]
    rng = random.Random(4242)
    for _ in range(300):
        mg = _random_mg(rng, rng.randint(4, 20))
        zero_cost = _tree(*_split(mg), Fraction(0)).cost
        budgets = [zero_cost, rng.randrange(zero_cost)] if zero_cost else [0]
        cases += [(mg, budget) for budget in budgets]
    binding = longer = 0
    for mg, budget in cases:
        k, copies = _split(mg)
        found = _search(k, copies, budget)
        if not isinstance(found, LambdaSearchResult):
            continue
        binding += 1
        by_id = {c.copy_id: c for c in mg.copies}
        full = _ref_swap_chain(mg, found.under, found.over, found.lam_star)
        # the search's budget, then the largest one the bracket still spans,
        # which walks the chain until a tree costs as much as ``over``
        for cap in (budget, found.over.cost - 1):
            stop = next(i for i, ids in enumerate(full) if sum(by_id[j].cost for j in ids) > cap)
            chain = swap_chain(copies, found.under, found.over, found.lam_star, cap)
            assert chain == full[:stop + 1], (mg, budget, cap)
            longer += len(chain) > 2
    assert binding >= 250
    assert longer >= 100


def test_two_cost_mst_matches_eager_reference_with_heavy_copies():
    rng = random.Random(777)
    for h in [2, 3, 4, 5, 6, 7, 8] * 2:
        while True:
            mg = _random_mg(rng, rng.randint(10, 16), max_cost=30)
            eps = rng.choice([Fraction(1, 2), Fraction(1, 4)])
            costs = sorted((c.cost for c in mg.copies), reverse=True)
            # eps*budget in [costs[h], costs[h-1]) leaves exactly h heavy copies
            budget = -(-costs[h] // eps)
            if eps * budget < costs[h - 1]:
                break
        assert sum(c.cost > eps * budget for c in mg.copies) == h
        assert two_cost_mst(mg, budget, eps) == _ref_two_cost_mst(mg, budget, eps)


def test_heavy_forests_stream_matches_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        mg = _random_mg(rng, rng.randint(3, 9))
        heavy = [c for c in mg.copies if c.cost > 2][:10]
        budget = rng.randint(0, 16)
        streamed = {}
        for subset, labels in _heavy_forests(heavy, mg.n, budget):
            ids = tuple(c.copy_id for c in subset)
            assert ids not in streamed
            streamed[ids] = labels
        expected = set()
        for size in range(len(heavy) + 1):
            for subset in itertools.combinations(heavy, size):
                uf = UnionFind(mg.n)
                if (all(uf.union(c.u, c.v) for c in subset)
                        and sum(c.cost for c in subset) <= budget):
                    expected.add(tuple(c.copy_id for c in subset))
        assert set(streamed) == expected
        by_id = {c.copy_id: c for c in mg.copies}
        for ids, labels in streamed.items():
            uf = UnionFind(mg.n)
            for i in ids:
                uf.union(by_id[i].u, by_id[i].v)
            # components ranked by their smallest vertex
            rank = {}
            assert labels == [rank.setdefault(uf.find(v), len(rank)) for v in range(mg.n)]
            assert len(rank) == mg.n - len(ids)


def _heavy_cases(rng, hs, n_lo, n_hi, max_len=None):
    """(mg, budget, eps) with exactly h heavy copies, for each h in hs."""
    for h in hs:
        while True:
            mg = _random_mg(rng, rng.randint(n_lo, n_hi), max_cost=30, max_len=max_len)
            eps = rng.choice([Fraction(1, 2), Fraction(1, 4)])
            costs = sorted((c.cost for c in mg.copies), reverse=True)
            # eps*budget in [costs[h], costs[h-1]) leaves exactly h heavy copies
            budget = -(-costs[h] // eps)
            if eps * budget < costs[h - 1]:
                break
        assert sum(c.cost > eps * budget for c in mg.copies) == h
        yield mg, budget, eps


def test_dual_abort_cuts_mst_solves_on_the_eager_reference_corpus(monkeypatch):
    # the corpus of test_two_cost_mst_matches_eager_reference_with_heavy_copies;
    # without the early abort the solver makes 2,349 MST solves on it, with the
    # abort alone 1,391 in 315 searches, with the probe at one remembered
    # multiplier as well 1,143 in 143 searches, and with the probe's closed
    # form skipping 61 forests before their probe tree 1,082 in 143 searches
    calls = searches = 0
    solve, search = two_cost.lagrangian_tree, two_cost.lambda_search

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    def counted_search(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(two_cost, "lagrangian_tree", counted)
    monkeypatch.setattr(two_cost, "lambda_search", counted_search)
    for mg, budget, eps in _heavy_cases(random.Random(777), [2, 3, 4, 5, 6, 7, 8] * 2, 10, 16):
        two_cost_mst(mg, budget, eps)
    assert (calls, searches) == (1082, 143)


def test_two_cost_mst_matches_eager_reference_at_twenty_vertices():
    for mg, budget, eps in _heavy_cases(random.Random(2020), [8, 9, 10] * 2, 18, 20):
        assert two_cost_mst(mg, budget, eps) == _ref_two_cost_mst(mg, budget, eps)


def test_dual_bound_holds_for_the_tree_a_residual_search_yields(monkeypatch):
    # the premise of the early abort: the tree the search and swap chain yield
    # costs at most B + c_max, so at every multiplier lam it is no longer than
    # l(T_lam) - lam*(c(T_lam) - B - c_max)
    points = []
    shorter = two_cost._shorter

    # every solved tree the bound reads: q*l - p*c at its multiplier lam = p/q
    def recorded(value, lam, reach, need):
        points.append((lam, value))
        return shorter(value, lam, reach, need)

    monkeypatch.setattr(two_cost, "_shorter", recorded)
    rng = random.Random(31337)
    graphs = chords = 0
    while graphs < 200:
        mg = _random_mg(rng, rng.randint(3, 10))
        by_id = {c.copy_id: c for c in mg.copies}
        c_max = max(c.cost for c in mg.copies)
        cheapest = _tree(*_split(mg), Fraction(sum(c.length for c in mg.copies) + 1)).cost
        longest = _tree(*_split(mg), Fraction(0)).cost
        graphs += cheapest < longest
        for budget in range(cheapest, longest):
            points.clear()
            copies = _split(mg)[1]
            tree, _ = _solve_with_heavy_subset(copies, lambda lam: order_at(copies, lam),
                                               _above(copies), None, (), list(range(mg.n)),
                                               budget, None)
            ids = tree.copy_ids
            length = sum(by_id[i].length for i in ids)
            assert sum(by_id[i].cost for i in ids) <= budget + c_max
            for lam, value in points:
                assert lam >= 0
                p, q = lam.numerator, lam.denominator
                assert q * length <= value + p * (budget + c_max), (mg, budget)
            # the tree at zero, then the chord trees (the search's tree above
            # every length is never read)
            chords += len(points) - 2
    assert chords >= 1000


def test_two_cost_mst_matches_eager_reference_where_forests_tie():
    # small integer lengths make equal-length forests common, so a forest the
    # early abort drops on a tie with the incumbent would change the tie-break
    rng = random.Random(1)
    for _ in range(150):
        mg = _random_mg(rng, rng.randint(4, 9), max_cost=rng.choice([3, 6, 12]))
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        budget = rng.randint(0, max(_tree(*_split(mg), Fraction(0)).cost, 1))
        try:
            expected = _ref_two_cost_mst(mg, budget, eps)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                two_cost_mst(mg, budget, eps)
            continue
        assert two_cost_mst(mg, budget, eps) == expected, (mg, budget, eps)


def test_residual_trees_lie_in_the_greedy_forests_of_the_light_copies():
    # the matroid fact the solver rests on (module docstring, step 1): under one
    # strict order, greedy on the contraction by a heavy forest picks a subset of
    # greedy's picks on the light copies, so greedy over those picks, relabelled
    # through the forest's components, finds the residual's tree, and greedy
    # over them on all n vertices, the forest taken first, finds it plus the forest
    rng = random.Random(5150)
    checked = binding = 0
    for _ in range(80):
        mg = _random_mg(rng, rng.randint(3, 12), max_cost=30)
        threshold = rng.choice([6, 12, 20])
        heavy = [c for c in mg.copies if c.cost > threshold]
        light = [c for c in mg.copies if c.cost <= threshold]
        forests = list(_heavy_forests(heavy, mg.n, rng.randint(0, 90)))
        for subset, labels in rng.sample(forests, min(4, len(forests))):
            k = mg.n - len(subset)
            residual = MultiGraph(k, tuple(
                EdgeCopy(c.copy_id, labels[c.u], labels[c.v], c.length, c.cost, c.edge_id, c.level)
                for c in light if labels[c.u] != labels[c.v]))
            budget = rng.randint(0, 3 * k)
            total = sum(c.length for c in residual.copies)
            orders = [(lam, lambda c, lam=lam: (lam.numerator * c.cost
                                                - lam.denominator * c.length, c.cost, c.copy_id))
                      for lam in [Fraction(0)] + [Fraction(rng.randint(1, 60), rng.randint(1, 9))
                                                  for _ in range(3)]]
            # above the residual's total length the multiplier orders by (cost, -length, id)
            orders.append((Fraction(total + 1), lambda c: (c.cost, -c.length, c.copy_id)))
            for lam, key in orders:
                uf, forest = UnionFind(mg.n), []
                for c in sorted(light, key=key):
                    if uf.union(c.u, c.v):
                        forest.append(c)
                relabelled = [(c.copy_id, labels[c.u], labels[c.v], c.length, c.cost)
                              for c in forest]
                # the solver's plain tuples, on all n vertices, the forest taken first
                whole = (mg.n, [c[:5] for c in forest], lam, [c[:5] for c in subset])
                try:
                    tree = _ref_tree(residual, lam)
                except DisconnectedGraphError:
                    for args in (k, relabelled, lam), whole:
                        with pytest.raises(DisconnectedGraphError):
                            _tree(*args)
                    continue
                assert set(tree.copy_ids) <= {c.copy_id for c in forest}
                assert _tree(k, relabelled, lam) == tree
                assert _tree(*whole) == TwoCostResult(
                    tuple(sorted(tree.copy_ids + tuple(c.copy_id for c in subset))),
                    tree.length + sum(c.length for c in subset),
                    tree.cost + sum(c.cost for c in subset))
                checked += 1
                binding += tree.cost > budget
    assert checked >= 800 and binding >= 200


def test_two_cost_mst_matches_eager_reference_on_a_random_corpus():
    rng = random.Random(6060)
    binding = heavy = 0
    for case in range(400):
        mg = _random_mg(rng, rng.randint(3, 14), max_cost=rng.choice([6, 12]))
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        longest = _ref_tree(mg, Fraction(0)).cost
        # binding budgets fall below the longest tree's cost, loose ones reach it
        budget = (rng.randint(0, max(longest - 1, 0)) if case % 2
                  else rng.randint(longest, longest + 6))
        binding += budget < longest
        heavy += any(c.cost > eps * budget for c in mg.copies)
        try:
            expected = _ref_two_cost_mst(mg, budget, eps)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                two_cost_mst(mg, budget, eps)
            continue
        assert two_cost_mst(mg, budget, eps) == expected, (mg, budget, eps)
    assert binding >= 150 and heavy >= 150


def test_searches_started_from_the_light_forests_solve_the_plain_searchs_trees(monkeypatch):
    # the light forests F_lam stand in for the residual at every multiplier of a
    # search, so every tree and multiplier the solver computes is the plain
    # search's, which sorts the residual itself at each multiplier
    search, solve = two_cost.lambda_search, two_cost.lagrangian_tree
    solve_subset = two_cost._solve_with_heavy_subset
    log = []

    def recorded(*args):
        log.append(solve(*args))
        return log[-1]

    def entered(light, forest, inf, hat, subset, labels, budget, incumbent):
        entered.residual = [c for c in light if labels[c[1]] != labels[c[2]]]
        return solve_subset(light, forest, inf, hat, subset, labels, budget, incumbent)

    def compared(k, forest, budget, reach, need, at_zero, cheap, forced):
        log.clear()
        found = search(k, forest, budget, reach, need, at_zero, cheap, forced)
        started = [at_zero] + log
        log.clear()
        copies = entered.residual
        assert search(k, lambda lam: order_at(copies, lam), budget,
                      budget + max(c[4] for c in copies), need,
                      recorded(k, order_at(copies, Fraction(0)), forced), _above(copies),
                      forced) == found
        assert log == started
        compared.calls += 1
        return found

    compared.calls = 0
    monkeypatch.setattr(two_cost, "lagrangian_tree", recorded)
    monkeypatch.setattr(two_cost, "_solve_with_heavy_subset", entered)
    monkeypatch.setattr(two_cost, "lambda_search", compared)
    for mg, budget, eps in _heavy_cases(random.Random(4321), [2, 4, 6, 8] * 8, 8, 16):
        two_cost_mst(mg, budget, eps)
    assert compared.calls >= 100, compared.calls


def test_forests_the_probe_skips_yield_trees_shorter_than_the_incumbent(monkeypatch):
    # the premise of the probe: a heavy forest the bound at lam^ skips, solved
    # again with no lam^ and no incumbent, yields no tree or one strictly
    # shorter than the incumbent, so it could never have become the answer
    shorter, solve = two_cost._shorter, two_cost._solve_with_heavy_subset
    hits = []

    def recorded(*args):
        hits.append(shorter(*args))
        return hits[-1]

    def checked(light, forest, inf, hat, subset, labels, budget, incumbent):
        hits.clear()
        ids, lam = solve(light, forest, inf, hat, subset, labels, budget, incumbent)
        # given lam^, a solve reads the bound there first, in closed form and
        # then on the tree from F_lam^; a skip by it is the first read true,
        # or the first false and the second true
        if hat is not None and hits in ([True], [False, True]):
            assert ids is None and incumbent is not None
            alone, _ = solve(light, forest, inf, None, subset, labels, budget, None)
            if alone is not None:
                length = {c[0]: c[3] for c in [*light, *subset]}
                assert sum(length[i] for i in alone.copy_ids) < incumbent, (subset, budget)
            checked.skipped += 1
        return ids, lam

    checked.skipped = 0
    monkeypatch.setattr(two_cost, "_shorter", recorded)
    monkeypatch.setattr(two_cost, "_solve_with_heavy_subset", checked)
    # lengths of at most 4 make forests that tie the incumbent common
    for mg, budget, eps in _heavy_cases(random.Random(909), [3, 4, 5, 6, 7, 8] * 4, 6, 12,
                                        max_len=4):
        two_cost_mst(mg, budget, eps)
    tied = checked.skipped
    for mg, budget, eps in _heavy_cases(random.Random(2020), [8, 9, 10] * 2, 18, 20):
        two_cost_mst(mg, budget, eps)
    assert tied >= 100 and checked.skipped - tied >= 150, (tied, checked.skipped - tied)


def test_closed_form_at_lam_hat_bounds_the_probe_tree_of_every_heavy_forest():
    # the probe's closed form (module docstring, step 2): the tree a heavy forest
    # S yields from F_lam^ weighs at most the bound, and where S and F_lam^ hold
    # fewer than n - 1 copies (d < 0) it has no tree to bound; lengths of at most
    # 4 make ties common, and costs above the light threshold often leave the
    # light copies disconnected
    rng = random.Random(8080)
    spans = tight = negative = split = 0
    for _ in range(120):
        n = rng.randint(3, 9)
        # (copy id, u, v, length, cost) on random vertex pairs, parallel copies allowed
        copies = [(i, *rng.sample(range(n), 2), rng.randint(0, 4), rng.randint(0, 12))
                  for i in range(rng.randint(n - 1, 3 * n))]
        threshold = rng.choice([3, 6, 9])
        heavy = [c for c in copies if c[4] > threshold]
        light = sorted((c for c in copies if c[4] <= threshold), key=lambda c: (c[4], c[0]))
        lam = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        hat = _hat(lam, _forest(light, lam, n))
        ordered = hat[1]
        split += len(ordered) < n - 1
        p, q = lam.numerator, lam.denominator
        for subset, _ in _heavy_forests(heavy, n, rng.randint(0, 60)):
            bound = _hat_bound(hat, subset, n)
            if len(subset) + len(ordered) < n - 1:
                assert bound is None
                with pytest.raises(DisconnectedGraphError):
                    lagrangian_tree(n, ordered, subset)
                negative += 1
                continue
            try:
                tree = lagrangian_tree(n, ordered, subset)
            except DisconnectedGraphError:
                continue
            value = q * tree.length - p * tree.cost
            assert value <= bound, (copies, lam, subset)
            spans += 1
            tight += value == bound
    assert split >= 40 and negative >= 800 and spans >= 4000 and tight >= 1000, (
        split, negative, spans, tight)
