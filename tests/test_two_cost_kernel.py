"""The integer two-cost kernel against a test-local copy of the solver it
replaced, which sorted by the tuple key (p*c - q*l, cost, copy id) on every
Lagrangian solve, compared Fractions in the chord search and ran Kruskal
through ``UnionFind.union``.  The two must return the same trees, multipliers
and results; small integer lengths make equal keys common, so the (cost, id)
tie-break the input order now supplies is exercised on most solves.
"""

import random
from fractions import Fraction

import pytest

from netupgrade import generate, two_cost
from netupgrade._util import UnionFind
from netupgrade.instances import DisconnectedGraphError, MultiGraph, expand_to_multigraph
from netupgrade.two_cost import (
    LambdaSearchResult,
    TwoCostResult,
    _heavy_forests,
    lagrangian_tree,
    lambda_search,
    order_at,
    swap_chain,
    two_cost_mst,
)


# ---------------------------------------------- test-local copy of the old solver

def _relabel(copies, labels):
    """The copies with endpoints mapped to component labels, loops dropped."""
    return [(i, labels[u], labels[v], l, c) for i, u, v, l, c in copies
            if labels[u] != labels[v]]


def _kruskal(ordered, uf, limit):
    chosen = []
    if limit <= 0:
        return chosen
    for rec in ordered:
        if uf.union(rec[1], rec[2]):
            chosen.append(rec)
            if len(chosen) == limit:
                break
    return chosen


def old_lagrangian_tree(k, copies, lam):
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    chosen = _kruskal(sorted(copies, key=lambda c: (p * c[4] - q * c[3], c[4], c[0])),
                      UnionFind(k), k - 1)
    if len(chosen) != k - 1:
        raise DisconnectedGraphError("multigraph is not connected")
    length = sum(c[3] for c in chosen)
    cost = sum(c[4] for c in chosen)
    return TwoCostResult(tuple(sorted(c[0] for c in chosen)), length, cost)


def old_lambda_search(k, copies, budget, need=None, *, at_zero=None, cheap=None):
    p_lo = old_lagrangian_tree(k, copies, Fraction(0)) if at_zero is None else at_zero
    if need is not None and p_lo.length < need:
        return None
    if p_lo.cost <= budget:
        return p_lo
    total_cost = sum(c[4] for c in copies)
    reach = budget + max((c[4] for c in copies), default=0)
    p_hi = old_lagrangian_tree(k, copies if cheap is None else cheap,
                               Fraction(sum(c[3] for c in copies) + 1))
    if p_hi.cost > budget:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    while True:
        lam = Fraction(p_lo.length - p_hi.length, p_lo.cost - p_hi.cost)
        under = old_lagrangian_tree(k, copies, lam)
        if need is not None and under.length - lam * (under.cost - reach) < need:
            return None
        value = under.length - lam * (under.cost - budget)
        line = p_hi.length - lam * (p_hi.cost - budget)
        if value == line:
            break
        assert value > line, "chord tree below the dual"
        if under.cost > budget:
            p_lo = under
        else:
            p_hi = under
    below = old_lagrangian_tree(k, copies, lam - Fraction(1, 2 * (total_cost + 1) ** 2))
    over_val = below.length - lam * (below.cost - budget)
    assert below.cost > budget and over_val == value
    return LambdaSearchResult(lam_star=lam, under=under, over=below)


def old_two_cost_mst(mg, budget, eps):
    if budget < 0:
        raise DisconnectedGraphError("no budget-feasible spanning tree exists")
    eps = Fraction(eps)
    copies_by_id = {c.copy_id: c for c in mg.copies}
    threshold = eps * budget
    heavy = sorted((c for c in mg.copies if c.cost > threshold), key=lambda c: c.copy_id)
    light = [(c.copy_id, c.u, c.v, c.length, c.cost) for c in mg.copies if c.cost <= threshold]
    zero = _kruskal(sorted(light, key=lambda c: (-c[3], c[4], c[0])), UnionFind(mg.n), mg.n - 1)
    inf = _kruskal(sorted(light, key=lambda c: (c[4], -c[3], c[0])), UnionFind(mg.n), mg.n - 1)
    best = None
    for subset, labels in _heavy_forests(heavy, mg.n, budget):
        ids = _old_solve_with_heavy_subset(light, zero, inf, subset, labels, budget,
                                           None if best is None else best[0])
        if ids is None:
            continue
        key = (sum(copies_by_id[i].length for i in ids), tuple(sorted(ids)))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    return TwoCostResult(best[1], best[0], sum(copies_by_id[i].cost for i in best[1]))


def _old_solve_with_heavy_subset(light, zero, inf, subset, labels, budget, incumbent):
    residual_budget = budget - sum(c.cost for c in subset)
    subset_ids = tuple(c.copy_id for c in subset)
    k = len(labels) - len(subset)
    if k == 1:
        return subset_ids
    need = None if incumbent is None else incumbent - sum(c.length for c in subset)
    try:
        at_zero = old_lagrangian_tree(k, _relabel(zero, labels), Fraction(0))
        if need is not None and at_zero.length < need:
            return None
        if at_zero.cost <= residual_budget:
            return subset_ids + at_zero.copy_ids
        res = _relabel(light, labels)
        found = old_lambda_search(k, res, residual_budget, need, at_zero=at_zero,
                                  cheap=_relabel(inf, labels))
    except DisconnectedGraphError:
        return None
    if found is None:
        return None
    chain = swap_chain(res, found.under, found.over, found.lam_star, residual_budget)
    by_id = {c[0]: c for c in res}
    for ids in chain:
        if sum(by_id[i][4] for i in ids) > residual_budget:
            return subset_ids + ids
    raise AssertionError("swap chain never crossed the residual budget")


# ------------------------------------------------------------------------- tests

def _search(k, copies, budget, need=None):
    """``lambda_search`` entered as the solver enters it: the tree at
    multiplier 0 answers a ``need`` it falls short of (None) and a budget it
    fits (the tree itself); ``copies``, ordered at each multiplier, stand in
    for F_lam and F_inf."""
    at_zero = lagrangian_tree(k, order_at(copies, Fraction(0)), ())
    if need is not None and at_zero.length < need:
        return None
    if at_zero.cost <= budget:
        return at_zero
    reach = budget + max((c[4] for c in copies), default=0)
    above = order_at(copies, Fraction(sum(c[3] for c in copies) + 1))
    return lambda_search(k, lambda lam: order_at(copies, lam), budget, reach, need, at_zero,
                         above, ())


def _tied_mg(rng):
    """A random multigraph, n = 3-14 with 2-3 levels, whose lengths and costs
    are small integers, so that many copies share a Lagrangian key."""
    n = rng.randint(3, 14)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
    g = generate.gen_random_graph(n, m, max_len=rng.choice([2, 4, 6]),
                                  max_cost=rng.choice([3, 6, 12]), levels=rng.choice([2, 3]),
                                  seed=rng.randrange(1 << 30))
    return expand_to_multigraph(g)


def _as_tuples(mg):
    return [(c.copy_id, c.u, c.v, c.length, c.cost) for c in mg.copies]


def test_two_cost_mst_matches_the_tuple_key_solver_where_keys_tie():
    rng = random.Random(1414)
    binding = heavy = shuffled = 0
    for case in range(420):
        mg = _tied_mg(rng)
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        longest = old_lagrangian_tree(mg.n, _as_tuples(mg), Fraction(0)).cost
        budget = (rng.randint(0, max(longest - 1, 0)) if case % 2
                  else rng.randint(longest, longest + 4))
        binding += budget < longest
        heavy += any(c.cost > eps * budget for c in mg.copies)
        # the solver sorts the copies itself, so their order in mg cannot matter
        given = mg
        if case % 3 == 0:
            given = MultiGraph(mg.n, tuple(rng.sample(mg.copies, len(mg.copies))))
            shuffled += 1
        try:
            expected = old_two_cost_mst(mg, budget, eps)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                two_cost_mst(given, budget, eps)
            continue
        assert two_cost_mst(given, budget, eps) == expected, (mg, budget, eps)
    assert binding >= 150 and heavy >= 150 and shuffled >= 100


def test_lagrangian_kernel_matches_the_tuple_key_solver_where_keys_tie():
    # on copies in (cost, id) order every tree, value and chord search equals
    # the tuple-key solver's on the same copies in id order
    rng = random.Random(2718)
    searches = 0
    for _ in range(300):
        mg = _tied_mg(rng)
        copies = _as_tuples(mg)
        ordered = sorted(copies, key=lambda c: (c[4], c[0]))
        budget = rng.randint(0, sum(c[4] for c in copies) // 2)
        total = sum(c[3] for c in copies)
        for lam in [Fraction(0), Fraction(total + 1),
                    Fraction(rng.randint(1, 12), rng.randint(1, 6))]:
            assert (lagrangian_tree(mg.n, order_at(ordered, lam), ())
                    == old_lagrangian_tree(mg.n, copies, lam))
        need = rng.choice([None, rng.randint(0, total)])
        try:
            expected = old_lambda_search(mg.n, copies, budget, need)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                _search(mg.n, ordered, budget, need)
            continue
        assert _search(mg.n, ordered, budget, need) == expected, (mg, budget, need)
        searches += isinstance(expected, LambdaSearchResult)
    assert searches >= 50


def test_chord_searches_of_several_steps_match_the_tuple_key_solver(monkeypatch):
    # at n = 20-40 with lengths up to 100 each search takes several chord
    # steps, so its over-budget tree comes from a late step, not multiplier 0
    solves = []
    real = two_cost.lagrangian_tree

    def counted(*args):
        solves.append(args[1])  # the copies, in their multiplier's order
        return real(*args)

    monkeypatch.setattr(two_cost, "lagrangian_tree", counted)
    rng = random.Random(3141)
    for case in range(10):
        n = rng.randint(20, 40)
        g = generate.gen_random_graph(n, 2 * n, max_len=100, max_cost=(10, 100)[case % 2],
                                      levels=rng.choice([2, 3]), seed=rng.randrange(1 << 30))
        copies = _as_tuples(expand_to_multigraph(g))
        ordered = sorted(copies, key=lambda c: (c[4], c[0]))
        budget = rng.randint(0, real(n, order_at(ordered, Fraction(0)), ()).cost - 1)
        solves.clear()
        expected = old_lambda_search(n, copies, budget)
        assert isinstance(expected, LambdaSearchResult)
        assert _search(n, ordered, budget) == expected, (g, budget)
        # one solve above the total length, then the chord steps
        assert len(solves) - 1 >= 3, len(solves)


def test_one_vertex_with_no_copies():
    point = lagrangian_tree(1, order_at([], Fraction(3, 2)), ())
    assert point == TwoCostResult((), 0, 0)
    assert point == old_lagrangian_tree(1, [], Fraction(3, 2))
    assert _search(1, [], 0) == lagrangian_tree(1, order_at([], 0), ())
    # a negative budget reaches the residual totals, which an empty residual
    # has too: the search reports that no tree fits, as the old solver did
    for search in (_search, old_lambda_search):
        with pytest.raises(DisconnectedGraphError):
            search(1, [], -1)

