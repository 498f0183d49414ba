"""(1, 1+eps) approximation for the two-cost spanning tree problem.

Maximize tree length subject to tree cost <= B, returning a tree with
length >= OPT(B) and cost <= (1+eps)*B.  Lengths and costs are
nonnegative.  The scheme:

1. Enumerate every forest S of "heavy" copies (individual cost > eps*B)
   with c(S) <= B, and delete the remaining heavy copies.  Each tree for S
   is one greedy run on all n vertices: S first, then light copies in their
   order at a multiplier lam = p/q, the order of p*cost - q*length.  That is
   greedy on the contraction M/S, which picks a subset of greedy's picks on
   M under the same strict order (Edmonds 1971; Oxley, *Matroid Theory*): a
   copy spanned by earlier copies stays spanned once S is taken.  So the
   light copies' greedy forest at lam, taken after S, yields every such
   tree.  The solve builds it at lam = 0 (F_0, longest first), above the
   light copies' total length (F_inf, cheapest first), and once at lam^.
2. One bound prunes a forest S.  The tree S yields costs at most B plus one
   residual copy (a light copy joining two of S's trees): the exact hit or
   the first tree of step 3 past B.  Each tree T containing S of cost at
   most such a reach r has l(T) <= l(T_lam) - lam*(c(T_lam) - r) at each
   lam >= 0, as T_lam maximizes l - lam*c among them.  S is dropped as soon
   as this bound falls strictly below the longest tree found so far; a
   forest that could tie still reaches the copy-id tie-break.  It is read
   first at lam^, the crossing multiplier of the first search that
   completes, on the tree from the forest at lam^ with r = B plus the
   largest light cost; then at lam = 0, where it reads l(T_0) and T_0 also
   decides a disconnected residual and an exact hit; then at each chord
   iterate with r = B plus the largest residual cost.  The search runs only
   where T_0 is over budget: a chord (Newton) search on the piecewise-linear
   dual over exact rationals for the Lagrangian multiplier of the budget
   constraint, started from T_0 and the tree on F_inf.  It ends at two
   trees, optimal at the same multiplier lam*, that bracket the budget: the
   chord tree at lam* and the search's last over-budget tree, optimal from
   its own multiplier up to lam*.
3. Walk a chain of single edge exchanges from the under-budget tree toward
   the over-budget one, stopping at the first tree whose cost exceeds B;
   symmetric basis exchange (Brualdi 1969) gives each missing copy an
   equal-weight partner.  Every tree on the chain is
   Lagrangian-optimal, so that last tree has length >= OPT while
   overshooting the budget by at most one cheap copy, i.e. at most eps*B.

All multiplier arithmetic is exact (fractions over bounded integers), and
the inner loops run on plain integers.  The light copies are sorted once per
solve by (cost, copy id), and every list built or filtered from them keeps
that order.  The builder's sort is stable, so copies of equal key stay in
(cost, id) order: the tie-break toward cheaper copies.  The chord search
compares Lagrangian values by integer cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._util import as_fraction, kruskal
from .instances import DisconnectedGraphError, MultiGraph, is_connected


# an edge copy as a plain tuple: (copy_id, u, v, length, cost)
Copy = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class TwoCostResult:
    copy_ids: tuple[int, ...]
    length: int
    cost: int


@dataclass(frozen=True)
class LambdaSearchResult:
    """Two trees optimal at the multiplier ``lam_star`` that bracket the budget."""

    lam_star: Fraction
    under: TwoCostResult  # cost <= budget
    over: TwoCostResult   # cost > budget


def _forest(copies: Sequence[Copy], lam: Fraction, n: int, forced: Sequence[Copy]) -> list[Copy]:
    """Greedy forest on n vertices of ``forced``, then ``copies`` in their order at ``lam``."""
    # p*c - q*l orders copies as lambda*c - l does, in exact integers
    p, q = lam.numerator, lam.denominator
    return kruskal([*forced, *sorted(copies, key=lambda c: p * c[4] - q * c[3])],
                   list(range(n)), n - 1)


def _result(chosen: Sequence[Copy]) -> TwoCostResult:
    ids, _, _, lengths, costs = zip(*chosen) if chosen else ((),) * 5
    return TwoCostResult(tuple(sorted(ids)), sum(lengths), sum(costs))


def _shorter(tree: TwoCostResult, lam: Fraction, reach: int, need: int | None) -> bool:
    """Whether the bound at ``tree``, a tree optimal at ``lam``, proves every
    tree of cost at most ``reach`` shorter than ``need`` (None: no incumbent,
    so never; module docstring, step 2)."""
    p, q = lam.numerator, lam.denominator
    return need is not None and q * tree.length - p * (tree.cost - reach) < q * need


def lagrangian_tree(k: int, copies: Sequence[Copy], lam: Fraction,
                    forced: Sequence[Copy]) -> TwoCostResult:
    """Maximum spanning tree on k vertices containing the forest ``forced``
    (``()``: any tree) under the combined weight l - lambda*c.

    Ties break toward lower cost, then lower copy id, so equal-weight
    exact hits prefer cheaper copies.  That tie-break comes from the input
    order: ``copies`` must list equal-weight copies by (cost, copy id), as a
    list sorted by (cost, copy id) does at every multiplier.
    """
    if lam.numerator < 0:
        raise ValueError("multiplier must be nonnegative")
    chosen = _forest(copies, lam, k, forced)
    if len(chosen) != k - 1:
        raise DisconnectedGraphError("multigraph is not connected")
    return _result(chosen)


def lambda_search(k: int, copies: Sequence[Copy], budget: int, need: int | None,
                  at_zero: TwoCostResult, cheap: Sequence[Copy],
                  forced: Sequence[Copy]) -> LambdaSearchResult | None:
    """Chord search for the multiplier where optimal tree cost crosses B.

    Every tree contains ``forced``, and ``copies`` join two of its trees.
    ``at_zero`` is the tree at multiplier 0, which must cost more than the
    budget and be at least ``need`` long (None: no incumbent); ``cheap``
    holds F_inf, or any copies whose greedy tree by (cost, -length, id) is
    that of ``copies``.  Raises DisconnectedGraphError unless a budget-feasible
    tree exists.  Returns a bracketing pair of trees both optimal at the
    crossing multiplier, or None as soon as a solved tree proves that the
    tree this search yields is shorter than ``need`` (module docstring,
    step 2).  ``under`` is the chord tree at the crossing, and ``over`` the
    search's last over-budget tree, optimal from its own multiplier up to
    the crossing.  ``copies`` are in the order ``lagrangian_tree`` needs.
    """
    p_lo = at_zero
    _, _, _, lengths, costs = zip(*copies) if copies else ((),) * 5
    # the yielded tree costs at most one copy more than the budget
    reach = budget + max(costs, default=0)
    # above the total length, the multiplier orders copies by (cost, -length, id)
    p_hi = lagrangian_tree(k, cheap, Fraction(sum(lengths) + 1), forced)
    if p_hi.cost > budget:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    # chord (Newton) step on the piecewise-linear dual: where the lines of an over-
    # and an under-budget optimum meet, both are optimal or a better tree is found;
    # with lam = p/q every comparison is scaled by q > 0 into integers
    while True:
        lam = Fraction(p_lo.length - p_hi.length, p_lo.cost - p_hi.cost)
        under = lagrangian_tree(k, copies, lam, forced)
        if _shorter(under, lam, reach, need):
            return None
        p, q = lam.numerator, lam.denominator
        # under's value minus p_hi's line at lam, times q
        gap = q * (under.length - p_hi.length) - p * (under.cost - p_hi.cost)
        if gap == 0:
            break
        assert gap > 0, "chord tree below the dual"
        if under.cost > budget:
            p_lo = under
        else:
            p_hi = under
    # p_lo is optimal where it was solved and, as its line meets p_hi's on the
    # dual there, at lam: so on the whole interval between, and it is the
    # over-budget optimum just left of the crossing
    assert q * (p_lo.length - under.length) == p * (p_lo.cost - under.cost), \
        "bracketing trees are not both optimal at the crossing multiplier"
    return LambdaSearchResult(lam, under, p_lo)


def swap_chain(copies: Sequence[Copy], under: TwoCostResult, over: TwoCostResult,
               lam_star: Fraction, budget: int) -> list[tuple[int, ...]]:
    """Single-exchange walk from ``under`` toward ``over``, two trees over
    ``copies`` optimal at ``lam_star`` with under.cost <= budget < over.cost,
    up to and including the first tree that costs more than ``budget``.

    Each step inserts `over`'s next missing copy f by id and removes the
    smallest copy g off `over` with f's weight for which the exchange still
    spans, i.e. g lies on f's cycle.  By symmetric exchange (Brualdi 1969)
    some such copy swaps both ways into spanning trees, neither outweighing
    an optimum, so every tree stays optimal.
    """
    copies_by_id = {c[0]: c for c in copies}
    p, q = lam_star.numerator, lam_star.denominator
    weight = {c[0]: q * c[3] - p * c[4] for c in copies}
    current, target = set(under.copy_ids), set(over.copy_ids)
    k = len(current) + 1
    chain = [tuple(sorted(current))]
    cost = under.cost
    for f in sorted(target - current):
        g = next(g for g in sorted(current - target) if weight[g] == weight[f]
                 and is_connected(k, (copies_by_id[i][1:3] for i in current - {g} | {f})))
        current.remove(g)
        current.add(f)
        cost += copies_by_id[f][4] - copies_by_id[g][4]
        chain.append(tuple(sorted(current)))
        if cost > budget:
            break
    return chain


def _heavy_forests(heavy: list[Copy], n: int, budget: int):
    """Yield (forest, labels) for every heavy forest with cost <= budget (incl. empty).

    labels[v] is the rank of v's component, components ordered by smallest
    vertex, so labels are dense in [0, n - len(forest)).
    """
    picked: list[Copy] = []

    def rec(i: int, cost: int, labels: list[int]):
        yield tuple(picked), labels
        for j in range(i, len(heavy)):
            c = heavy[j]
            a, b = sorted((labels[c[1]], labels[c[2]]))
            if cost + c[4] > budget or a == b:
                continue
            picked.append(c)
            # merge component b into a; the ranks above b close the gap
            yield from rec(j + 1, cost + c[4],
                           [a if x == b else x - (x > b) for x in labels])
            picked.pop()

    return rec(0, 0, list(range(n)))


def two_cost_mst(mg: MultiGraph, budget: int, eps: Fraction) -> TwoCostResult:
    """Spanning tree with length >= OPT(budget) and cost <= (1+eps)*budget."""
    if budget < 0:
        raise DisconnectedGraphError("no budget-feasible spanning tree exists")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    threshold = eps * budget
    # plain tuples: heavy by id, light in the (cost, id) order lagrangian_tree needs
    heavy = sorted(c[:5] for c in mg.copies if c.cost > threshold)
    light = sorted((c[:5] for c in mg.copies if c.cost <= threshold), key=lambda c: (c[4], c[0]))
    # the greedy forests F_0 and F_inf, and lam^ with its forest once a search
    # completes (module docstring, steps 1-2)
    zero = _forest(light, Fraction(0), mg.n, ())
    inf = _forest(light, Fraction(sum(c[3] for c in light) + 1), mg.n, ())
    lam_hat = hat = best = None
    for subset, labels in _heavy_forests(heavy, mg.n, budget):
        if hat is None and lam_hat is not None:
            hat = (lam_hat, _forest(light, lam_hat, mg.n, ()))
        tree, lam = _solve_with_heavy_subset(light, zero, inf, hat, subset, labels, budget,
                                             None if best is None else best.length)
        if lam_hat is None:
            lam_hat = lam
        if tree is not None:
            best = min(filter(None, (best, tree)), key=lambda t: (-t.length, t.copy_ids))
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    return best


def _solve_with_heavy_subset(light: Sequence[Copy], zero: Sequence[Copy], inf: Sequence[Copy],
                             hat: tuple[Fraction, Sequence[Copy]] | None,
                             subset: tuple[Copy, ...], labels: list[int], budget: int,
                             incumbent: int | None) -> tuple[TwoCostResult | None, Fraction | None]:
    """The tree the heavy forest ``subset`` yields, taken first on all n vertices,
    through F_0 = ``zero``, F_inf = ``inf`` and ``hat`` = (lam^, its forest), None
    before the first search completes.  Returns the tree (None: skip) and the
    crossing multiplier of the search it ran (None: no search)."""
    n = len(labels)
    if len(subset) == n - 1:
        return _result(subset), None
    try:
        # light is in (cost, id) order, so its last copy is the dearest
        if hat is not None and _shorter(lagrangian_tree(n, hat[1], hat[0], subset),
                                        hat[0], budget + light[-1][4], incumbent):
            return None, None
        at_zero = lagrangian_tree(n, zero, Fraction(0), subset)
        if _shorter(at_zero, Fraction(0), budget, incumbent):
            return None, None
        if at_zero.cost <= budget:
            return at_zero, None
        # the residual: light copies that join two of the forest's trees
        res = [c for c in light if labels[c[1]] != labels[c[2]]]
        found = lambda_search(n, res, budget, incumbent, at_zero, inf, subset)
    except DisconnectedGraphError:
        return None, None
    if found is None:
        return None, None
    copies = [*subset, *res]
    chosen = set(swap_chain(copies, found.under, found.over, found.lam_star, budget)[-1])
    return _result([c for c in copies if c[0] in chosen]), found.lam_star
