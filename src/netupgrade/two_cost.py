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
   light copies' greedy forest at lam, F_lam, taken after S, yields every
   such tree.  The solve builds F_lam once per multiplier it meets: at
   lam = 0 (F_0, longest first), above the light copies' total length (F_inf,
   cheapest first), and at each chord multiplier, lam^ among them; every
   Lagrangian tree reads a forest already in its order.
2. One bound prunes a forest S.  The tree S yields costs at most B plus one
   residual copy (a light copy joining two of S's trees): the exact hit or
   the first tree of step 3 past B.  Each tree T containing S of cost at
   most such a reach r has l(T) <= l(T_lam) - lam*(c(T_lam) - r) at each
   lam >= 0, as T_lam maximizes l - lam*c among them.  S is dropped as soon
   as this bound falls strictly below the longest tree found so far; a
   forest that could tie still reaches the copy-id tie-break.  It is read
   first at lam^, the crossing multiplier of the first search that
   completes, with r = B plus the largest light cost: first in closed form,
   then on the tree from F_lam^.  With w = q*l - p*c at lam^ = p/q, that tree
   is S plus n - 1 - |S| copies of F_lam^, so w(T_lam^) is at most w(S) plus
   the n - 1 - |S| largest weights in F_lam^ (greedy drops exactly the
   d = |S| + |F_lam^| - (n - 1) smallest when it spans; d < 0 means it cannot
   span).  Prefix sums of F_lam^'s weights, kept once per solve, make that
   one addition, and most forests the probe skips are skipped by it with no
   tree built.  Then the bound is read at lam = 0, where it reads l(T_0)
   and T_0 also decides a disconnected residual and an exact hit; then at
   each chord iterate with r = B plus the largest residual cost.  The
   search runs only where T_0 is over budget: a chord (Newton) search on the
   piecewise-linear dual over exact rationals for the Lagrangian multiplier
   of the budget constraint, started from T_0 and the tree on F_inf.  It
   ends at two trees, optimal at the same multiplier lam*, that bracket the
   budget: the chord tree at lam* and the search's last over-budget tree,
   optimal from its own multiplier up to lam*.
3. Walk a chain of single edge exchanges from the under-budget tree toward
   the over-budget one, stopping at the first tree whose cost exceeds B;
   symmetric basis exchange (Brualdi 1969) gives each missing copy an
   equal-weight partner.  Every tree on the chain is
   Lagrangian-optimal, so that last tree has length >= OPT while
   overshooting the budget by at most one cheap copy, i.e. at most eps*B.

All multiplier arithmetic is exact (fractions over bounded integers), and
the inner loops run on plain integers.  The light copies are sorted once per
solve by (cost, copy id), and every list built or filtered from them keeps
that order.  ``order_at`` is the one sort by a multiplier.  It is stable, so
copies of equal key stay in (cost, id) order: the tie-break toward cheaper
copies.  The chord search compares Lagrangian values by integer
cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from ._util import as_fraction, kruskal
from .instances import DisconnectedGraphError, MultiGraph, is_connected


# an edge copy as a plain tuple: (copy_id, u, v, length, cost)
Copy = tuple[int, int, int, int, int]
# lam^, F_lam^ and the prefix sums of F_lam^'s weights at lam^ (module docstring, step 2)
Hat = tuple[Fraction, list[Copy], list[int]]


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


def order_at(copies: Sequence[Copy], lam: Fraction) -> list[Copy]:
    """``copies`` in their order at the multiplier ``lam``, by lam*c - l; the
    sort is stable, so copies of equal key keep their input order."""
    if lam.numerator < 0:
        raise ValueError("multiplier must be nonnegative")
    # p*c - q*l orders copies as lambda*c - l does, in exact integers
    p, q = lam.numerator, lam.denominator
    return sorted(copies, key=lambda c: p * c[4] - q * c[3])


def _forest(copies: Sequence[Copy], lam: Fraction, n: int) -> list[Copy]:
    """The greedy forest on n vertices of ``copies`` at ``lam``, in that order."""
    return kruskal(order_at(copies, lam), list(range(n)), n - 1)


def _result(chosen: Sequence[Copy]) -> TwoCostResult:
    ids, _, _, lengths, costs = zip(*chosen) if chosen else ((),) * 5
    return TwoCostResult(tuple(sorted(ids)), sum(lengths), sum(costs))


def _shorter(value: int, lam: Fraction, reach: int, need: int | None) -> bool:
    """Whether ``value``, at least q*l - p*c of a tree optimal at ``lam`` = p/q,
    proves every tree of cost at most ``reach`` shorter than ``need`` (None: no
    incumbent, so never; module docstring, step 2)."""
    return need is not None and value + lam.numerator * reach < lam.denominator * need


def lagrangian_tree(k: int, ordered: Sequence[Copy], forced: Sequence[Copy]) -> TwoCostResult:
    """Maximum spanning tree on k vertices containing the forest ``forced``
    (``()``: any tree) under the combined weight l - lambda*c, where
    ``ordered`` lists copies in their order at lambda (``order_at``): Kruskal
    over ``forced``, then ``ordered``.

    Ties break toward lower cost, then lower copy id, so equal-weight
    exact hits prefer cheaper copies.  That tie-break comes from the input
    order: ``ordered`` must list equal-weight copies by (cost, copy id), as
    ``order_at`` does on a list sorted by (cost, copy id).
    """
    chosen = kruskal([*forced, *ordered], list(range(k)), k - 1)
    if len(chosen) != k - 1:
        raise DisconnectedGraphError("multigraph is not connected")
    return _result(chosen)


def lambda_search(k: int, forest: Callable[[Fraction], Sequence[Copy]], budget: int,
                  reach: int, need: int | None, at_zero: TwoCostResult,
                  cheap: Sequence[Copy], forced: Sequence[Copy]) -> LambdaSearchResult | None:
    """Chord search for the multiplier where optimal tree cost crosses B.

    Every tree contains ``forced``; the one at lam is greedy over ``forced``,
    then ``forest(lam)``: copies in their order at lam, such as F_lam or the
    residual ordered at lam.  ``cheap`` lists such copies in the order above
    every length, by (cost, -length, id), as F_inf does.  ``at_zero`` is the
    tree at multiplier 0, which must cost more than the budget and be at
    least ``need`` long (None: no incumbent).  ``reach``, the budget plus the
    largest residual cost, bounds the cost of the tree this search yields.
    Raises DisconnectedGraphError unless a budget-feasible tree exists.
    Returns a bracketing pair of trees both optimal at the crossing
    multiplier, or None as soon as a solved tree proves that the tree this
    search yields is shorter than ``need`` (module docstring, step 2).
    ``under`` is the chord tree at the crossing, and ``over`` the search's
    last over-budget tree, optimal from its own multiplier up to the
    crossing.
    """
    p_lo = at_zero
    p_hi = lagrangian_tree(k, cheap, forced)
    if p_hi.cost > budget:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    # chord (Newton) step on the piecewise-linear dual: where the lines of an over-
    # and an under-budget optimum meet, both are optimal or a better tree is found;
    # with lam = p/q every comparison is scaled by q > 0 into integers
    while True:
        lam = Fraction(p_lo.length - p_hi.length, p_lo.cost - p_hi.cost)
        under = lagrangian_tree(k, forest(lam), forced)
        p, q = lam.numerator, lam.denominator
        if _shorter(q * under.length - p * under.cost, lam, reach, need):
            return None
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
    # a copy is heavy when cost > eps*budget, compared in integers
    den, threshold = eps.denominator, eps.numerator * budget
    # plain tuples: heavy by id, light in the (cost, id) order lagrangian_tree needs
    heavy = sorted(c[:5] for c in mg.copies if c.cost * den > threshold)
    light = sorted((c[:5] for c in mg.copies if c.cost * den <= threshold),
                   key=lambda c: (c[4], c[0]))
    n = mg.n
    # lam -> F_lam, the light copies' greedy forest at lam, built once per
    # solve; F_inf, and lam^ with F_lam^ and its weights' prefix sums once a
    # search completes (module docstring, steps 1-2)
    forests: dict[Fraction, list[Copy]] = {}

    def forest(lam: Fraction) -> list[Copy]:
        if lam not in forests:
            forests[lam] = _forest(light, lam, n)
        return forests[lam]

    inf = _forest(light, Fraction(sum(c[3] for c in light) + 1), n)
    hat = best = None
    for subset, labels in _heavy_forests(heavy, n, budget):
        tree, lam = _solve_with_heavy_subset(light, forest, inf, hat, subset, labels, budget,
                                             None if best is None else best.length)
        if hat is None and lam is not None:
            hat = _hat(lam, forest(lam))
        if tree is not None:
            best = min(filter(None, (best, tree)), key=lambda t: (-t.length, t.copy_ids))
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    return best


def _hat(lam: Fraction, ordered: list[Copy]) -> Hat:
    """lam^, F_lam^ = ``ordered`` and the prefix sums of its weights q*l - p*c
    at lam^ = p/q: F_lam^ is in its order at lam^, so the first j weights are
    its j largest."""
    p, q = lam.numerator, lam.denominator
    return lam, ordered, list(accumulate((q * c[3] - p * c[4] for c in ordered), initial=0))


def _hat_bound(hat: Hat, subset: Sequence[Copy], n: int) -> int | None:
    """At least q*l - p*c at lam^ = p/q of the tree on n vertices that
    ``subset`` yields from F_lam^, or None where the two span no tree (module
    docstring, step 2): that tree is S plus n - 1 - |S| copies of F_lam^."""
    lam, _, prefix = hat
    rest = n - 1 - len(subset)
    if rest >= len(prefix):
        return None
    p, q = lam.numerator, lam.denominator
    return prefix[rest] + sum(q * c[3] - p * c[4] for c in subset)


def _solve_with_heavy_subset(light: Sequence[Copy], forest: Callable[[Fraction], Sequence[Copy]],
                             inf: Sequence[Copy], hat: Hat | None,
                             subset: tuple[Copy, ...], labels: list[int], budget: int,
                             incumbent: int | None) -> tuple[TwoCostResult | None, Fraction | None]:
    """The tree the heavy forest ``subset`` yields, taken first on all n vertices,
    through ``forest(lam)`` = F_lam, F_inf = ``inf`` and ``hat`` (``_hat``), None
    before the first search completes.  Returns the tree (None: skip) and the
    crossing multiplier of the search it ran (None: no search)."""
    n = len(labels)
    if len(subset) == n - 1:
        return _result(subset), None
    try:
        if hat is not None:
            lam, ordered, _ = hat
            # light is in (cost, id) order, so its last copy is the dearest
            reach = budget + light[-1][4]
            # the closed form first, then the tree it bounds
            bound = _hat_bound(hat, subset, n)
            if bound is None or _shorter(bound, lam, reach, incumbent):
                return None, None
            probe = lagrangian_tree(n, ordered, subset)
            value = lam.denominator * probe.length - lam.numerator * probe.cost
            if _shorter(value, lam, reach, incumbent):
                return None, None
        at_zero = lagrangian_tree(n, forest(Fraction(0)), subset)
        if _shorter(at_zero.length, Fraction(0), budget, incumbent):
            return None, None
        if at_zero.cost <= budget:
            return at_zero, None
        # the residual: light copies that join two of the forest's trees, the
        # dearest last; it is not empty, as the tree at zero spans
        res = [c for c in light if labels[c[1]] != labels[c[2]]]
        found = lambda_search(n, forest, budget, budget + res[-1][4], incumbent, at_zero, inf,
                              subset)
    except DisconnectedGraphError:
        return None, None
    if found is None:
        return None, None
    copies = [*subset, *res]
    chosen = set(swap_chain(copies, found.under, found.over, found.lam_star, budget)[-1])
    return _result([c for c in copies if c[0] in chosen]), found.lam_star
