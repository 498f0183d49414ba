"""(1, 1+eps) approximation for the two-cost spanning tree problem.

Maximize tree length subject to tree cost <= B, returning a tree with
length >= OPT(B) and cost <= (1+eps)*B.  Lengths and costs are
nonnegative.  The scheme:

1. Enumerate every forest S of "heavy" copies (individual cost > eps*B)
   with c(S) <= B; contract S and delete the remaining heavy copies.  Greedy
   on a contraction M/S picks a subset of greedy's picks on M under the same
   strict order (Edmonds 1971; Oxley, *Matroid Theory*): a copy spanned by
   earlier copies stays spanned once S is contracted.  So two greedy forests
   of the light copies, built once per solve, hold every residual's tree at
   both ends of step 2's search once relabelled through S's components: F_0
   by (-length, cost, id), the order at multiplier 0, and F_inf by (cost,
   -length, id), the order of every multiplier above a residual's total
   length.  The pass over F_0 decides a disconnected residual, the early
   abort and an exact hit; only a forest whose tree there is over budget
   builds its residual.
2. On that residual, whose tree at multiplier 0 is over budget, find the
   Lagrangian multiplier of the budget constraint by a chord (Newton) search
   on the piecewise-linear dual over exact rationals, started from that tree
   and the tree on F_inf.  It ends at two trees, optimal at the same
   multiplier lam*, that bracket the budget: the chord tree at lam* and the
   search's last over-budget tree, optimal from its own multiplier up to
   lam*.  The tree a forest S yields costs at most B_S + c_max, where
   B_S = B - c(S) and c_max is the largest residual cost: it is the exact
   hit or the first tree of step 3 past B_S.  Every residual tree T' that
   cheap satisfies
   l(T') <= l(T_lam) - lam*(c(T_lam) - B_S - c_max) at each multiplier
   lam >= 0, since T_lam maximizes l - lam*c.  The search for S ends as soon
   as l(S) plus this bound at a chord iterate (at lam = 0: the longest
   residual tree) is strictly below the longest tree found so far; a forest
   that could tie still reaches the copy-id tie-break.  The solve remembers
   lam^, the lam* of the first search that completes, and builds the light
   copies' greedy forest in their order at lam^ once, as step 1 builds F_0:
   relabelled through a later forest's components it holds that residual's
   tree at lam^.  So each later forest with an incumbent is bounded at lam^,
   with c_max the largest light cost, before its tree at 0 is built.
3. Walk a chain of single edge exchanges from the under-budget tree toward
   the over-budget one, stopping at the first tree whose cost exceeds the
   residual budget; symmetric basis exchange (Brualdi 1969) gives each
   missing copy an equal-weight partner.  Every tree on the chain is
   Lagrangian-optimal, so that last tree has length >= OPT while
   overshooting the budget by at most one cheap copy, i.e. at most eps*B.

All multiplier arithmetic is exact (fractions over bounded integers), and
the inner loops run on plain integers.  The light copies are sorted once per
solve by (cost, copy id), and every residual relabelled from them keeps that
order; F_0, F_inf and the forest at lam^, each read at its one multiplier,
list copies of equal key there by (cost, id) as well.  At a multiplier p/q
each Lagrangian tree then sorts by the one integer p*cost - q*length: the
sort is stable, so equal keys keep the (cost, id) order, the tie-break
toward cheaper copies.
The chord search compares Lagrangian values by integer cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._util import UnionFind, as_fraction, kruskal
from .instances import DisconnectedGraphError, EdgeCopy, MultiGraph


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


def lagrangian_tree(k: int, copies: Sequence[Copy], lam: Fraction) -> TwoCostResult:
    """Maximum spanning tree on k vertices under the combined weight l - lambda*c.

    Ties break toward lower cost, then lower copy id, so equal-weight
    exact hits prefer cheaper copies.  That tie-break comes from the input
    order: ``copies`` must list equal-weight copies by (cost, copy id), as a
    list sorted by (cost, copy id) does at every multiplier.
    """
    # p*c - q*l orders copies as lambda*c - l does, in exact integers; the
    # stable sort keeps the input's (cost, id) order among equal keys
    p, q = lam.numerator, lam.denominator
    if p < 0:
        raise ValueError("multiplier must be nonnegative")
    chosen = kruskal(sorted(copies, key=lambda c: p * c[4] - q * c[3]), UnionFind(k), k - 1)
    if len(chosen) != k - 1:
        raise DisconnectedGraphError("multigraph is not connected")
    length = cost = 0
    for c in chosen:
        length += c[3]
        cost += c[4]
    return TwoCostResult(tuple(sorted(c[0] for c in chosen)), length, cost)


def lambda_search(k: int, copies: Sequence[Copy], budget: int, need: int | None,
                  at_zero: TwoCostResult, cheap: Sequence[Copy]) -> LambdaSearchResult | None:
    """Chord search for the multiplier where optimal tree cost crosses B.

    ``at_zero`` is the tree at multiplier 0, which must cost more than the
    budget and be at least ``need`` long (None: no incumbent); ``cheap``
    holds F_inf, or any copies whose greedy tree by (cost, -length, id) is
    the residual's.  Raises DisconnectedGraphError unless a budget-feasible
    tree exists.  Returns a bracketing pair of trees both optimal at the
    crossing multiplier, or None as soon as a solved tree proves that the
    tree this search yields is shorter than ``need`` (module docstring,
    step 2).  ``under`` is the chord tree at the crossing, and ``over`` the
    search's last over-budget tree, optimal from its own multiplier up to
    the crossing.  ``copies`` are in (cost, copy id) order, as
    ``lagrangian_tree`` needs.
    """
    p_lo = at_zero
    _, _, _, lengths, costs = zip(*copies) if copies else ((),) * 5
    c_max = max(costs, default=0)
    # the yielded tree costs at most one copy more than the budget
    reach = budget + c_max
    # above the total length, the multiplier orders copies by (cost, -length, id)
    p_hi = lagrangian_tree(k, cheap, Fraction(sum(lengths) + 1))
    if p_hi.cost > budget:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    # chord (Newton) step on the piecewise-linear dual: where the lines of an over-
    # and an under-budget optimum meet, both are optimal or a better tree is found;
    # with lam = p/q every comparison is scaled by q > 0 into integers
    while True:
        lam = Fraction(p_lo.length - p_hi.length, p_lo.cost - p_hi.cost)
        p, q = lam.numerator, lam.denominator
        under = lagrangian_tree(k, copies, lam)
        if need is not None and q * under.length - p * (under.cost - reach) < q * need:
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


def _tree_path(copies_by_id, tree_ids, a: int, b: int) -> list[int]:
    """Copy ids on the unique a-b path inside the tree."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for cid in tree_ids:
        _, u, v, _l, _c = copies_by_id[cid]
        adjacency.setdefault(u, []).append((v, cid))
        adjacency.setdefault(v, []).append((u, cid))
    stack = [(a, -1, [])]
    while stack:
        v, via, path = stack.pop()
        if v == b:
            return path
        for w, cid in adjacency.get(v, ()):
            if cid != via:
                stack.append((w, cid, path + [cid]))
    raise ValueError("endpoints not connected inside the tree")


def swap_chain(copies: Sequence[Copy], under: TwoCostResult, over: TwoCostResult,
               lam_star: Fraction, budget: int) -> list[tuple[int, ...]]:
    """Single-exchange walk from ``under`` toward ``over``, two trees over
    ``copies`` optimal at ``lam_star`` with under.cost <= budget < over.cost,
    up to and including the first tree that costs more than ``budget``.

    Each step inserts `over`'s next missing copy by id and removes the
    smallest copy off `over` on its cycle with equal weight.  By symmetric
    exchange (Brualdi 1969) some such copy swaps both ways into spanning
    trees, neither outweighing an optimum, so every tree stays optimal.
    """
    copies_by_id = {c[0]: c for c in copies}
    p, q = lam_star.numerator, lam_star.denominator
    weight = {c[0]: q * c[3] - p * c[4] for c in copies}
    current = set(under.copy_ids)
    target = set(over.copy_ids)
    chain = [tuple(sorted(current))]
    cost = under.cost
    for f in sorted(target - current):
        _, u, v, _l, _c = copies_by_id[f]
        g = min(g for g in _tree_path(copies_by_id, current, u, v)
                if g not in target and weight[g] == weight[f])
        current.remove(g)
        current.add(f)
        cost += copies_by_id[f][4] - copies_by_id[g][4]
        chain.append(tuple(sorted(current)))
        if cost > budget:
            break
    return chain


def _heavy_forests(heavy: list[EdgeCopy], n: int, budget: int):
    """Yield (forest, labels) for every heavy forest with cost <= budget (incl. empty).

    labels[v] is the rank of v's component, components ordered by smallest
    vertex, so labels are dense in [0, n - len(forest)).
    """
    picked: list[EdgeCopy] = []

    def rec(i: int, cost: int, labels: list[int]):
        yield tuple(picked), labels
        for j in range(i, len(heavy)):
            c = heavy[j]
            a, b = sorted((labels[c.u], labels[c.v]))
            if cost + c.cost > budget or a == b:
                continue
            picked.append(c)
            # merge component b into a; the ranks above b close the gap
            yield from rec(j + 1, cost + c.cost,
                           [a if x == b else x - (x > b) for x in labels])
            picked.pop()

    return rec(0, 0, list(range(n)))


def _relabel(copies: Sequence[Copy], labels: list[int]) -> list[Copy]:
    """The copies with endpoints mapped to component labels, loops dropped."""
    return [(i, labels[u], labels[v], l, c) for i, u, v, l, c in copies
            if labels[u] != labels[v]]


def two_cost_mst(mg: MultiGraph, budget: int, eps: Fraction) -> TwoCostResult:
    """Spanning tree with length >= OPT(budget) and cost <= (1+eps)*budget."""
    if budget < 0:
        raise DisconnectedGraphError("no budget-feasible spanning tree exists")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    copies_by_id = {c.copy_id: c for c in mg.copies}
    threshold = eps * budget
    heavy = sorted((c for c in mg.copies if c.cost > threshold), key=lambda c: c.copy_id)
    # in the (cost, id) order lagrangian_tree needs (module docstring)
    light = sorted(((c.copy_id, c.u, c.v, c.length, c.cost) for c in mg.copies
                    if c.cost <= threshold), key=lambda c: (c[4], c[0]))
    # the greedy forests F_0 and F_inf (module docstring, step 1)
    zero = kruskal(sorted(light, key=lambda c: (-c[3], c[4], c[0])), UnionFind(mg.n), mg.n - 1)
    inf = kruskal(sorted(light, key=lambda c: (c[4], -c[3], c[0])), UnionFind(mg.n), mg.n - 1)

    probe = _Probe(light)
    best: tuple[int, tuple[int, ...]] | None = None  # (length, sorted ids)
    for subset, labels in _heavy_forests(heavy, mg.n, budget):
        ids = _solve_with_heavy_subset(light, zero, inf, subset, labels, budget,
                                       None if best is None else best[0], probe)
        if ids is None:
            continue
        key = (sum(copies_by_id[i].length for i in ids), tuple(sorted(ids)))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    if best is None:
        raise DisconnectedGraphError("no budget-feasible spanning tree")
    return TwoCostResult(best[1], best[0], sum(copies_by_id[i].cost for i in best[1]))


class _Probe:
    """The bound of step 2 (module docstring) at one multiplier per solve:
    ``lam`` is the crossing multiplier of the first residual search that
    completes, and ``forest`` F_lam, the light copies' greedy forest in their
    order at ``lam``, built the first time a heavy forest is bounded."""

    def __init__(self, light: Sequence[Copy]):
        self.light = light
        # light is in (cost, id) order, so its last copy is the dearest
        self.c_max = light[-1][4] if light else 0
        self.lam: Fraction | None = None
        self.forest: list[Copy] | None = None

    def skips(self, k: int, labels: list[int], budget: int, need: int) -> bool:
        """True only if every residual tree through ``labels`` that costs at
        most ``budget`` + c_max is shorter than ``need``; raises
        DisconnectedGraphError if the residual is disconnected."""
        if self.lam is None:
            return False
        p, q = self.lam.numerator, self.lam.denominator
        if self.forest is None:
            n = len(labels)
            self.forest = kruskal(sorted(self.light, key=lambda c: p * c[4] - q * c[3]),
                                  UnionFind(n), n - 1)
        tree = lagrangian_tree(k, _relabel(self.forest, labels), self.lam)
        return q * tree.length - p * (tree.cost - budget - self.c_max) < q * need


def _solve_with_heavy_subset(light: Sequence[Copy], zero: Sequence[Copy],
                             inf: Sequence[Copy], subset: tuple[EdgeCopy, ...],
                             labels: list[int], budget: int, incumbent: int | None,
                             probe: _Probe | None = None) -> tuple[int, ...] | None:
    """Solve the cheap residual of a heavy forest through F_0 = ``zero`` and
    F_inf = ``inf``, map back (None: skip).  A ``probe`` bounds the forest
    before its tree at multiplier 0 is built, and keeps the first crossing
    multiplier the search finds."""
    residual_budget = budget - sum(c.cost for c in subset)
    subset_ids = tuple(c.copy_id for c in subset)
    k = len(labels) - len(subset)
    if k == 1:
        return subset_ids
    need = None if incumbent is None else incumbent - sum(c.length for c in subset)
    try:
        if (need is not None and probe is not None
                and probe.skips(k, labels, residual_budget, need)):
            return None
        at_zero = lagrangian_tree(k, _relabel(zero, labels), Fraction(0))
        # the tree at multiplier 0 is the longest tree, so it bounds every tree
        # the search can yield, over-budget ones included
        if need is not None and at_zero.length < need:
            return None
        if at_zero.cost <= residual_budget:
            return subset_ids + at_zero.copy_ids
        res = _relabel(light, labels)
        found = lambda_search(k, res, residual_budget, need, at_zero, _relabel(inf, labels))
    except DisconnectedGraphError:
        return None
    if found is None:
        return None
    if probe is not None and probe.lam is None:
        probe.lam = found.lam_star
    return subset_ids + swap_chain(res, found.under, found.over, found.lam_star,
                                   residual_budget)[-1]
