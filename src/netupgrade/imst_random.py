"""Randomized bicriteria solver for the improvable maximum spanning tree.

Pipeline: expand improvement ladders into a multigraph and solve the two-cost
relaxation at eps' = eps/2 once; then, per trial, independently down-sample
each improved edge to its free level with probability 1 - 1/(1+eps')^2.  After
the trials, the answer is the relaxed tree if it fits the budget (then it is
optimal), else the first feasible trial of best length, else an all-level-0
fallback, so the spend never exceeds the budget.

With ceil(log(1/delta) / log(e/2)) trials, sized from the per-trial failure
bound 2/e, this satisfies Pr[length >= (1-eps)*OPT and spend <= B] >= 1-delta.

The analysis first shifts every length so that its Chernoff preconditions
hold: it maps every length x to n*x + shift, with the shift at least
3(1+eps')^2/eps'^4.  The solver does not apply it.  Every spanning tree
(n - 1 edges) moves by the same amount and multiplier lambda becomes
n*lambda, so the relaxation makes the same choices either way, and the
trials read only the unshifted graph.

The relaxation depends only on (budget, eps', minimize), so it is kept in the
instance's memo (``instances._memo``) as a small plan: the relaxed tree's
choices and totals, the fallback tree (``max_spanning_tree`` on level-0
lengths, built once per plan), and one record per upgraded edge of the
relaxed tree, in ascending edge id, holding the length and spend a trial
loses when it reverts that edge to level 0.  A trial is then its draws alone:
``sample_improved_forest`` draws one ``random()`` per record and returns the
records it reverts, and the trial's totals are the relaxed totals minus their
losses.  Only the winning tree is built, once per solve.  Repeated
solves on one instance, over many master seeds, validate and relax once.

A solve seeds one generator, ``random.Random(splitmix64(master_seed))``,
and its trials read that one stream in turn: trial i's draws follow trial
i - 1's.  So no two trials of a solve share draws, a solve of t trials
records the same first t trials as one of more, and since splitmix64 is a
bijection on 64-bit words, master seeds that differ mod 2^64 seed different
generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from ._util import MASK64, as_fraction, splitmix64
from .instances import (
    DisconnectedGraphError,
    ImprovementLevel,
    TreeSolution,
    UpgradableEdge,
    UpgradableGraph,
    _memo,
    choices_from_copies,
    expand_to_multigraph,
    require_valid,
    solution_from_choices,
)
from .mst_uniform import max_spanning_tree
from .two_cost import two_cost_mst

# per-trial failure constant: the analysis bounds the two failure modes by
# c1 + c2 < 2/e, so best-of-t trials fail with probability at most (2/e)^t
PER_TRIAL_FAILURE = 2.0 / math.e


@dataclass(frozen=True)
class RandomizedConfig:
    epsilon: Fraction
    delta: Fraction
    master_seed: int = 0
    trials: int | None = None  # default: sized from PER_TRIAL_FAILURE

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def epsilon_prime(self) -> Fraction:
        return self.epsilon / 2

    @property
    def num_trials(self) -> int:
        """``trials``, else ceil(log(1/delta) / log(1/PER_TRIAL_FAILURE)), at
        least 1; log(1/delta) is exact for a delta below the smallest float."""
        if self.trials is not None:
            return self.trials
        log_inverse = math.log(self.delta.denominator) - math.log(self.delta.numerator)
        need = log_inverse / math.log(1 / PER_TRIAL_FAILURE)
        return max(1, math.ceil(need))


@dataclass
class TrialSummary:
    index: int
    length: int
    spend: int
    feasible: bool


@dataclass
class ImstResult:
    solution: TreeSolution
    trials: list[TrialSummary] = field(default_factory=list)
    # the index of the returned trial; None when no trial's tree was returned
    # (the relaxed tree fitted the budget, or the fallback tree was used)
    best_trial: int | None = None


def _map_lengths(graph: UpgradableGraph, f) -> UpgradableGraph:
    """The graph with every level length x replaced by f(x)."""
    return UpgradableGraph(graph.n, tuple(
        UpgradableEdge(e.id, e.u, e.v, tuple(
            ImprovementLevel(f(lvl.length), lvl.cost) for lvl in e.ladder))
        for e in graph.edges))


def _keep_probability(eps_prime: Fraction) -> float:
    """1/(1+eps')^2, as one correctly rounded division."""
    p, q = eps_prime.as_integer_ratio()
    return q * q / ((p + q) * (p + q))


def sample_improved_forest(records, keep: float, draw) -> list:
    """The records one trial reverts to level 0: one ``draw()`` per record,
    in order; a record keeps its level when its draw is below ``keep``."""
    return [rec for rec in records if not draw() < keep]


def minimize_transform(graph: UpgradableGraph) -> UpgradableGraph:
    """Replace every level length x by M - x, M the largest level length.

    Maps min-instances (ladders with nonincreasing lengths, level 0 the worst
    value at cost 0) to max-instances.  Raises InvalidInstanceError on a graph
    that fails validation as "decrease", a rising ladder among others.
    """
    require_valid(graph, improvement="decrease")
    big_m = max((lvl.length for e in graph.edges for lvl in e.ladder), default=0)
    return _map_lengths(graph, lambda x: big_m - x)


def _plan(graph: UpgradableGraph, budget: int, eps_prime: Fraction,
          minimize: bool) -> tuple:
    """(relaxed choices, their length, their spend, upgrade losses, fallback
    edge ids), the part of a solve that no master seed changes; memoized on
    the graph.  The losses hold (edge id, length lost, spend lost) for each
    upgraded edge of the relaxed tree, in ascending edge id: what a trial
    loses when it reverts that edge to level 0.  The fallback is the maximum
    spanning tree on level-0 lengths (reflected, for ``minimize``)."""
    key = ("imst_plan", budget, eps_prime, minimize)
    memo = _memo(graph)
    plan = memo.get(key)
    if plan is None:
        work = minimize_transform(graph) if minimize else graph
        mg = expand_to_multigraph(work)
        choices = choices_from_copies(mg, two_cost_mst(mg, budget, eps_prime).copy_ids)
        relaxed = solution_from_choices(graph, choices)
        losses = []
        for eid, lvl in sorted(choices.items()):
            if lvl > 0:
                ladder = graph.edges[eid].ladder
                losses.append((eid, ladder[lvl].length - ladder[0].length,
                               ladder[lvl].cost - ladder[0].cost))
        fallback = max_spanning_tree(work.n, [(e.id, e.u, e.v, e.ladder[0].length)
                                              for e in work.edges])
        plan = memo[key] = (tuple(choices.items()), relaxed.total_length,
                            relaxed.total_spend, tuple(losses), tuple(fallback))
    return plan


def imst_solve(graph: UpgradableGraph, budget: int, config: RandomizedConfig,
               minimize: bool = False) -> ImstResult:
    """A budget-feasible tree, chosen once after every trial is drawn.

    The relaxed tree if it fits the budget: it is no worse than OPT(B), so it
    is the optimum and is returned with ``best_trial`` None.  Otherwise the
    first feasible trial of best length, with its index as ``best_trial``.
    Otherwise the all-level-0 maximum spanning tree, with ``best_trial`` None.
    So the spend never exceeds the budget, and None means that no trial's
    tree was returned.

    For ``minimize`` the ladders must fall (else rise), and their lengths are
    reflected (max-base equivalence on the graphic matroid), solved as
    maximization, and reported in original units.

    Maximizing, length >= (1 - eps)*OPT with probability >= 1 - delta.
    Minimizing, the reflection carries that bound over only additively:
    length <= OPT + eps*((n - 1)*M - OPT) with probability >= 1 - delta, M
    the largest level length; it can exceed (1 + eps)*OPT.
    """
    require_valid(graph, improvement="decrease" if minimize else "increase")
    if budget < 0:
        raise DisconnectedGraphError("no budget-feasible spanning tree exists")
    eps_prime = config.epsilon_prime
    relaxed, length, spend, losses, fallback = _plan(graph, budget, eps_prime, minimize)
    keep = _keep_probability(eps_prime)
    trials: list[TrialSummary] = []
    reverts: list[list] = []
    # one stream per solve: trial i reads the draws after trial i - 1's
    draw = random.Random(splitmix64(config.master_seed & MASK64)).random
    for i in range(config.num_trials):
        reverted = sample_improved_forest(losses, keep, draw)
        trial_length, trial_spend = length, spend
        for _, lost_length, lost_spend in reverted:
            trial_length -= lost_length
            trial_spend -= lost_spend
        trials.append(TrialSummary(i, trial_length, trial_spend, trial_spend <= budget))
        reverts.append(reverted)
    choices = dict(relaxed)
    if spend <= budget:
        return ImstResult(TreeSolution(choices, length, spend), trials)
    feasible = [t for t in trials if t.feasible]
    if not feasible:
        return ImstResult(solution_from_choices(graph, dict.fromkeys(fallback, 0)), trials)
    best = (min if minimize else max)(feasible, key=lambda t: t.length)
    for eid, _, _ in reverts[best.index]:
        choices[eid] = 0
    return ImstResult(TreeSolution(choices, best.length, best.spend), trials, best.index)
