"""Randomized bicriteria solver for the improvable maximum spanning tree.

Pipeline: expand improvement ladders into a multigraph and solve the two-cost
relaxation at eps' = eps/2 once; then, per trial, independently down-sample
each improved edge to its free level with probability 1 - 1/(1+eps')^2.  The
best budget-feasible tree over all trials is returned; feasibility is
guaranteed unconditionally by trial filtering plus an all-level-0 fallback.

With trials sized from the per-trial failure bound 2/e this satisfies
Pr[length >= (1-eps)*OPT and spend <= B] >= 1-delta.

The analysis first shifts every length (``shift_lengths`` with
``scale_threshold``) so that its Chernoff preconditions hold.  The solver
does not apply the shift: it maps every length x to n*x + shift, so every
spanning tree (n - 1 edges) moves by the same amount and multiplier lambda
becomes n*lambda.  The relaxation makes the same choices either way, and the
trials read only the unshifted graph.

The relaxation depends only on (budget, eps', minimize), so it is kept in the
instance's memo (``instances._memo``) as a small plan: the relaxed tree's
choices and totals and the fallback tree.  Repeated solves on one instance,
over many master seeds, validate and relax once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from ._util import MASK64, splitmix64
from .instances import (
    ImprovementLevel,
    InvalidInstanceError,
    TreeSolution,
    UpgradableEdge,
    UpgradableGraph,
    _memo,
    choices_from_copies,
    expand_to_multigraph,
    require_valid,
    solution_from_choices,
)
# max_spanning_tree stays importable here: benchmark/tracing.py rebinds it
from .mst_uniform import base_tree, max_spanning_tree  # noqa: F401
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
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "delta", Fraction(self.delta))
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
    def scale_threshold(self) -> Fraction:
        """Minimum optimum length the additive shift has to guarantee."""
        ep = self.epsilon_prime
        return 3 * (1 + ep) ** 2 / ep ** 4

    @property
    def keep_probability(self) -> Fraction:
        return 1 / (1 + self.epsilon_prime) ** 2

    @property
    def num_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        need = math.log(1 / float(self.delta)) / math.log(1 / PER_TRIAL_FAILURE)
        return max(1, math.ceil(need))


@dataclass
class TrialSummary:
    index: int
    seed: int
    length: int
    spend: int
    feasible: bool


@dataclass
class ImstResult:
    solution: TreeSolution
    trials: list[TrialSummary] = field(default_factory=list)
    best_trial: int | None = None  # None means the fallback tree was used


def shift_lengths(graph: UpgradableGraph, shift: int, n_scale: int) -> UpgradableGraph:
    """Rescale every level length to length*n_scale + shift.

    With n_scale = n this adds shift/n length units to every edge while
    keeping lengths integral; every spanning tree moves by the same amount,
    so the set of optimal solutions is unchanged.  Objectives are always
    reported in unshifted units.
    """
    if shift < 0 or n_scale < 1:
        raise ValueError("bad shift parameters")
    edges = tuple(
        UpgradableEdge(e.id, e.u, e.v, tuple(
            ImprovementLevel(lvl.length * n_scale + shift, lvl.cost) for lvl in e.ladder))
        for e in graph.edges)
    return UpgradableGraph(graph.n, edges)


def sample_improved_forest(graph: UpgradableGraph, choices: dict[int, int],
                           eps_prime: Fraction, rng: random.Random) -> TreeSolution:
    """Independently revert each improved edge to level 0 with prob 1 - 1/(1+eps')^2.

    The tree topology is unchanged (levels are parallel copies of the same
    edge); totals are computed against `graph`.
    """
    p, q = eps_prime.as_integer_ratio()
    keep = q * q / ((p + q) * (p + q))  # 1/(1+p/q)^2, one correctly rounded division
    sampled = {}
    for eid, lvl in sorted(choices.items()):
        if lvl > 0 and not rng.random() < keep:
            lvl = 0
        sampled[eid] = lvl
    return solution_from_choices(graph, sampled)


def minimize_transform(graph: UpgradableGraph, big_m: int | None = None) -> UpgradableGraph:
    """Replace every level length x by M - x.

    Maps min-instances (ladders with nonincreasing lengths, level 0 the worst
    value at cost 0) to max-instances and back; applying the transform twice
    with the same M is the identity.
    """
    lengths_all = [lvl.length for e in graph.edges for lvl in e.ladder]
    if big_m is None:
        big_m = max(lengths_all, default=0)
    if any(x > big_m for x in lengths_all):
        raise ValueError("M is smaller than some level length")
    for e in graph.edges:
        ls = [lvl.length for lvl in e.ladder]
        if not (all(a >= b for a, b in zip(ls, ls[1:]))
                or all(a <= b for a, b in zip(ls, ls[1:]))):
            raise InvalidInstanceError(
                [f"edge {e.id}: level 0 is not the worst objective value"])
    edges = tuple(
        UpgradableEdge(e.id, e.u, e.v, tuple(
            ImprovementLevel(big_m - lvl.length, lvl.cost) for lvl in e.ladder))
        for e in graph.edges)
    return UpgradableGraph(graph.n, edges)


def _plan(graph: UpgradableGraph, budget: int, eps_prime: Fraction,
          minimize: bool) -> tuple:
    """(relaxed choices, their length, their spend, fallback edge ids), the
    part of a solve that no master seed changes; memoized on the graph."""
    key = ("imst_plan", budget, eps_prime, minimize)
    memo = _memo(graph)
    if key not in memo:
        work = minimize_transform(graph) if minimize else graph
        mg = expand_to_multigraph(work)
        choices = choices_from_copies(mg, two_cost_mst(mg, budget, eps_prime).copy_ids)
        relaxed = solution_from_choices(graph, choices)
        memo[key] = (tuple(choices.items()), relaxed.total_length,
                     relaxed.total_spend, base_tree(work))
    return memo[key]


def imst_solve(graph: UpgradableGraph, budget: int, config: RandomizedConfig,
               minimize: bool = False) -> ImstResult:
    """Best budget-feasible tree over the configured number of trials.

    Always returns a tree with total_spend <= budget; the all-level-0 maximum
    spanning tree is the fallback when every sampled trial lands over budget.
    For ``minimize`` the lengths are reflected (max-base equivalence on the
    graphic matroid), solved as maximization, and reported in original units.
    """
    require_valid(graph)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)

    relaxed, length, spend, fallback = _plan(graph, budget, config.epsilon_prime, minimize)
    pipeline_sol = TreeSolution(dict(relaxed), length, spend)

    best: TreeSolution | None = None
    best_trial: int | None = None
    trials: list[TrialSummary] = []
    for i in range(config.num_trials):
        seed = splitmix64((config.master_seed ^ i) & MASK64)
        rng = random.Random(seed)
        sampled = sample_improved_forest(graph, pipeline_sol.choices,
                                         config.epsilon_prime, rng)
        feasible = sampled.total_spend <= budget
        trials.append(TrialSummary(i, seed, sampled.total_length,
                                   sampled.total_spend, feasible))
        for cand in (sampled, pipeline_sol):
            if cand.total_spend <= budget and (
                    best is None or better(cand.total_length, best.total_length)):
                best = cand
                best_trial = i
    if best is None:
        best = solution_from_choices(graph, dict.fromkeys(fallback, 0))
        best_trial = None
    return ImstResult(best, trials, best_trial)
