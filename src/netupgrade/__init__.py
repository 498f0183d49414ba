"""Budget-constrained network-upgrade optimization.

Spanning-tree solvers (uniform half-approximation, two-cost relaxation,
randomized bicriteria) and DAG path dynamic programs (exact, uniform, FPTAS),
with brute-force oracles and generators for testing.
"""

from .dag_dp import (
    wildag_budget_exact,
    wildag_fptas,
    wildag_uniform,
    wisdag_budget_exact,
    wisdag_fptas,
    wisdag_uniform,
)
from .imst_random import ImstResult, RandomizedConfig, imst_solve
from .instances import (
    DagEdge,
    DagInstance,
    DisconnectedGraphError,
    EdgeCopy,
    ImprovementLevel,
    InvalidInstanceError,
    MultiGraph,
    PathSolution,
    TreeSolution,
    UpgradableEdge,
    UpgradableGraph,
    expand_to_multigraph,
    require_valid,
    validate,
)
from .mst_uniform import uimst_half_approx
from .oracle import (
    OracleBudget,
    OracleSizeError,
    exact_imst,
    exact_two_cost,
    exact_wildag,
    exact_wisdag,
    knapsack_exact,
)
from .serialization import FormatError, Problem, instance_hash, parse, serialize
from .two_cost import TwoCostResult, two_cost_mst

__all__ = [
    "DagEdge",
    "DagInstance",
    "DisconnectedGraphError",
    "EdgeCopy",
    "FormatError",
    "ImprovementLevel",
    "ImstResult",
    "InvalidInstanceError",
    "MultiGraph",
    "OracleBudget",
    "OracleSizeError",
    "PathSolution",
    "Problem",
    "RandomizedConfig",
    "TreeSolution",
    "TwoCostResult",
    "UpgradableEdge",
    "UpgradableGraph",
    "exact_imst",
    "exact_two_cost",
    "exact_wildag",
    "exact_wisdag",
    "expand_to_multigraph",
    "imst_solve",
    "instance_hash",
    "knapsack_exact",
    "parse",
    "require_valid",
    "serialize",
    "two_cost_mst",
    "uimst_half_approx",
    "validate",
    "wildag_budget_exact",
    "wildag_fptas",
    "wildag_uniform",
    "wisdag_budget_exact",
    "wisdag_fptas",
    "wisdag_uniform",
]

__version__ = "0.1.0"
