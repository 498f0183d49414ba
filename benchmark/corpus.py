"""Seeded instance generators and corpus set-up for the benchmark.

The benchmark owns its generators instead of calling netupgrade.generate, so
a corpus depends only on the workload seed and on this file: later changes
to the package cannot shift the inputs that result digests are compared on.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

from netupgrade.instances import (
    DagEdge,
    DagInstance,
    ImprovementLevel,
    UpgradableEdge,
    UpgradableGraph,
)
from netupgrade.serialization import Problem, serialize


@dataclass
class Instance:
    """One generated instance: the file the CLI reads and the in-memory copy
    the correctness gate evaluates against."""

    key: str
    path: str
    problem: Problem


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def random_dag(rng: random.Random, n: int, m: int, max_len: int,
               max_cost: int, uniform_cost: int | None = None) -> DagInstance:
    """DAG on 0..n-1 with source 0, sink n-1 and increasing ladders.

    The backbone 0->1->...->n-1 puts every vertex on a source-sink path, so
    the dynamic programs span all n vertices and an instance's work depends
    on (n, m, max_len) rather than on which vertices happen to reach the
    sink.  That keeps the spread between seeds small.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} out of range for n={n}")
    pairs = {(v, v + 1) for v in range(n - 1)}
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    edges = []
    for eid, (u, v) in enumerate(sorted(pairs)):
        base = rng.randint(0, max_len)
        improved = rng.randint(base, max_len)
        cost = uniform_cost if uniform_cost is not None else rng.randint(1, max_cost)
        edges.append(DagEdge(eid, u, v, base, improved, cost))
    return DagInstance(n, tuple(edges), 0, n - 1)


def swap_lengths(dag: DagInstance) -> DagInstance:
    """Shortest-path (wisdag) instance: base and improved lengths exchanged,
    so every ladder decreases."""
    return DagInstance(dag.n, tuple(
        DagEdge(e.id, e.tail, e.head, e.improved, e.base, e.cost) for e in dag.edges),
        dag.source, dag.sink)


def random_graph(rng: random.Random, n: int, m: int, max_len: int) -> UpgradableGraph:
    """Connected simple graph with two-level ladders and distinct upgrade costs.

    Distinct costs let heavy_budget() hit an exact heavy-copy count.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} out of range for n={n}")
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = set()
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    costs = rng.sample(range(1, 20 * m), m)
    edges = []
    for eid, (u, v) in enumerate(sorted(pairs)):
        base = rng.randint(0, max_len)
        improved = rng.randint(base, max_len)
        ladder = (ImprovementLevel(base, 0), ImprovementLevel(improved, costs[eid]))
        edges.append(UpgradableEdge(eid, u, v, ladder))
    return UpgradableGraph(n, tuple(edges))


def relabel(graph: UpgradableGraph, rng: random.Random) -> UpgradableGraph:
    """The same graph with its vertices permuted.

    Edge ids, ladders and edge order are kept, so every solver does the same
    work on the copy, yet the copy is a different instance: a cache keyed by
    the instance does not serve it.
    """
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return UpgradableGraph(graph.n, tuple(
        UpgradableEdge(e.id, perm[e.u], perm[e.v], e.ladder) for e in graph.edges))


def heavy_budget(graph: UpgradableGraph, heavy: int, eps_prime: Fraction) -> int:
    """Budget B at which exactly `heavy` copies cost more than eps_prime * B.

    With c the (heavy+1)-th largest upgrade cost, B = ceil(c / eps_prime)
    makes c light, and every larger (integer, distinct) cost exceeds
    eps_prime * B < c + 1.
    """
    costs = sorted((lvl.cost for e in graph.edges for lvl in e.ladder[1:]), reverse=True)
    c = costs[heavy]
    return -(-c * eps_prime.denominator // eps_prime.numerator)


def write_corpus(workdir: str, items) -> dict[str, Instance]:
    """Serialize each (key, problem) item into workdir/<key>.json."""
    os.makedirs(workdir, exist_ok=True)
    out = {}
    for key, problem in items:
        path = os.path.join(workdir, key + ".json")
        with open(path, "wb") as fh:
            fh.write(serialize(problem) + b"\n")
        out[key] = Instance(key, path, problem)
    return out
