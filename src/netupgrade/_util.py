"""Small shared helpers: union-find, Kruskal, seed mixing, instance hashing,
rational parameters, a collector pause."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from fractions import Fraction

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; used to derive per-solve seeds."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def as_fraction(x) -> Fraction:
    """x as an exact rational; a float is read as the decimal it prints as
    (0.3 is 3/10, not its binary value), so every solver reads eps alike."""
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash over raw bytes."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & MASK64
    return h


@contextmanager
def gc_paused():
    """Hold the cyclic garbage collector off for the block, for code that
    builds many containers and no reference cycles (Mercurial's
    ``util.nogc``).  The collector is switched back on afterwards only if it
    was on before, so pauses nest and a caller's ``gc.disable()`` holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class UnionFind:
    __slots__ = ["parent", "rank"]

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, u: int) -> int:
        root = u
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[u] != root:
            self.parent[u], u = root, self.parent[u]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        if self.rank[ru] == self.rank[rv]:
            self.rank[ru] += 1
        return True


def kruskal(ordered, parent: list, limit: int) -> list:
    """The records of ``ordered``, endpoints at positions 1 and 2, that join
    two trees of the forest ``parent`` (roots are their own parents), taken
    greedily in order and merged into ``parent``; stops once ``limit`` are
    chosen.

    Inline for speed, with path halving (Tarjan & van Leeuwen 1984) and no
    rank: the records chosen depend only on which components exist, not on
    which root a merge keeps, and halving alone keeps finds O(log n)
    amortized.  ``UnionFind`` stays the naive reference.
    """
    chosen: list = []
    if limit <= 0:
        return chosen
    for rec in ordered:
        u, v = rec[1], rec[2]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        parent[v] = u
        chosen.append(rec)
        if len(chosen) == limit:
            break
    return chosen
