"""Small shared helpers: union-find, Kruskal, seed mixing, instance hashing,
rational parameters."""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; used to derive per-trial seeds."""
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

    def components(self) -> int:
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


def kruskal(ordered, uf: UnionFind, limit: int) -> list:
    """The records of ``ordered``, endpoints at positions 1 and 2, that join
    two of ``uf``'s components, taken greedily in order and merged into
    ``uf``; stops once ``limit`` are chosen.

    The union-find runs inline, with path halving (Tarjan & van Leeuwen
    1984) and union by rank as in ``UnionFind.union``: this loop is the hot
    spot of every tree solver, and a method call per record costs more than
    the merge itself.
    """
    chosen: list = []
    if limit <= 0:
        return chosen
    parent, rank = uf.parent, uf.rank
    for rec in ordered:
        u, v = rec[1], rec[2]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if rank[u] < rank[v]:
            u, v = v, u
        parent[v] = u
        if rank[u] == rank[v]:
            rank[u] += 1
        chosen.append(rec)
        if len(chosen) == limit:
            break
    return chosen
