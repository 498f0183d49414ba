import random

from netupgrade._util import MASK64, UnionFind, fnv1a64, kruskal, splitmix64


def test_splitmix64_reference_values():
    # reference outputs of the standard splitmix64 generator
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(splitmix64(0)) != splitmix64(0)
    assert 0 <= splitmix64(2 ** 63 + 17) <= MASK64


def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"hello") != fnv1a64(b"hellp")


def test_union_find_basics():
    uf = UnionFind(5)
    assert len(_partition(uf, 5)) == 5
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.union(2, 3)
    assert uf.find(0) == uf.find(1) and uf.find(0) != uf.find(2)
    uf.union(1, 3)
    assert uf.find(0) == uf.find(2)
    assert len(_partition(uf, 5)) == 2


def kruskal_by_union(ordered, uf, limit):
    """Test-local copy of the Kruskal loop that calls ``uf.union`` once per
    record, the reference for the inline union-find."""
    chosen = []
    if limit <= 0:
        return chosen
    for rec in ordered:
        if uf.union(rec[1], rec[2]):
            chosen.append(rec)
            if len(chosen) == limit:
                break
    return chosen


def _partition(uf, n):
    """uf's components as a frozenset of vertex sets."""
    groups = {}
    for v in range(n):
        groups.setdefault(uf.find(v), set()).add(v)
    return frozenset(map(frozenset, groups.values()))


def test_inline_kruskal_matches_the_union_call_loop():
    # random record orders (loops and parallel records included) on union-finds
    # pre-seeded with random merges; a second pass reuses each union-find, as
    # uimst_half_approx's base-edge fill does
    rng = random.Random(2024)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        records = [(i, rng.randrange(n), rng.randrange(n)) for i in range(rng.randint(0, 3 * n))]
        seed_merges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        inline, reference = UnionFind(n), UnionFind(n)
        for u, v in seed_merges:
            inline.union(u, v)
            reference.union(u, v)
        for limit in (0, 1, n - 1, rng.randint(0, n + 1)):
            ordered = rng.sample(records, len(records))
            got = kruskal(ordered, inline.parent, limit)
            assert got == kruskal_by_union(ordered, reference, limit)
            assert len(got) <= max(limit, 0)
            assert _partition(inline, n) == _partition(reference, n)
            checked += len(got)
    assert checked >= 1000

    # a path on 10^4 vertices: linking without rank builds chains as long as
    # the path when its edges come backward, the input a missing rank would
    # show on first; halving finds must still pick what the union calls pick
    n = 10_000
    path = [(i, i, i + 1) for i in range(n - 1)]
    orders = [path, path[::-1], [(i, v, u) for i, u, v in reversed(path)],
              # from both ends at once: the first edge, the last, the second, ...
              [path[j // 2] if j % 2 == 0 else path[-1 - j // 2] for j in range(n - 1)]]
    for seeded in (False, True):
        merges = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)] if seeded else []
        for ordered in orders:
            inline, reference = UnionFind(n), UnionFind(n)
            for u, v in merges:
                inline.union(u, v)
                reference.union(u, v)
            # a capped first pass, then a fill on the same forest
            for limit in (n // 3, n - 1):
                got = kruskal(ordered, inline.parent, limit)
                assert got == kruskal_by_union(ordered, reference, limit)
                assert _partition(inline, n) == _partition(reference, n)
            assert len(_partition(inline, n)) == 1
