from netupgrade._util import MASK64, UnionFind, fnv1a64, splitmix64


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
    assert uf.components() == 5
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.union(2, 3)
    assert uf.find(0) == uf.find(1) and uf.find(0) != uf.find(2)
    uf.union(1, 3)
    assert uf.find(0) == uf.find(2)
    assert uf.components() == 2
