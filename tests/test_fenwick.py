import random

import pytest

from lwcg.fenwick import SuffixFenwick


def test_small_example():
    fen = SuffixFenwick([3, 1, 2])
    assert fen.suffix_sum(1) == 6
    assert fen.suffix_sum(2) == 3
    assert fen.suffix_sum(3) == 2
    assert fen.suffix_sum(4) == 0


def test_empty():
    fen = SuffixFenwick([])
    assert fen.suffix_sum(1) == 0


def test_add():
    fen = SuffixFenwick([3, 1, 2])
    fen.add(2, -1)
    assert fen.suffix_sum(1) == 5
    assert fen.suffix_sum(2) == 2
    fen.add(3, 0)  # no-op
    assert fen.suffix_sum(3) == 2


def test_init_matches_naive():
    rng = random.Random(4)
    a = [rng.randint(0, 20) for _ in range(50)]
    fen = SuffixFenwick(a)
    for k in range(1, 52):
        assert fen.suffix_sum(k) == sum(a[k - 1:])


def test_index_errors():
    fen = SuffixFenwick([1, 2])
    with pytest.raises(IndexError):
        fen.add(0, 1)
    with pytest.raises(IndexError):
        fen.add(3, 1)
    with pytest.raises(IndexError):
        fen.suffix_sum(0)


def test_interleaved_ops_vs_naive():
    rng = random.Random(9)
    n = 60
    a = [rng.randint(0, 8) for _ in range(n)]
    fen = SuffixFenwick(a)
    for _ in range(10**4):
        if rng.random() < 0.5:
            k = rng.randint(1, n)
            if a[k - 1] > 0 and rng.random() < 0.7:
                c = -rng.randint(1, a[k - 1])
            else:
                c = rng.randint(0, 5)
            a[k - 1] += c
            fen.add(k, c)
        else:
            k = rng.randint(1, n + 3)
            assert fen.suffix_sum(k) == sum(a[k - 1:])
    assert fen.total() == sum(a)


def _first_at_most_naive(a, s):
    """(k, suffix sum from k) for the first k whose suffix sum is <= s."""
    for k in range(1, len(a) + 2):
        if sum(a[k - 1:]) <= s:
            return k, sum(a[k - 1:])
    raise AssertionError("suffix_sum(n+1) is 0")


def test_first_at_most_vs_naive():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 40)
        a = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
        fen = SuffixFenwick(a)
        total = sum(a)
        for s in list(range(-2, total + 3)) + [10 * total + 7]:
            expect = (n + 1, 0) if s < 0 else _first_at_most_naive(a, s)
            assert fen.first_at_most(s) == expect, (a, s)


def test_first_at_most_edges():
    fen = SuffixFenwick([4])
    assert [fen.first_at_most(s) for s in (-1, 0, 3, 4, 9)] == [(2, 0), (2, 0), (2, 0),
                                                                  (1, 4), (1, 4)]
    fen = SuffixFenwick([0, 0, 0])
    assert fen.first_at_most(0) == (1, 0)
    assert SuffixFenwick([]).first_at_most(0) == (1, 0)


def test_first_at_most_after_updates():
    rng = random.Random(13)
    n = 37
    a = [rng.randint(0, 6) for _ in range(n)]
    fen = SuffixFenwick(a)
    for _ in range(2000):
        k = rng.randint(1, n)
        if a[k - 1]:
            a[k - 1] -= 1
            fen.add(k, -1)
        s = rng.randint(0, sum(a) + 1)
        assert fen.first_at_most(s) == _first_at_most_naive(a, s)
