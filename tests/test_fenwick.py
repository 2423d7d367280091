import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

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
    """(k, suffix sum from k) for the first k whose suffix sum is <= s;
    (n+1, 0) when no suffix sum is, i.e. when s < 0."""
    for k in range(1, len(a) + 1):
        if sum(a[k - 1:]) <= s:
            return k, sum(a[k - 1:])
    return len(a) + 1, 0


def _drain_naive(a, s):
    """_first_at_most_naive(a, s), with a[k-1] (1-based) lowered in place."""
    k, total = _first_at_most_naive(a, s)
    if k > 1:
        a[k - 2] -= 1
    return k, total


def _suffix_sums(fen):
    return [fen.suffix_sum(k) for k in range(1, len(fen) + 2)]


def _naive_suffix_sums(a):
    return list(accumulate(reversed(a), initial=0))[::-1]


def test_first_at_most_vs_naive():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 40)
        a = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
        total = sum(a)
        for s in list(range(-2, total + 3)) + [10 * total + 7]:
            fen = SuffixFenwick(a)
            drained = list(a)
            assert fen.drain_first_at_most(s) == _drain_naive(drained, s), (a, s)
            assert _suffix_sums(fen) == _naive_suffix_sums(drained), (a, s)


def test_first_at_most_edges():
    # (s, (k, S_k), a after the call): k = n+1 drains a[n], k = 1 nothing.
    for s, found, after in [(-1, (2, 0), [3]), (0, (2, 0), [3]), (3, (2, 0), [3]),
                            (4, (1, 4), [4]), (9, (1, 4), [4])]:
        fen = SuffixFenwick([4])
        assert fen.drain_first_at_most(s) == found
        assert _suffix_sums(fen) == _naive_suffix_sums(after)
    fen = SuffixFenwick([0, 0, 0])
    assert fen.drain_first_at_most(0) == (1, 0)
    assert fen.drain_first_at_most(5) == (1, 0)
    assert _suffix_sums(fen) == [0, 0, 0, 0]
    fen = SuffixFenwick([2, 0, 1])
    assert fen.drain_first_at_most(-3) == (4, 0)
    assert _suffix_sums(fen) == [2, 0, 0, 0]
    fen = SuffixFenwick([])
    assert [fen.drain_first_at_most(s) for s in (-1, 0, 7)] == [(1, 0)] * 3
    assert _suffix_sums(fen) == [0]


def test_first_at_most_after_updates():
    # Decode-shaped: drains by descent and by add, residuals never negative.
    rng = random.Random(13)
    n = 37
    a = [rng.randint(0, 6) for _ in range(n)]
    fen = SuffixFenwick(a)
    for _ in range(2000):
        k = rng.randint(1, n)
        if a[k - 1]:
            a[k - 1] -= 1
            fen.add(k, -1)
        s = rng.randint(-1 if a[-1] else 0, sum(a) + 1)
        assert fen.drain_first_at_most(s) == _drain_naive(a, s)
        assert _suffix_sums(fen) == _naive_suffix_sums(a)
        if not sum(a):
            a = [rng.randint(0, 6) for _ in range(n)]
            fen = SuffixFenwick(a)


@st.composite
def interleavings(draw):
    """A start array and a list of ops that keep every entry >= 0: add(k, c)
    within the entry's range, or a descent from s, negative only when a[n]
    has a half-edge to drain."""
    a = draw(st.lists(st.integers(0, 6), max_size=24))
    ops = []
    naive = list(a)
    for _ in range(draw(st.integers(0, 30))):
        if naive and draw(st.booleans()):
            k = draw(st.integers(1, len(naive)))
            c = draw(st.integers(-naive[k - 1], 4))
            naive[k - 1] += c
            ops.append(("add", k, c))
        else:
            low = -2 if naive and naive[-1] else 0
            s = draw(st.integers(low, sum(naive) + 2))
            _drain_naive(naive, s)
            ops.append(("drain", s))
    return a, ops


@settings(derandomize=True, max_examples=300, deadline=None)
@given(interleavings())
def test_add_and_drain_interleaved_vs_naive(case):
    a, ops = case
    a = list(a)
    fen = SuffixFenwick(a)
    for op in ops:
        if op[0] == "add":
            _, k, c = op
            a[k - 1] += c
            fen.add(k, c)
        else:
            assert fen.drain_first_at_most(op[1]) == _drain_naive(a, op[1]), (case, op)
        assert _suffix_sums(fen) == _naive_suffix_sums(a), (case, op)
