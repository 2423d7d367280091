import math
import random

import pytest

from lwcg.intmath import (
    ceil_div,
    compute_product,
    double_factorial_ratio,
    falling_threshold,
    floor_div,
    floor_divmod,
    mul,
    prod_factorial,
)
from lwcg.intmath import _fft_mul


def test_compute_product_examples():
    assert compute_product(5, 3, 1) == 60
    assert compute_product(7, 0, 3) == 1
    assert compute_product(0, 0, 0) == 1
    assert compute_product(3, 4, 1) == 0  # last term 3 - 3*1 = 0


def test_compute_product_vs_naive():
    # Strides 0..4 and up to 80 terms reach every path: math.perm (s == 1),
    # p ** k (s == 0), one math.prod run (k <= 32) and the split above it.
    rng = random.Random(1)
    for t in range(1000):
        s = t % 5
        k = rng.randint(0, 80)
        p = rng.randint(0, 60) if t % 2 else rng.randint(s * k, s * k + 60)
        naive = 1
        for kp in range(k):
            naive *= max(p - kp * s, 0)
        assert compute_product(p, k, s) == naive


def test_compute_product_factorials():
    for k in range(21):
        assert compute_product(k, k, 1) == math.factorial(k)


def test_compute_product_result_size():
    # bit length grows like O(k * bits(p)); generous spot check.
    p, k = 10**6, 50
    got = compute_product(p, k, 1).bit_length()
    assert got <= 2 * k * p.bit_length()


def test_prod_factorial_examples():
    assert prod_factorial((2, 3, 1), 1, 3) == 12
    assert prod_factorial((0, 0), 1, 2) == 1
    assert prod_factorial((4, 4, 4, 4), 1, 4) == 331776
    assert prod_factorial((5, 2, 7), 2, 2) == 2


def test_prod_factorial_vs_math():
    rng = random.Random(2)
    for _ in range(200):
        v = [rng.randint(0, 9) for _ in range(rng.randint(1, 8))]
        i = rng.randint(1, len(v))
        j = rng.randint(i, len(v))
        expected = 1
        for p in range(i, j + 1):
            expected *= math.factorial(v[p - 1])
        assert prod_factorial(v, i, j) == expected


def test_prod_factorial_bad_range():
    with pytest.raises(IndexError):
        prod_factorial((1, 2), 0, 1)
    with pytest.raises(IndexError):
        prod_factorial((1, 2), 1, 3)


def test_double_factorial_ratio():
    assert double_factorial_ratio(4, 0) == 3
    assert double_factorial_ratio(6, 2) == 15
    assert double_factorial_ratio(8, 8) == 1
    assert double_factorial_ratio(0, 0) == 1
    # (S-1)!! = S! / (2^(S/2) (S/2)!)
    for s in range(0, 22, 2):
        expected = math.factorial(s) // (2 ** (s // 2) * math.factorial(s // 2))
        assert double_factorial_ratio(s, 0) == expected


def test_double_factorial_ratio_rejects_odd():
    with pytest.raises(ValueError):
        double_factorial_ratio(3, 0)
    with pytest.raises(ValueError):
        double_factorial_ratio(4, 6)


def test_ceil_div():
    assert ceil_div(0, 5) == 0
    assert ceil_div(10, 5) == 2
    assert ceil_div(11, 5) == 3


def _threshold_naive(z, q):
    s = -1
    while math.perm(s + 1, q) <= z:
        s += 1
    return s


def test_falling_threshold_vs_naive():
    rng = random.Random(7)
    for q in range(1, 21):
        zs = {0, 1, 2, math.factorial(q) - 1, math.factorial(q)}
        for _ in range(40):
            s = rng.randint(0, 60)
            zs.add(math.perm(s, q) + rng.randint(-1, 1))
        for z in sorted(zs):
            if z >= 0:
                assert falling_threshold(z, q) == _threshold_naive(z, q), (z, q)


def test_falling_threshold_negative_and_zero():
    for q in range(1, 21):
        assert falling_threshold(-1, q) == -1
        assert falling_threshold(0, q) == q - 1


def test_falling_threshold_beyond_float_range():
    # z wider than 1,024 bits does not fit a float: the integer root path.
    rng = random.Random(8)
    for q in (1, 2, 3, 7, 20):
        for _ in range(20):
            s = rng.randint(2 ** (1100 // q), 2 ** (1100 // q + 1))
            p = math.perm(s, q)
            assert p.bit_length() > 1024
            assert falling_threshold(p - 1, q) == s - 1
            assert falling_threshold(p, q) == s
            t = falling_threshold(p + 1, q)
            assert math.perm(t, q) <= p + 1 < math.perm(t + 1, q)


def test_floor_divmod_vs_builtin():
    # Past the cutoff in divisor and quotient the division recurses; odd
    # widths exercise the padding, equal tops the 2**n - 1 estimate.
    # Negative dividends, which a decoder meets only on a corrupt rank,
    # must floor as divmod does at every width.
    rng = random.Random(9)
    cases = [(0, 1), (5, 7), (2 ** 20000 - 1, 2 ** 9000 - 1), (2 ** 20000, 2 ** 9000 + 1),
             (-5, 7), (-(2 ** 30000), 2 ** 9000 + 1), (-(2 ** 30000 - 1), 2 ** 9000 - 1)]
    for _ in range(40):
        nb = rng.randint(1, 30000)
        b = rng.getrandbits(nb) | 1 << (nb - 1)
        cases.append((rng.getrandbits(rng.randint(1, 70000)), b))
        top = b << rng.randint(0, 40000)
        cases.append((top - rng.randrange(b), b))
        cases.append((-rng.getrandbits(nb + rng.randint(5000, 40000)), b))
    for a, b in cases:
        assert floor_divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())
        assert floor_div(a, b) == a // b
        assert ceil_div(a, b) == -(-a // b)


def test_mul_vs_builtin():
    # Below the cutoff, lopsided, random and all-ones factors, all-ones
    # factors large enough that 16-bit digits round too coarsely, and
    # negative factors, which a decoder meets only on a corrupt rank.
    rng = random.Random(10)
    cases = [(0, 2 ** 50000), (1, 2 ** 50000 + 1), (3, 5), (2 ** 39999, 2 ** 39999)]
    for bits in (40_000, 45_000, 120_000, 700_000):
        cases.append((rng.getrandbits(bits), rng.getrandbits(bits)))
        cases.append((rng.getrandbits(bits), rng.getrandbits(3 * bits)))
        cases.append((2 ** bits - 1, 2 ** bits - 1))
    cases.append((2 ** 2_500_000 - 1, 2 ** 2_500_000 - 1))
    a, b = rng.getrandbits(120_000), rng.getrandbits(90_000)
    cases += [(-a, b), (a, -b), (-a, -b)]
    for a, b in cases:
        assert mul(a, b) == a * b, (a.bit_length(), b.bit_length())


def test_mul_rejects_unsafe_or_wrong_products(monkeypatch):
    import lwcg.intmath as im

    a, b = 3 ** 60000, 7 ** 40000
    calls = []

    def off_by_one_at_16(x, y, digit):
        calls.append(digit)
        return x * y + (digit == 16)

    monkeypatch.setattr(im, "_fft_mul", off_by_one_at_16)
    assert mul(a, b) == a * b and calls == [16, 8]
    monkeypatch.setattr(im, "_fft_mul", lambda x, y, digit: None)
    assert mul(a, b) == a * b


def test_fft_digit_sizes_agree():
    rng = random.Random(12)
    for _ in range(5):
        a = rng.getrandbits(rng.randint(50_000, 200_000))
        b = rng.getrandbits(rng.randint(50_000, 200_000))
        assert _fft_mul(a, b, 16) == _fft_mul(a, b, 8) == a * b
