"""Exact combinatorial arithmetic: strided products, factorial products.

All results are arbitrary-precision integers.  When gmpy2 is available its
mpz type is used internally (GMP has sub-quadratic multiplication and
division, which the ranking codecs lean on for large graphs); plain Python
ints are a correct fallback.
"""

from __future__ import annotations

from math import perm

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    mpz = int

ONE = mpz(1)
ZERO = mpz(0)


def compute_product(p: int, k: int, s: int):
    """Product of k terms p, p-s, p-2s, ... with empty/nonpositive guards.

    Returns 1 if k == 0, returns 0 if the last term p-(k-1)s is <= 0, and
    otherwise the full product, computed by splitting the terms into two
    halves (keeps intermediate factors balanced).
    """
    if k == 0:
        return ONE
    if p - (k - 1) * s <= 0:
        return ZERO
    return _product_positive(mpz(p), k, s)


def _product_positive(p, k: int, s: int):
    if k == 1:
        return p
    half = k // 2
    return _product_positive(p, half, s) * _product_positive(p - half * s, k - half, s)


def prod_factorial(v, i: int, j: int):
    """Product of v_p! for p in the 1-based inclusive range [i, j]."""
    if not 1 <= i <= j <= len(v):
        raise IndexError(f"range [{i}, {j}] out of bounds for length {len(v)}")
    if i == j:
        x = v[i - 1]
        return compute_product(x, x, 1)
    m = (i + j) // 2
    return prod_factorial(v, i, m) * prod_factorial(v, m + 1, j)


def double_factorial_ratio(s_hi: int, s_lo: int):
    """(s_hi - 1)!! / (s_lo - 1)!! for even s_hi >= s_lo >= 0.

    With s_lo == 0 this is (s_hi - 1)!!, the number of matchings on s_hi
    points ((-1)!! == 1 by convention).
    """
    if s_hi % 2 or s_lo % 2:
        raise ValueError("double_factorial_ratio needs even arguments")
    if s_hi < s_lo or s_lo < 0:
        raise ValueError("need s_hi >= s_lo >= 0")
    return compute_product(s_hi - 1, (s_hi - s_lo) // 2, 2)


def binomial(n: int, m: int):
    """n choose m, zero when n < m."""
    num = compute_product(n, m, 1)
    if num == 0:
        return num
    return num // compute_product(m, m, 1)


def falling_threshold(z, q: int) -> int:
    """Largest S >= 0 with S(S-1)...(S-q+1) <= z, for q >= 1; -1 if z < 0.

    The falling factorial (S)_q lies between (S-q+1)^q and (S-(q-1)/2)^q,
    so S is the integer q-th root of z plus about (q-1)/2; a few exact
    steps settle it.  The root comes from a float while it has under 50
    bits (and z fits a float), otherwise from integer Newton steps.
    """
    if z < 0:
        return -1
    if q == 1:
        return int(z)
    nbits = z.bit_length()
    if nbits <= min(1000, 50 * q):
        root = int(float(z) ** (1.0 / q))
    else:
        root = _iroot(z, q)
    s = max(root + (q - 1) // 2, q - 1)
    while perm(s, q) > z:
        s -= 1
    while perm(s + 1, q) <= z:
        s += 1
    return s


def _iroot(z, q: int):
    """floor(z ** (1/q)) for z >= 0 by Newton's method from above."""
    x = 1 << -(-z.bit_length() // q)
    while True:
        y = ((q - 1) * x + z // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def ceil_div(a, b):
    """Exact ceiling of a / b for nonnegative a, positive b."""
    q = a // b
    if q * b < a:
        q += 1
    return q
