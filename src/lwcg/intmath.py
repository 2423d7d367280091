"""Exact combinatorial arithmetic: strided products, factorial products.

All results are arbitrary-precision integers.  When gmpy2 is available its
mpz type is used internally (GMP has sub-quadratic multiplication and
division, which the ranking codecs lean on for large graphs); plain Python
ints are a correct fallback; for them `mul` takes the largest products by
FFT and `floor_divmod` the largest quotients by recursive division.  The
rank encoders and decoders both route their wide levels through these two.
Unit-stride products go to `math.perm`, and short strided runs to
`math.prod`, so the interpreter loops only over the halving of long
strided products.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, perm, prod

import numpy as np

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    mpz = int

ONE = mpz(1)
ZERO = mpz(0)


def compute_product(p: int, k: int, s: int):
    """Product of k terms p, p-s, p-2s, ... with empty/nonpositive guards.

    Returns 1 if k == 0, returns 0 if the last term p-(k-1)s is <= 0, and
    otherwise the full product: the falling factorial `math.perm(p, k)`
    for s == 1, p**k for s == 0, and for wider strides two halves split
    recursively (keeps intermediate factors balanced) down to runs of at
    most 32 terms, which `math.prod` multiplies.
    """
    if k == 0:
        return ONE
    if p - (k - 1) * s <= 0:
        return ZERO
    if s == 1:
        return mpz(perm(p, k))
    if s == 0:
        return mpz(p) ** k
    return _product_positive(int(p), k, s)


def _product_positive(p: int, k: int, s: int):
    if k <= 32:
        return mpz(prod(range(p, p - k * s, -s)))
    half = k // 2
    return _product_positive(p, half, s) * _product_positive(p - half * s, k - half, s)


def prod_factorial(v, i: int, j: int):
    """Product of v_p! for p in the 1-based inclusive range [i, j]: that of
    (d!)^c over the values d occurring c times, multiplied pairwise."""
    if not 1 <= i <= j <= len(v):
        raise IndexError(f"range [{i}, {j}] out of bounds for length {len(v)}")
    terms = [mpz(factorial(d)) ** c for d, c in Counter(v[i - 1:j]).items() if d > 1] or [ONE]
    while len(terms) > 1:
        terms = [mul(x, y) for x, y in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0]


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


# Bits of the smaller factor from which mul's FFT beats CPython 3.11's
# Karatsuba (numpy 2.4 FFT, 2-core x86 host: about 5x faster at 120,000
# bits, 10x at 800,000).
_FFT_CUTOFF = 40_000
# Largest smaller factor convolved in 16-bit digits.  A coefficient sums
# up to len * 2**32, and the rounding error grows with it: about 0.06 at
# 1.6-million-bit random factors, 0.19 for all-ones ones.  Beyond this,
# or when the error passes 1/4, 8-bit digits keep it near 1e-4 at twice
# the transform length.
_FFT16_MAX_BITS = 1 << 22
# Interval width below which `ranking`, its only reader, multiplies and
# divides inline: numbers stay under the FFT and division cutoffs there,
# so calling mul or floor_divmod would only add per-node call overhead.
WIDE_SPAN = 1024
_CHECK_PRIME = (1 << 64) - 59


def mul(a, b):
    """a * b.

    Once both factors of a plain-int product exceed the cutoff, and neither
    is negative (only a corrupt or hand-made rank can be), they are
    multiplied by a floating-point FFT convolution of their 16-bit (or,
    for the largest, 8-bit) digits, which is O(n log n) against
    Karatsuba's O(n^1.585).  The product is exact: the coefficients are
    rounded only if all of them lie within 1/4 of an integer, and the
    result must match a * b modulo a 64-bit prime; otherwise the next
    digit size, and finally a * b, is tried.  GMP multiplies
    sub-quadratically itself, so mpz operands skip this.
    """
    small = min(a.bit_length(), b.bit_length())
    if mpz is not int or small < _FFT_CUTOFF or a < 0 or b < 0:
        return a * b
    check = (a % _CHECK_PRIME) * (b % _CHECK_PRIME) % _CHECK_PRIME
    for digit in ((16, 8) if small <= _FFT16_MAX_BITS else (8,)):
        c = _fft_mul(a, b, digit)
        if c is not None and c % _CHECK_PRIME == check:
            return c
    return a * b


def _fft_mul(a: int, b: int, digit: int):
    """a * b by convolving base-2**digit digits; None if rounding is unsafe."""
    nbytes = digit // 8
    dtype = "<u2" if digit == 16 else np.uint8
    la = -(-a.bit_length() // digit)
    lb = -(-b.bit_length() // digit)
    x = np.frombuffer(a.to_bytes(la * nbytes, "little"), dtype=dtype)
    y = np.frombuffer(b.to_bytes(lb * nbytes, "little"), dtype=dtype)
    size = 1 << (la + lb - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:la + lb - 1]
    coef = np.rint(conv)
    if np.abs(conv - coef).max() > 0.25:
        return None
    # Coefficient i weighs 2**(digit*i); digit-wide field t of its
    # little-endian int64 form weighs 2**(digit*(i+t)), so the product is
    # the sum of those fields' planes, each shifted by its place.
    planes = coef.astype("<i8").view(dtype).reshape(la + lb - 1, 8 // nbytes)
    c = 0
    for t in range(planes.shape[1]):
        plane = planes[:, t]
        if plane.any():
            c += int.from_bytes(plane.tobytes(), "little") << (digit * t)
    return c


def ceil_div(a, b):
    """Exact ceiling of a / b for nonnegative a, positive b."""
    q, r = floor_divmod(a, b)
    return q + 1 if r else q


def floor_div(a, b):
    """a // b for positive b, by floor_divmod."""
    return floor_divmod(a, b)[0]


# Bits of divisor or quotient below which the interpreter's own division
# is faster than recursing.
_DIV_CUTOFF = 4000


def floor_divmod(a, b):
    """divmod(a, b) for b > 0.

    CPython 3.11 divides in O(len(q) len(b)) steps.  Once both the divisor
    and the quotient exceed the cutoff, this divides by recursive halving
    instead (Burnikel and Ziegler, Fast Recursive Division, 1998): a long
    division in base 2**len(b) whose digit steps split the divisor in two,
    so the work goes into multiplications, which are sub-quadratic.  GMP
    divides sub-quadratically itself, so mpz operands go to divmod, and so
    does a negative a, which only a corrupt rank can give a decoder.
    """
    n = b.bit_length()
    if a < 0 or n <= _DIV_CUTOFF or a.bit_length() - n <= _DIV_CUTOFF or mpz is not int:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div_2n_1n((r << n) | ((a >> shift) & mask), b, n)
        q = (q << n) | digit
    return q, r


def _div_2n_1n(a, b, n):
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n."""
    if n <= _DIV_CUTOFF:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b_hi, b_lo = b >> half, b & mask
    q_hi, r = _div_3n_2n(a >> n, (a >> half) & mask, b, b_hi, b_lo, half)
    q_lo, r = _div_3n_2n(r, a & mask, b, b_hi, b_lo, half)
    return (q_hi << half) | q_lo, r >> pad


def _div_3n_2n(a12, a3, b, b_hi, b_lo, n):
    """divmod(a12 * 2**n + a3, b) for b = b_hi * 2**n + b_lo, a12 < b * 2**n."""
    if a12 >> n == b_hi:
        q, r = (1 << n) - 1, a12 - (b_hi << n) + b_hi
    else:
        q, r = _div_2n_1n(a12, b_hi, n)
    r = ((r << n) | a3) - mul(q, b_lo)
    while r < 0:  # at most twice: the estimate q is at most 2 too high
        q -= 1
        r += b
    return q, r
