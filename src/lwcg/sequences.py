"""Self-delimiting codec for sequences of nonnegative integers.

A sequence y of length n maps to an auxiliary bipartite graph: left vertex
i connects to right vertex 1 + y_i, and right degrees are the symbol
frequencies.  The payload is Elias delta of the symbol bound K, the K
frequencies (offset by one, they may be zero), and the bipartite rank
(offset by one as well).

With K <= 2 that rank is the lexicographic rank of y among the sequences
with its counts, symbol 1 ordered before 0 (Cover, "Enumerative source
encoding", IEEE Trans. IT 1973).  With the k zeros at positions
p_0 < ... < p_{k-1} it is the combinatorial number system's
f = sum_j C(n-1-p_j, k-j) (Knuth, TAOCP 4A, 7.2.1.3).  Swapping the
symbols turns f into C(n, k) - 1 - f, so the c positions of the rarer
symbol give f either way, and each term follows from the one before by a
ratio over the gap between their positions.  A 0/1 sequence is ranked
this way while c * c <= COMBINATION_SQ * n, and by the bipartite ranker
otherwise; both give the same f, so the payload does not say which.
"""

from __future__ import annotations

from math import comb, lgamma, log, perm

from .bipartite import BipartiteInstance, b_decode, b_encode
from .bits import BitReader, BitWriter, CodecError

# The combination form makes one step per rarer symbol on numbers of
# log2 C(n, c) bits, about c^2 log(n/c) bit operations in all; the
# bipartite ranker makes one per symbol plus a product tree over n.
# Process seconds, encode / decode (CPython 3.11, int arithmetic, 2-core
# x86 VM, random positions, best of 3-5):
#
#     n      c         combination       bipartite
#     1e4       52     0.0009 / 0.0004   0.018 / 0.034
#     1e4    5,000     0.018  / 0.049    0.019 / 0.035
#     1e5      629     0.028  / 0.024    0.31  / 0.96
#     1e5   15,000     0.40   / 0.62     0.31  / 0.93
#     1e5   25,000     0.85   / 1.24     0.32  / 0.93
#     1e5   40,000     1.24   / 2.08     0.33  / 0.94
#
# Summed, the two cross near c = 4,000 at 1e4 (c^2 = 1,600 n) and 17,500
# at 1e5 (3,100 n); at 1e5 encode alone crosses near 12,000, decode near
# 21,000.  2,500 n lies between: c <= 5,000 at 1e4, c <= 15,811 at 1e5.
COMBINATION_SQ = 2500


def _by_combination(n: int, zeros: int) -> bool:
    """Whether n symbols, that many of them 0, take the combination form."""
    c = _rarer(n, zeros)[1]
    return c * c <= COMBINATION_SQ * n


def _rarer(n: int, zeros: int):
    """(symbol, count) of the rarer symbol of a 0/1 sequence, 0 on a tie."""
    return (0, zeros) if 2 * zeros <= n else (1, n - zeros)


def _binomial(y: int, r: int, x: int, b) -> int:
    """C(y, r) from b = C(x, r + 1), x > y: b (r+1) (x-1-r)_g / (x (x-1)_g)
    with g = x-1-y when that has fewer factors than C(y, r) itself, which
    is computed afresh otherwise and when b is None or 0."""
    if not b or x - 1 - y >= r:
        return comb(y, r)
    g = x - 1 - y
    return b * (r + 1) * perm(x - 1 - r, g) // (x * perm(x - 1, g))


def _combination_rank(y, n: int, zeros: int) -> int:
    """The rank f of a 0/1 sequence y, from its rarer symbol's positions."""
    sym, c = _rarer(n, zeros)
    f = 0
    x = b = None
    for j, p in enumerate(p for p, v in enumerate(y) if v == sym):
        b = _binomial(n - 1 - p, c - j, x, b)
        f += b
        x = n - 1 - p
    return comb(n, zeros) - 1 - f if sym else f


def _combination_unrank(f: int, n: int, zeros: int) -> list:
    """Inverse of _combination_rank; a rank of C(n, zeros) or more raises
    CodecError.  Each position p_j = n-1-x comes from the largest x with
    C(x, r) <= f, r = c-j: a bisection on lgamma, then C(x, r) from the
    last term and unit ratio steps to make it exact.  The x fall, so each
    search stays below the last one."""
    sym, c = _rarer(n, zeros)
    y = [1 - sym] * n  # before comb(): an absurd n fails here, at once
    total = comb(n, zeros)
    if not 0 <= f < total:
        raise CodecError(f"sequence rank {f} outside [0, C({n}, {zeros}))")
    if sym:
        f = total - 1 - f
    x, b = n, None
    for r in range(c, 0, -1):
        if not f:  # the r left fill the tail
            y[n - r:] = [sym] * r
            break
        # C(r, r) = 1 <= f < C(x, r), so the next x lies in [r, x - 1].
        lo, hi, target = r, x - 1, log(f) + lgamma(r + 1) + 1e-9
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if lgamma(mid + 1) - lgamma(mid - r + 1) <= target:
                lo = mid
            else:
                hi = mid - 1
        b = _binomial(lo, r, x, b)
        while b > f:
            b = b * (lo - r) // lo
            lo -= 1
        while (up := b * (lo + 1) // (lo + 1 - r)) <= f:
            b, lo = up, lo + 1
        f -= b
        y[n - 1 - lo] = sym
        x = lo
    return y


def encode_sequence(y, out: BitWriter) -> None:
    """Append the prefix-free encoding of y (length >= 1) to out."""
    n = len(y)
    if n < 1:
        raise ValueError("cannot encode an empty sequence")
    k = 1 + max(y)
    freq = [0] * k
    for v in y:
        if v < 0:
            raise ValueError("sequence values must be nonnegative")
        freq[v] += 1
    if k <= 2 and _by_combination(n, freq[0]):
        f = _combination_rank(y, n, freq[0])
    else:
        rows = [(1 + v,) for v in range(k)]  # one neighbor list per symbol, shared
        adj = tuple(map(rows.__getitem__, y))
        f = b_encode(BipartiteInstance(a=(1,) * n, b=tuple(freq), adj=adj))
    out.write_elias_delta(k)
    for bj in freq:
        out.write_elias_delta(1 + bj)
    out.write_elias_delta(1 + f)


def decode_sequence(n: int, reader: BitReader) -> list:
    """Read one encode_sequence payload of known length n.

    A payload that cannot be decoded raises CodecError.
    """
    k = reader.read_elias_delta()
    if k > reader.remaining():  # each frequency costs at least one bit
        raise CodecError(f"symbol bound {k} exceeds remaining stream")
    freq = [reader.read_elias_delta() - 1 for _ in range(k)]
    f = reader.read_elias_delta() - 1
    if sum(freq) != n:  # checked before anything of length n is built
        raise CodecError(f"symbol frequencies sum to {sum(freq)}, not {n}")
    if k <= 2 and _by_combination(n, freq[0]):
        return _combination_unrank(f, n, freq[0])
    try:
        adj = b_decode(f, (1,) * n, tuple(freq))
    except ValueError as exc:
        raise CodecError(f"sequence rank: {exc}") from exc
    return [neigh[0] - 1 for neigh in adj]
