"""Self-delimiting codec for sequences of nonnegative integers.

A sequence y of length n maps to an auxiliary bipartite graph: left vertex
i connects to right vertex 1 + y_i, and right degrees are the symbol
frequencies.  The payload is Elias delta of the symbol bound K, the K
frequencies (offset by one, they may be zero), and the bipartite rank
(offset by one as well).
"""

from __future__ import annotations

from .bipartite import BipartiteInstance, b_decode, b_encode, ratio_tree
from .bits import BitReader, BitWriter, CodecError


def _unit_ratio_tree(n: int, trees) -> list:
    """Ratio tree of n left vertices of degree 1, kept in trees if given.

    It depends on n alone, and a graph's star bitmap and vertex-type ids
    are both length-n sequences, so a caller coding both passes one dict
    and the second sequence reuses the first one's tree.
    """
    if trees is None:
        return ratio_tree((1,) * n)
    tree = trees.get(n)
    if tree is None:
        tree = trees[n] = ratio_tree((1,) * n)
    return tree


def encode_sequence(y, out: BitWriter, trees=None) -> None:
    """Append the prefix-free encoding of y (length >= 1) to out.

    trees is an optional dict that shares ratio trees between calls.
    """
    n = len(y)
    if n < 1:
        raise ValueError("cannot encode an empty sequence")
    k = 1 + max(y)
    freq = [0] * k
    for v in y:
        if v < 0:
            raise ValueError("sequence values must be nonnegative")
        freq[v] += 1
    rows = [(1 + v,) for v in range(k)]  # one neighbor list per symbol, shared
    adj = tuple(map(rows.__getitem__, y))
    f = b_encode(BipartiteInstance(a=(1,) * n, b=tuple(freq), adj=adj),
                 _unit_ratio_tree(n, trees))
    out.write_elias_delta(k)
    for bj in freq:
        out.write_elias_delta(1 + bj)
    out.write_elias_delta(1 + f)


def decode_sequence(n: int, reader: BitReader, trees=None) -> list:
    """Read one encode_sequence payload of known length n.

    A payload that cannot be decoded raises CodecError.  trees is as in
    encode_sequence.
    """
    k = reader.read_elias_delta()
    if k > reader.remaining():  # each frequency costs at least one bit
        raise CodecError(f"symbol bound {k} exceeds remaining stream")
    freq = [reader.read_elias_delta() - 1 for _ in range(k)]
    f = reader.read_elias_delta() - 1
    if sum(freq) != n:  # checked before the length-n tree is built
        raise CodecError(f"symbol frequencies sum to {sum(freq)}, not {n}")
    try:
        adj = b_decode(f, (1,) * n, tuple(freq), _unit_ratio_tree(n, trees))
    except ValueError as exc:
        raise CodecError(f"sequence rank: {exc}") from exc
    return [neigh[0] - 1 for neigh in adj]
