"""The combinatorial heart: ranking graphs among their configurations.

A graph with a known degree sequence is one point in the set of half-edge
pairings consistent with that sequence.  Counting the pairings that sort
strictly below it (row-major adjacency order) gives an integer rank; the
rank, divided by the pairings that collapse to the same simple graph, is
the codeword.  Decoding walks the count back down with interval proxies,
finding each neighbor by one Fenwick-tree descent.
"""

from lwcg import (
    BipartiteInstance,
    SimpleInstance,
    b_count_oracle,
    b_decode,
    b_encode,
    s_decode,
    s_encode,
)

print("-- bipartite: left degrees (1,1), right degrees (1,1) --")
for adj in (((1,), (2,)), ((2,), (1,))):
    inst = BipartiteInstance(a=(1, 1), b=(1, 1), adj=adj)
    f = b_encode(inst)
    print(f"adjacency {adj}: rank f = {f} "
          f"(configurations strictly below: {b_count_oracle(inst)})")
    assert b_decode(f, (1, 1), (1, 1)) == adj

print()
print("-- simple: the three perfect matchings on four vertices --")
for fwd in (((2,), (), (4,), ()), ((3,), (4,), (), ()), ((4,), (3,), (), ())):
    inst = SimpleInstance(a=(1, 1, 1, 1), fwd=fwd)
    f, checkpoints = s_encode(inst)
    pairs = sorted((v + 1, w) for v, row in enumerate(fwd) for w in row)
    print(f"matching {pairs}: f = {f}")
    assert s_decode(f, checkpoints, (1, 1, 1, 1)) == fwd

print()
print("-- a bigger instance, to show the integers at work --")
import random

rng = random.Random(0)
pn = 24
edges = {(v, w) for v in range(1, pn + 1) for w in range(v + 1, pn + 1)
         if rng.random() < 0.25}
deg = [0] * (pn + 1)
fwd = [[] for _ in range(pn)]
for v, w in sorted(edges):
    fwd[v - 1].append(w)
    deg[v] += 1
    deg[w] += 1
inst = SimpleInstance(a=tuple(deg[1:]), fwd=tuple(tuple(r) for r in fwd))
f, checkpoints = s_encode(inst)
print(f"{pn} vertices, {len(edges)} edges -> rank of {f.bit_length()} bits, "
      f"plus {len(checkpoints) - 1} checkpoints")
assert s_decode(f, checkpoints, inst.a) == inst.fwd
print("decoded forward lists match")
