"""Golden corpus: SHA-256 of encoder output for fixed (graph, h, delta) cases.

A change that means to keep the wire format must leave every hash here
unchanged.  A deliberate format change bumps VERSION and replaces the
hashes in the same commit.  Print the current hashes with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import random

import pytest

from conftest import sample_graph
from lwcg.graph_model import EdgeListGraph, canonical_edges
from lwcg.pipeline import decode_marked_graph, encode_marked_graph
from lwcg.synthetic import gen_synthetic


def hub_graph(n=400, hubs=3, seed=5):
    """Hubs joined to most vertices, plus a sparse random background."""
    rng = random.Random(seed)
    edges = set()
    for hub in range(1, hubs + 1):
        for w in range(hubs + 1, n + 1):
            if rng.random() < 0.7:
                edges.add((hub, w))
    for _ in range(n):
        v, w = rng.sample(range(hubs + 1, n + 1), 2)
        edges.add((min(v, w), max(v, w)))
    records = tuple((v, w, rng.randint(1, 3), rng.randint(1, 3))
                    for v, w in sorted(edges))
    theta = tuple(rng.randint(1, 2) for _ in range(n))
    return EdgeListGraph(n=n, sigma_v=2, sigma_e=3, theta=theta, edges=records)


# name -> (graph builder, h, delta); the synthetic cases use the three
# parameter points of the benchmark's workloads at seed 71.
CASES = {
    "fixture16_h2_d4": (sample_graph, 2, 4),
    "marked_h1_d20_n300": (lambda: gen_synthetic(300, 3.0, 2, 2, 71), 1, 20),
    "marked_h1_d20_n2000": (lambda: gen_synthetic(2000, 3.0, 2, 2, 71), 1, 20),
    "marked_h2_d4_n300": (lambda: gen_synthetic(300, 3.0, 2, 2, 71), 2, 4),
    "marked_h2_d4_n2000": (lambda: gen_synthetic(2000, 3.0, 2, 2, 71), 2, 4),
    "unmarked_h1_d20_n300": (lambda: gen_synthetic(300, 3.0, 1, 1, 71), 1, 20),
    "unmarked_h1_d20_n2000": (lambda: gen_synthetic(2000, 3.0, 1, 1, 71), 1, 20),
    "hubs3_n400_h1_d8": (hub_graph, 1, 8),
}

GOLDEN = {
    "fixture16_h2_d4": "006f4bf32e74f35856782307cda4219defbb1491665e9acf3a22228aec798435",
    "hubs3_n400_h1_d8": "e072686d8d7417c457ad4501fa41e2afca46488df7cf521fec419e86a3975cf8",
    "marked_h1_d20_n2000": "9b341f509b9e9262dff41be4ada6a0fe94c1e71ecf50795f7ea0989b28a65e31",
    "marked_h1_d20_n300": "8ed87eede9dc0dfe44452f19c4b6837ac49d537cfe39ef986da1b09ef28e6e1c",
    "marked_h2_d4_n2000": "1ee051f6034189a3e959d9e15007355961ef4ad925a3f0dc1de60a5fe304f634",
    "marked_h2_d4_n300": "939cdeb1f1a98e68b51915fbacf3648a319ca1a0fd5dd83634b35139d3f1230e",
    "unmarked_h1_d20_n2000": "f39625ac135e0a17d9bba1b10d190b161e6f35e560f5fc78c8b0ec892d95384a",
    "unmarked_h1_d20_n300": "0d67c1655890636988a0830adb9d629ca95a7bb14bd73904dae84b34332db326",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name):
    build, h, delta = CASES[name]
    g = build()
    data = encode_marked_graph(g, h, delta)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
    decoded = decode_marked_graph(data)
    assert decoded.theta == g.theta
    assert canonical_edges(decoded) == canonical_edges(g)


if __name__ == "__main__":
    for name in sorted(CASES):
        build, h, delta = CASES[name]
        data = encode_marked_graph(build(), h, delta)
        print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",  # {len(data)} bytes')
