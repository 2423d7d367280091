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
    "fixture16_h2_d4": "fce151b753ba3eb0911b2d4ed9f3f28b92b3e347bccc69c6fefc0953575fff01",
    "hubs3_n400_h1_d8": "4db5c822f362cdfff400777b90d3af12660106e6b197ea73386b2c7d8280240b",
    "marked_h1_d20_n2000": "c856b6cb72c9c7df419147c627421a567bb7a5ec6cd10586198d3bba5d3ead87",
    "marked_h1_d20_n300": "0c305312fbb980817883625ef7587aa5944bb494f7be7035dfa8db9b3871fc3b",
    "marked_h2_d4_n2000": "9352d63873d1322ca8c96a245f0386c6702e10daa250b01b29e6e324c7d57656",
    "marked_h2_d4_n300": "9b5a0878fdf3b0817f86c793eb242e7938f12c3556c36aba4651e09b8d3f99d1",
    "unmarked_h1_d20_n2000": "60bf668c0f3f9b837ba9c08d9f7da0520dfec41174a9d65c9c86099831042a44",
    "unmarked_h1_d20_n300": "4c6163306d8e52f1139e06b7c891c77e6ba6b510b3dc9eb3efb910b1d7f3d2ea",
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
