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
    "fixture16_h2_d4": "dbe4e4c0ca8de2b32f80b3a3a0404b31ca5d2256b537273251ddd43277b3a169",
    "hubs3_n400_h1_d8": "7cd9f8035587e783cd095ee4c2dc56e305ad4e79b31277d9a70358ba0d905e07",
    "marked_h1_d20_n2000": "b494a01f39350691b788da1340c2a01a7e895f03d9f90d723dc740d23b42d4ec",
    "marked_h1_d20_n300": "719c478901c9d3540cfffc3138f5b277b43af0b59b41a58153dbf6d66167aea3",
    "marked_h2_d4_n2000": "3402cad8d6fa8d7bb8e3d5507bfd598ed0d5b365a403b804624a1f19c302ba12",
    "marked_h2_d4_n300": "95e8d4e48bc9acc3f83614dd2fe54d29102cab1fd7c510f92b3d0c877b86be33",
    "unmarked_h1_d20_n2000": "8cbf9611bb6ad5b8ee0e769261feff2f39f58c657acf60376b51e87f242e4e6e",
    "unmarked_h1_d20_n300": "37b5f367ec5c6461437fd641339e6ade2e5ce485d01295ccedee95fadc5c7039",
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
