import random

import numpy as np
import pytest

from lwcg.graph_model import EdgeListGraph


def random_marked_graph(rng: random.Random, n: int, p: float,
                        sigma_e: int, sigma_v: int) -> EdgeListGraph:
    """Erdos-Renyi-style marked graph with random record orientations."""
    edges = []
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            if rng.random() < p:
                x = rng.randint(1, sigma_e)
                xp = rng.randint(1, sigma_e)
                if rng.random() < 0.5:
                    edges.append((v, w, x, xp))
                else:
                    edges.append((w, v, xp, x))
    theta = tuple(rng.randint(1, sigma_v) for _ in range(n))
    return EdgeListGraph(n=n, sigma_v=sigma_v, sigma_e=sigma_e,
                         theta=theta, edges=tuple(edges))


def sample_graph() -> EdgeListGraph:
    """The 16-vertex fixture: red hub, five blue spokes, red leaf pairs.

    Hub edges carry mark 2 toward the hub and 1 toward the spoke; each
    spoke i in 2..6 connects to leaves 2i+3 and 2i+4 with mark 1 both
    ways, and the two leaves share an edge with mark 2 both ways.
    """
    edges = []
    for i in range(2, 7):
        edges.append((1, i, 2, 1))
        edges.append((i, 2 * i + 3, 1, 1))
        edges.append((i, 2 * i + 4, 1, 1))
        edges.append((2 * i + 3, 2 * i + 4, 2, 2))
    theta = (2,) + (1,) * 5 + (2,) * 10
    return EdgeListGraph(n=16, sigma_v=2, sigma_e=2, theta=theta,
                         edges=tuple(edges))


def same_graph(a: EdgeListGraph, b: EdgeListGraph) -> bool:
    """Whether two graphs hold the same header, vertex marks and records,
    the records in the same order and orientation."""
    return ((a.n, a.sigma_v, a.sigma_e, a.theta) == (b.n, b.sigma_v, b.sigma_e, b.theta)
            and a.edges.shape == b.edges.shape and a.edges.tolist() == b.edges.tolist())


def vertex_types(dictionary, ids):
    """The vertex-type columns ((sizes, elements), ids) as Python ints: the
    signatures as a list of tuples, and the ids as a list."""
    sizes, elements = dictionary
    return [tuple(sig.tolist()) for sig in np.split(elements, np.cumsum(sizes)[:-1])], ids.tolist()


def vertex_profiles(dictionary, ids):
    """[None], then each vertex's degree profile {(label, mirror label):
    count}, read back from its signature in the vertex-type columns."""
    signatures, ids = vertex_types(dictionary, ids)
    return [None] + [{(sig[k], sig[k + 1]): sig[k + 2] for k in range(1, len(sig), 3)}
                     for sig in (signatures[vid - 1] for vid in ids)]


@pytest.fixture
def fig_graph():
    return sample_graph()
