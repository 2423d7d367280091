import numpy as np
import pytest

from conftest import same_graph
from lwcg.edge_types import MarkedTree, lambda_canonical
from lwcg.synthetic import _j1_from_counts, estimate_bc_entropy_h1, gen_synthetic


def test_gen_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_synthetic(2, 0.0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(1, 1.0, 1, 1, seed=0)


def test_gen_deterministic():
    a = gen_synthetic(500, 2.0, 2, 2, seed=42)
    b = gen_synthetic(500, 2.0, 2, 2, seed=42)
    assert same_graph(a, b)
    c = gen_synthetic(500, 2.0, 2, 2, seed=43)
    assert not same_graph(a, c)


def test_gen_mean_degree_concentrates():
    g = gen_synthetic(1000, 3.0, 2, 2, seed=1)
    mean_deg = 2 * g.m / g.n
    assert 5.5 <= mean_deg <= 6.5


def test_gen_is_simple_and_marked():
    g = gen_synthetic(300, 2.5, 3, 2, seed=7)
    seen = set()
    for v, w, x, xp in g.edges:
        assert v != w
        assert (min(v, w), max(v, w)) not in seen
        seen.add((min(v, w), max(v, w)))
        assert 1 <= x <= 3 and 1 <= xp <= 3
    assert all(1 <= t <= 2 for t in g.theta)


def test_entropy_degenerate_zero_degree():
    # All roots isolated: J1 = H(P) = 0 (single atom, no edges).
    marks = np.ones(1000, dtype=np.int64)
    counts = np.zeros((1000, 4), dtype=np.int64)
    assert _j1_from_counts(marks, counts) == 0.0


def test_entropy_seed_consistency():
    e1, s1 = estimate_bc_entropy_h1(3.0, 2, 2, 20000, seed=1)
    e2, s2 = estimate_bc_entropy_h1(3.0, 2, 2, 20000, seed=2)
    assert abs(e1 - e2) <= 3 * (s1 + s2) + 0.05


def test_entropy_variance_shrinks_with_samples():
    small = [estimate_bc_entropy_h1(3.0, 2, 2, 2000, seed=s)[0] for s in range(6)]
    large = [estimate_bc_entropy_h1(3.0, 2, 2, 50000, seed=s)[0] for s in range(6)]
    assert np.std(large) < np.std(small)


def test_entropy_matches_closed_form_unmarked_limit():
    # For |xi| = |theta| = 1 the depth-1 functional reduces to a closed
    # form in the degree distribution; check against it at high samples.
    import math
    lam = 1.5
    d = 2 * lam
    est, se = estimate_bc_entropy_h1(lam, 1, 1, 200000, seed=3)
    # exact: -s(d) + H(Poi(d)) - (d/2)*log(1) - E[log D!]
    ks = np.arange(0, 60)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 60)))])
    pk = np.exp(-d + ks * math.log(d) - logfact)
    h_poi = float(-(pk[pk > 0] * np.log(pk[pk > 0])).sum())
    elogf = float((pk * logfact).sum())
    exact = -(d / 2 - d / 2 * math.log(d)) + h_poi - elogf
    assert abs(est - exact) < 0.02


def test_count_key_matches_lambda_canonicalization():
    # The estimator keys neighborhoods by (root mark, category counts);
    # that must induce the same partition as canonical labels.
    rng = np.random.Generator(np.random.PCG64(5))
    sigma_e = sigma_v = 2
    ncat = sigma_e * sigma_e * sigma_v
    seen = {}
    for _ in range(400):
        mark = int(rng.integers(1, sigma_v + 1))
        deg = int(rng.poisson(3))
        cats = [int(c) for c in rng.integers(0, ncat, size=deg)]
        counts = tuple(cats.count(c) for c in range(ncat))
        children = []
        for c in cats:
            x = c // (sigma_e * sigma_v) + 1
            rest = c % (sigma_e * sigma_v)
            xp = rest // sigma_v + 1
            cm = rest % sigma_v + 1
            # toward-child mark xp, toward-root mark x, child of mark cm
            children.append((xp, x, MarkedTree(mark=cm)))
        lam = lambda_canonical(1, 1, MarkedTree(mark=mark, children=tuple(children)),
                               delta=10**9)
        key = (mark,) + counts
        assert seen.setdefault(key, lam) == lam
        assert seen.setdefault(lam, key) == key
