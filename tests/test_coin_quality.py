"""Statistical quality of the identity-keyed coins.

Parity tests compare dispatch paths that share one coin sampler, so a
biased or correlated sampler would pass all of them.  These tests look
at the coins themselves — :func:`repro.engine.sample_worlds_keyed` and
:func:`repro.engine.edge_coin_row`:

* **Frequency.**  Per probability bucket, the per-edge hit counts pass a
  two-sided chi-square test against ``Binomial(Z, p)``.
* **Independence.**  The rate at which two coins are both set matches
  ``p**2`` for adjacent sample indices of one edge, for consecutive
  ordinals of one stacked edge key, and for neighbouring keys.
* **Nesting.**  Raising an edge's probability only ever adds worlds.
* **Identity.**  ``edge_coin_row`` equals the matching row of a full
  ``sample_worlds_keyed`` batch.

Every statistical assertion has a false-failure budget of at most
``DELTA = 1e-6``.  Pair rates use disjoint coin pairs, so each is a mean
of independent Bernoulli draws under the null and Hoeffding's bound
holds exactly.  The chi-square test splits ``DELTA`` over its two tails;
its statistic is chi-square with an even number of degrees of freedom
up to the normal approximation of each ``Binomial(Z, p)`` count, which
is close at ``Z p (1 - p) >= 190`` as used here.

Coins are the top 24 bits of a hash compared against ``float32(p)``, so
an edge's exact coin probability is ``ceil(float32(p) * 2**24) / 2**24``
(:func:`exact_p`); the tests use that value, not ``p``.

The seeds below were fixed before the suite first ran; a failure is a
defect to fix, never a reason to pick other seeds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import (
    compile_plan,
    edge_coin_row,
    extend_with_overlay,
    sample_worlds_keyed,
    unpack_bool_matrix,
)
from repro.graph import UncertainGraph

DELTA = 1e-6
Z = 4096
BUCKETS = (0.05, 0.2, 0.5, 0.8, 0.95)
EDGES_PER_BUCKET = 200  # even: the chi-square tail below needs it

#: Coin key roots, fixed before the first run (see the module docstring).
SEEDS = {"frequency": 0x5EED_0001, "pairs": 0x5EED_0002,
         "ordinals": 0x5EED_0003, "nesting": 0x5EED_0004,
         "identity": 0x5EED_0005}


def exact_p(p: float) -> float:
    """Probability that one keyed coin is set at edge probability ``p``."""
    return math.ceil(float(np.float32(p)) * 2**24) / 2**24


def hoeffding_eps(n: int, delta: float = DELTA) -> float:
    """Two-sided Hoeffding radius of a mean of ``n`` draws in [0, 1]."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def chi2_tails(stat: float, dof: int) -> tuple:
    """``(P[X <= stat], P[X >= stat])`` for chi-square with even ``dof``.

    Exact for even ``dof``: the upper tail is the Poisson sum
    ``exp(-y) * sum_{i < dof/2} y**i / i!`` with ``y = stat / 2``.
    """
    assert dof % 2 == 0
    y = stat / 2.0
    terms = [i * math.log(y) - y - math.lgamma(i + 1) for i in range(dof // 2)]
    top = max(terms)
    upper = math.exp(top) * sum(math.exp(t - top) for t in terms)
    return 1.0 - upper, upper


def bucket_graph() -> UncertainGraph:
    """``len(BUCKETS) * EDGES_PER_BUCKET`` edges; bucket = edge id % 5."""
    graph = UncertainGraph(directed=True)
    count = len(BUCKETS) * EDGES_PER_BUCKET
    for i in range(count):
        graph.add_edge(i, i + 1, 0.5)
    plan = compile_plan(graph)
    for eid in range(count):
        u, v = int(plan.edge_u[eid]), int(plan.edge_v[eid])
        graph.set_probability(u, v, BUCKETS[eid % len(BUCKETS)])
    return graph


def coin_bits(plan, seed: int) -> np.ndarray:
    batch = sample_worlds_keyed(plan, Z, np.uint64(seed))
    return unpack_bool_matrix(batch.alive, Z)


def test_chi2_tail_helper_is_exact():
    # dof 2: P[X >= x] = exp(-x / 2).
    assert chi2_tails(3.0, 2)[1] == pytest.approx(math.exp(-1.5), rel=1e-12)
    low, high = chi2_tails(200.0, 200)
    assert low + high == pytest.approx(1.0)
    assert 0.4 < high < 0.6


@pytest.mark.parametrize("bucket", range(len(BUCKETS)))
def test_per_edge_frequency_chi_square(bucket):
    plan = compile_plan(bucket_graph())
    bits = coin_bits(plan, SEEDS["frequency"])
    rows = bits[bucket::len(BUCKETS)]
    p = exact_p(BUCKETS[bucket])
    assert bool(np.all(plan.probs[bucket::len(BUCKETS)] == BUCKETS[bucket]))
    counts = rows.sum(axis=1)
    expected = Z * p
    stat = float(((counts - expected) ** 2).sum() / (expected * (1.0 - p)))
    low, high = chi2_tails(stat, len(rows))
    assert low > DELTA / 2 and high > DELTA / 2, (stat, low, high)
    # The bucket's overall frequency, with an exact Hoeffding radius.
    assert abs(rows.mean() - p) <= hoeffding_eps(rows.size)


def both_set_rate_ok(a: np.ndarray, b: np.ndarray, p: float) -> bool:
    """``a & b`` rate against ``p**2``; pairs must be disjoint draws."""
    rate = float((a & b).mean())
    return abs(rate - p * p) <= hoeffding_eps(a.size)


@pytest.mark.parametrize("bucket", range(len(BUCKETS)))
@pytest.mark.parametrize("offset", [0, 1])
def test_adjacent_sample_indices_uncorrelated(bucket, offset):
    """Coins ``j`` and ``j + 1`` of one edge (both word alignments)."""
    plan = compile_plan(bucket_graph())
    rows = coin_bits(plan, SEEDS["pairs"])[bucket::len(BUCKETS)]
    width = (Z - offset) // 2 * 2
    window = rows[:, offset:offset + width]
    assert both_set_rate_ok(
        window[:, 0::2], window[:, 1::2], exact_p(BUCKETS[bucket])
    )


def stacked_plan(p: float, copies: int):
    """One base edge plus ``copies`` overlay edges stacked on its key,
    and ``copies`` neighbouring keys ``(0, 2 + i)``."""
    graph = UncertainGraph(directed=True)
    graph.add_edge(0, 1, p)
    overlay = [(0, 1, p)] * copies + [(0, 2 + i, p) for i in range(copies)]
    return extend_with_overlay(compile_plan(graph), overlay)


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_ordinals_and_neighbouring_keys_uncorrelated(p):
    copies = 255
    plan = stacked_plan(p, copies)
    assert list(plan.edge_ordinal[:copies + 1]) == list(range(copies + 1))
    bits = coin_bits(plan, SEEDS["ordinals"])
    q = exact_p(p)
    stacked = bits[:copies + 1]  # ordinals 0..copies of key (0, 1)
    assert both_set_rate_ok(stacked[0::2], stacked[1::2], q)
    keys = bits[copies + 1:copies + 1 + copies - 1]  # keys (0, 2..)
    assert both_set_rate_ok(keys[0::2], keys[1::2], q)
    # Ordinal 0 against each key's first neighbour in edge-id order.
    assert both_set_rate_ok(stacked[1:], bits[copies + 1:], q)


def test_raising_probability_only_adds_worlds():
    graph = UncertainGraph(directed=True)
    for i in range(300):
        graph.add_edge(i, i + 1, 0.0)
    plan = compile_plan(graph)
    seed = np.uint64(SEEDS["nesting"])
    previous = None
    for p in (0.0, 0.01, 0.1, 0.3, 0.30000001, 0.5, 0.9, 0.999, 1.0):
        for u, v, _ in list(graph.edges()):
            graph.set_probability(u, v, p)
        alive = sample_worlds_keyed(compile_plan(graph), Z, seed).alive
        if previous is not None:
            assert not bool(np.any(previous & ~alive))
        previous = alive
    valid = sample_worlds_keyed(plan, Z, seed).valid
    assert bool(np.all(previous == valid))  # p = 1: every world


def test_edge_coin_row_matches_full_batch():
    graph = UncertainGraph()
    for i in range(40):
        graph.add_edge(i, i + 1 + (7 * i) % 13, 0.05 + 0.9 * (i % 10) / 9)
    base = compile_plan(graph)
    plan = extend_with_overlay(base, [(1, 2, 0.4), (2, 1, 0.6), (5, 99, 0.3)])
    seed = np.uint64(SEEDS["identity"])
    for z in (1, 64, 1000):
        alive = sample_worlds_keyed(plan, z, seed).alive
        for eid in range(plan.num_edges):
            row = edge_coin_row(
                seed, int(plan.edge_u[eid]), int(plan.edge_v[eid]),
                int(plan.edge_ordinal[eid]), float(plan.probs[eid]), z,
            )
            assert np.array_equal(row, alive[eid]), (z, eid)
