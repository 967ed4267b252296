"""Overlay evaluation on the cached batch equals a fresh Monte Carlo run.

``Session.evaluate_pairs(pairs, extra_edges)`` answers a candidate
overlay by extending the session's cached ``(Z, seed)`` world batch with
one keyed coin row per overlay edge.  Keyed coins make that batch the
one a fresh ``MonteCarloEstimator(Z, seed)`` samples over the merged
plan, so every value must be ``==`` to
``make_estimator("mc", Z, seed=seed).reliability_many(graph, pairs,
extra)`` — on every batch tier (sampled, repaired after an edit,
memory-mapped from the store) and with the sanitizer on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerError
from repro.api import GraphDelta, Session
from repro.engine import (
    coin_base,
    compile_plan,
    edge_coin_rows,
    extend_with_overlay,
    sample_worlds_keyed,
)
from repro.graph import assign_uniform, erdos_renyi
from repro.index import IndexStore
from repro.reliability import make_estimator

Z = 700  # not a multiple of 64: pad bits stay exercised
SEED = 13


def make_graph(directed: bool = False):
    graph = erdos_renyi(60, num_edges=120, seed=4, directed=directed)
    return assign_uniform(graph, 0.1, 0.7, seed=4)


def overlays(graph):
    """Missing-edge candidates, a stacked edge and an unknown endpoint."""
    u, v, _ = next(iter(graph.edges()))
    missing = [(a, b, 0.5) for a, b in ((0, 7), (3, 41), (12, 55), (20, 33))
               if not graph.has_edge(a, b)]
    return {
        "missing": missing,
        "stacked": [(u, v, 0.5), (v, u, 0.3), *missing[:1]],
        "outside": [(0, 999, 0.6), (999, 31, 0.6), (5, 1000, 0.4)],
    }


PAIRS = [(0, 31), (3, 55), (0, 7), (12, 12), (0, 999), (999, 31), (5, 4242)]


def fresh(graph, extra):
    return make_estimator("mc", Z, seed=SEED).reliability_many(
        graph, PAIRS, extra
    )


def assert_parity(session, graph):
    for extra in overlays(graph).values():
        assert session.evaluate_pairs(PAIRS, extra, Z, SEED) == fresh(
            graph, extra
        )


@pytest.mark.parametrize("directed", [False, True])
def test_matches_fresh_estimator(directed):
    graph = make_graph(directed)
    session = Session(graph, seed=SEED)
    assert_parity(session, graph)
    # The overlay rows were new; the base batch was sampled once.
    assert list(session._worlds) == [(Z, SEED)]


def test_positive_values_exercised():
    graph = make_graph()
    values = Session(graph).evaluate_pairs(
        PAIRS, overlays(graph)["outside"], Z, SEED
    )
    assert values[3] == 1.0 and values[-1] == 0.0
    assert 0.0 < values[4] < 1.0


def test_after_apply_delta():
    graph = make_graph()
    session = Session(graph, seed=SEED)
    session.evaluate_pairs(PAIRS, None, Z, SEED)  # cache the batch
    u, v, p = next(iter(graph.edges()))
    report = session.apply_delta(GraphDelta(
        upserts=((u, v, min(p + 0.2, 1.0)), (0, 58, 0.9)),
    ))
    assert report.repaired_batches == 1
    assert_parity(session, graph)


def test_store_backed_mmap_batch(tmp_path):
    graph = make_graph()
    with IndexStore(tmp_path / "store") as store:
        Session(graph, seed=SEED, store=store).evaluate_pairs(
            PAIRS, None, Z, SEED
        )
    with IndexStore(tmp_path / "store") as store:
        session = Session(graph, seed=SEED, store=store)
        batch, _, source = session.world_batch(Z, SEED)
        assert source == "store"
        assert not batch.alive.flags.writeable
        before = store.counters.as_dict()
        assert_parity(session, graph)
        # Overlay values neither read nor write the result cache.
        assert store.counters.as_dict() == before


def test_under_sanitizer():
    graph = make_graph()
    sanitize.enable()
    try:
        assert_parity(Session(graph, seed=SEED), graph)
        with pytest.raises(SanitizerError):
            Session(graph, seed=SEED).evaluate_pairs(
                [(0, 31)], [(0, 7, 1.5)], Z, SEED
            )
    finally:
        sanitize.reset()


def test_edge_coin_rows_match_full_batch():
    graph = make_graph()
    plan = compile_plan(graph)
    merged = extend_with_overlay(plan, overlays(graph)["stacked"])
    base = coin_base(np.random.default_rng(SEED))
    full = sample_worlds_keyed(merged, Z, base).alive
    ids = [3, 0, merged.num_edges - 1, plan.num_edges]
    assert np.array_equal(edge_coin_rows(merged, ids, base, Z), full[ids])
