"""Mutation-parity suite: streaming deltas vs cold recomputation.

The streaming-update contract (`Session.apply_delta`) promises that a
live session that absorbs :class:`~repro.api.GraphDelta` edits by
*repairing* its cached world batches answers every query **bit-for-bit**
identically to a cold session built directly on the post-delta graph.
This suite pins that contract property-based (random graphs x random
edit sequences x random batch shapes), across every registry estimator,
and through the store-backed tier — plus the two metamorphic laws the
keyed coin scheme makes checkable:

* raising an edge probability never shrinks any world's reached set
  (nested coin thresholds + monotone reachability);
* deleting an edge and re-inserting it at the same probability restores
  that edge's exact coin rows (identity-keyed counters).

The suite must pass under plain pytest, under ``REPRO_SANITIZE=1``, and
under an ambient ``REPRO_FAULTS`` latency profile — when the
``session.delta.apply`` seam fires, the session falls back to
evict-and-recompute, which changes cost but never answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GraphDelta, ReliabilityQuery, Session, Workload
from repro.engine import (
    batch_reach,
    batch_to_words,
    coin_base,
    compile_plan,
    repair_batch,
    sample_worlds_keyed,
)
from repro.graph import UncertainGraph
from repro.reliability import estimator_names

from strategies import batch_shapes, edit_ops, resolve_delta, small_uncertain_graphs


def _query_values(session, samples, seed, estimator="mc"):
    """Exact values of a fixed fan-out workload on the session's graph."""
    nodes = sorted(session.graph.nodes())
    queries = [
        ReliabilityQuery(
            s, targets=tuple(t for t in nodes if t != s),
            estimator=estimator, samples=samples, seed=seed,
        )
        for s in nodes[:3]
    ]
    results = session.run(Workload(queries))
    return [value for r in results for (_, _), value in r.pairs]


class TestEditSequenceParity:
    """Random edit sequences through apply_delta == cold session."""

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=small_uncertain_graphs(max_nodes=6, directed=True),
        ops_seq=st.lists(edit_ops(max_node=7, max_ops=4), min_size=1, max_size=3),
        shape=batch_shapes(max_samples=256),
    )
    def test_bit_for_bit_vs_cold_session(self, graph, ops_seq, shape):
        samples, seed = shape
        warm = Session(graph.copy(), seed=3)
        _query_values(warm, samples, seed)  # populate batch + reach caches
        for ops in ops_seq:
            delta = resolve_delta(warm.graph, ops)
            if delta.num_edits == 0:
                continue
            report = warm.apply_delta(delta)
            assert report.strategy in ("repair", "evict")
            assert report.content_hash == warm.graph.content_hash()
            _query_values(warm, samples, seed)  # keep caches warm between edits
        cold = Session(warm.graph.copy(), seed=3)
        assert _query_values(warm, samples, seed) == _query_values(
            cold, samples, seed
        )

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=small_uncertain_graphs(max_nodes=5),
        ops=edit_ops(max_node=6, max_ops=5),
    )
    def test_undirected_graphs_repair_exactly(self, graph, ops):
        delta = resolve_delta(graph, ops)
        if delta.num_edits == 0:
            return
        warm = Session(graph.copy(), seed=9)
        _query_values(warm, 192, 21)
        warm.apply_delta(delta)
        cold = Session(warm.graph.copy(), seed=9)
        assert _query_values(warm, 192, 21) == _query_values(cold, 192, 21)


class TestEstimatorParity:
    """The parity contract holds for every registered estimator."""

    @pytest.mark.filterwarnings(
        "ignore:estimator 'adaptive':UserWarning"
    )
    @pytest.mark.parametrize("estimator", estimator_names())
    def test_registry_estimator(self, estimator):
        graph = UncertainGraph.from_edges(
            [(0, 1, 0.8), (1, 2, 0.5), (0, 2, 0.3), (2, 3, 0.6), (1, 3, 0.4)]
        )
        warm = Session(graph.copy(), seed=5)
        _query_values(warm, 128, 17, estimator=estimator)
        warm.apply_delta(GraphDelta(
            upserts=((0, 1, 0.95), (3, 4, 0.5)), deletes=((0, 2),)
        ))
        cold = Session(warm.graph.copy(), seed=5)
        assert _query_values(warm, 128, 17, estimator=estimator) == \
            _query_values(cold, 128, 17, estimator=estimator)


class TestStoreTierParity:
    """Repaired batches are rekeyed under the new content hash on disk."""

    def test_persist_back_and_warm_restart(self, tmp_path):
        from repro.index import IndexStore

        graph = UncertainGraph.from_edges(
            [(0, 1, 0.8), (1, 2, 0.5), (0, 2, 0.3), (2, 3, 0.6)]
        )
        store = IndexStore(tmp_path / "idx")
        warm = Session(graph.copy(), seed=7, store=store)
        _query_values(warm, 256, 11)
        report = warm.apply_delta(GraphDelta(
            upserts=((1, 2, 0.9),), deletes=((0, 2),)
        ))
        assert report.strategy == "repair"
        assert report.repaired_batches >= 1
        assert report.persisted_batches == report.repaired_batches
        warm_values = _query_values(warm, 256, 11)
        final = warm.graph.copy()
        store.close()

        # A fresh session over the same store must find the repaired
        # batch filed under the *new* content hash and answer
        # identically ...
        restarted_store = IndexStore(tmp_path / "idx")
        assert any(
            row["graph_hash"] == final.content_hash()
            for row in restarted_store.list_batches()
        )
        restarted = Session(final.copy(), seed=7, store=restarted_store)
        restarted_values = _query_values(restarted, 256, 11)
        # A query no persisted *result* answers must load the repaired
        # batch from disk rather than resampling.
        fresh_query = [
            Session.run(restarted, Workload([ReliabilityQuery(
                3, targets=(0, 1, 2), samples=256, seed=11,
            )]))[0].pairs
        ]
        assert restarted_store.stats().counters.batch_hits >= 1
        restarted_store.close()
        # ... and to what a storeless cold session computes.
        cold = Session(final.copy(), seed=7)
        assert warm_values == restarted_values == _query_values(cold, 256, 11)
        assert fresh_query == [
            cold.run(Workload([ReliabilityQuery(
                3, targets=(0, 1, 2), samples=256, seed=11,
            )]))[0].pairs
        ]


class TestMetamorphic:
    """Structural laws of the identity-keyed coin scheme."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=small_uncertain_graphs(max_nodes=6, directed=True),
        shape=batch_shapes(max_samples=192),
        raised=st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_raising_probability_never_shrinks_world_reach(
        self, graph, shape, raised, pick
    ):
        edges = list(graph.edges())
        if not edges:
            return
        samples, seed = shape
        u, v, p = edges[pick % len(edges)]
        new_p = max(p, raised)  # monotone-increasing edit by construction
        plan_old = compile_plan(graph)
        base = coin_base(np.random.default_rng(seed))
        batch_old = sample_worlds_keyed(plan_old, samples, base)
        bumped = graph.copy()
        bumped.set_probability(u, v, new_p)
        plan_new = compile_plan(bumped)
        batch_new, changes = repair_batch(plan_new, plan_old, batch_old, base)
        for change in changes:
            assert not change.removed.any()  # raised p: strict coin superset
        for node in sorted(graph.nodes()):
            reach_old = batch_reach(plan_old, batch_old,
                                    [plan_old.node_index(node)])
            reach_new = batch_reach(plan_new, batch_new,
                                    [plan_new.node_index(node)])
            assert not np.any(reach_old & ~reach_new)

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=small_uncertain_graphs(max_nodes=6),
        shape=batch_shapes(max_samples=192),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_delete_then_reinsert_restores_exact_coin_rows(
        self, graph, shape, pick
    ):
        edges = list(graph.edges())
        if not edges:
            return
        samples, seed = shape
        u, v, p = edges[pick % len(edges)]
        session = Session(graph.copy(), seed=13)
        _query_values(session, samples, seed)
        original = {
            key: batch_to_words(batch).copy()
            for key, (batch, _) in session._worlds.items()
        }
        session.apply_delta(GraphDelta(deletes=((u, v),)))
        session.apply_delta(GraphDelta(upserts=((u, v, p),)))
        assert session.graph.content_hash() == graph.content_hash()
        for key, words in original.items():
            cached = session._worlds.get(key)
            if cached is None:
                continue  # eviction fallback (e.g. fault seam fired)
            assert np.array_equal(batch_to_words(cached[0]), words)
