"""Tests for the batch sampling engine and the estimators built on it.

Kernel primitives, plan compilation and the fused sweeps are pinned
bit for bit; estimates are checked against exact values within Monte
Carlo tolerance.  The Hoeffding-bounded accuracy of every sampler lives
in ``tests/test_estimator_accuracy.py``.
"""

import pytest

from repro.engine import (
    VectorizedSamplingEngine,
    build_query_plan,
    compile_plan,
    extend_with_overlay,
    num_words,
    pack_bool_matrix,
    popcount,
    valid_sample_mask,
)
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.reliability import (
    BFSSharingIndex,
    RecursiveStratifiedSampler,
    exact_reliability,
)

import numpy as np


@pytest.fixture
def medium_graph():
    g = erdos_renyi(30, num_edges=60, seed=3)
    return assign_uniform(g, 0.1, 0.9, seed=4)


class TestKernelPrimitives:
    def test_num_words(self):
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
        assert num_words(1000) == 16

    def test_pack_roundtrip_via_popcount(self):
        rng = np.random.default_rng(0)
        for z in (1, 7, 64, 100, 129):
            bools = rng.random((5, z)) < 0.5
            words = pack_bool_matrix(bools, z)
            assert words.shape == (5, num_words(z))
            counts = popcount(words).sum(axis=1)
            assert counts.tolist() == bools.sum(axis=1).tolist()

    def test_valid_mask_counts_z_bits(self):
        for z in (1, 63, 64, 65, 1000):
            assert int(popcount(valid_sample_mask(z)).sum()) == z

    def test_pad_bits_are_zero(self):
        words = pack_bool_matrix(np.ones((1, 70), dtype=bool), 70)
        assert int(popcount(words).sum()) == 70


class TestCSRCompilation:
    def test_cache_hit_until_mutation(self, diamond):
        first = compile_plan(diamond)
        assert compile_plan(diamond) is first
        diamond.add_edge(1, 2, 0.5)
        second = compile_plan(diamond)
        assert second is not first
        assert second.num_edges == first.num_edges + 1

    def test_version_bumps_on_mutations(self, diamond):
        v = diamond.version
        diamond.add_node(99)
        assert diamond.version > v
        v = diamond.version
        diamond.set_probability(0, 1, 0.9)
        assert diamond.version > v
        v = diamond.version
        diamond.remove_edge(0, 1)
        assert diamond.version > v

    def test_undirected_edges_share_one_coin_id(self, diamond):
        plan = compile_plan(diamond)
        assert plan.num_edges == 4
        assert plan.arc_src.shape[0] == 8  # two arcs per undirected edge
        assert plan.edge_index[(0, 1)] == (0,)

    def test_overlay_extends_without_touching_base(self, diamond):
        base = compile_plan(diamond)
        merged = extend_with_overlay(base, [(0, 3, 0.5), (3, 77, 0.2)])
        assert base.num_edges == 4
        assert merged.num_edges == 6
        assert merged.num_nodes == base.num_nodes + 1  # node 77 interned
        assert merged.node_index(77) is not None
        assert base.node_index(77) is None
        # base stays cached and untouched
        assert compile_plan(diamond) is base

    def test_empty_overlay_returns_base(self, diamond):
        base = compile_plan(diamond)
        assert build_query_plan(diamond, None) is base
        assert build_query_plan(diamond, []) is base


class TestEngineAgainstExact:
    def test_diamond(self, diamond):
        truth = exact_reliability(diamond, 0, 3)
        est = VectorizedSamplingEngine(seed=1).reliability(diamond, 0, 3, 8000)
        assert est == pytest.approx(truth, abs=0.03)

    def test_directed(self, directed_diamond):
        truth = exact_reliability(directed_diamond, 0, 3)
        eng = VectorizedSamplingEngine(seed=2)
        assert eng.reliability(directed_diamond, 0, 3, 8000) == pytest.approx(
            truth, abs=0.03
        )
        assert eng.reliability(directed_diamond, 3, 0, 2000) == 0.0

    def test_deterministic_given_seed(self, medium_graph):
        a = VectorizedSamplingEngine(seed=7).reliability(medium_graph, 0, 29, 300)
        b = VectorizedSamplingEngine(seed=7).reliability(medium_graph, 0, 29, 300)
        assert a == b

    def test_z_not_word_aligned(self, diamond):
        truth = exact_reliability(diamond, 0, 3)
        est = VectorizedSamplingEngine(seed=3).reliability(diamond, 0, 3, 7001)
        assert est == pytest.approx(truth, abs=0.03)


class TestEstimatorsOnEngine:
    """Engine-backed estimators against exact values and edge cases."""

    def test_rss_reachability_against_exact(self, diamond):
        vec = RecursiveStratifiedSampler(2000, seed=2).reachability_from(
            diamond, 0
        )
        for node in (1, 2, 3):
            truth = exact_reliability(diamond, 0, node)
            assert vec[node] == pytest.approx(truth, abs=0.05)

    def test_bfs_sharing_node_added_after_build(self, diamond):
        # Nodes added after the snapshot are isolated in every stored
        # world; the index must degrade gracefully, not crash.
        index = BFSSharingIndex(diamond, num_samples=100, seed=3)
        diamond.add_node(7)
        assert index.reliability(diamond, 7, 3) == 0.0
        assert index.reliability(diamond, 0, 7) == 0.0
        assert index.reachability_from(diamond, 7) == {7: 1.0}
        assert index.pair_reliabilities(diamond, [(7, 3), (0, 7)]) == {
            (7, 3): 0.0,
            (0, 7): 0.0,
        }

    def test_bfs_sharing_overlay_deterministic(self, diamond):
        index = BFSSharingIndex(diamond, num_samples=2000, seed=2)
        overlay = [(0, 3, 0.5)]
        first = index.reliability(diamond, 0, 3, overlay)
        assert index.reliability(diamond, 0, 3, overlay) == first
        base = index.reliability(diamond, 0, 3)
        expected = base + (1 - base) * 0.5
        assert first == pytest.approx(expected, abs=0.04)

    def test_session_evaluate_pairs(self, diamond):
        from repro.api import Session

        values = Session(diamond, evaluation_samples=6000).evaluate_pairs(
            [(0, 3), (0, 1)]
        )
        assert len(values) == 2
        assert values[0] == pytest.approx(
            exact_reliability(diamond, 0, 3), abs=0.03
        )


class TestOverlayAndEdgeCases:
    @pytest.fixture
    def engine(self):
        return VectorizedSamplingEngine(seed=11)

    def test_overlay_edge_counted(self, engine):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        est = engine.reliability(g, 0, 1, 8000, [(0, 1, 0.4)])
        assert est == pytest.approx(0.4, abs=0.03)

    def test_overlay_undirected_semantics(self, engine):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_node(2)
        # Overlay edge (1, 0) must also carry 0 -> 1 traffic.
        est = engine.reliability(g, 0, 2, 8000, [(1, 0, 0.8), (1, 2, 0.8)])
        assert est == pytest.approx(0.64, abs=0.03)

    def test_overlay_through_unknown_node(self, engine):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        # Node 99 exists only in the overlay but may relay traffic.
        est = engine.reliability(g, 0, 1, 8000, [(0, 99, 0.8), (99, 1, 0.8)])
        assert est == pytest.approx(0.64, abs=0.03)

    def test_source_equals_target(self, engine, diamond):
        assert engine.reliability(diamond, 1, 1, 10) == 1.0

    def test_missing_nodes(self, engine, diamond):
        assert engine.reliability(diamond, 0, 42, 10) == 0.0
        assert engine.reliability(diamond, 42, 0, 10) == 0.0

    def test_disconnected(self, engine):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.9)
        g.add_edge(2, 3, 0.9)
        assert engine.reliability(g, 0, 3, 500) == 0.0

    def test_certain_and_impossible_edges(self, engine):
        certain = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert engine.reliability(certain, 0, 2, 50) == 1.0
        impossible = UncertainGraph.from_edges([(0, 1, 0.0)])
        assert engine.reliability(impossible, 0, 1, 200) == 0.0

    def test_edgeless_graph(self, engine):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        assert engine.reliability(g, 0, 1, 100) == 0.0
        assert engine.reachability_from(g, 0, 100) == {0: 1.0}

    def test_reachability_missing_source(self, engine, diamond):
        assert engine.reachability_from(diamond, 42, 10) == {}

    def test_reliability_many_empty(self, engine, diamond):
        assert engine.reliability_many(diamond, [], 10) == []

    def test_reliability_many_with_overlay(self, engine, diamond):
        pairs = [(0, 3), (1, 2)]
        with_edge = engine.reliability_many(diamond, pairs, 8000, [(0, 3, 1.0)])
        assert with_edge[0] == 1.0  # certain overlay edge closes the pair
        without = engine.reliability_many(diamond, pairs, 8000)
        assert without[0] == pytest.approx(
            exact_reliability(diamond, 0, 3), abs=0.03
        )


class TestMultiSourceFusedSweep:
    """batch_reach_multi: S independent BFS sweeps fused into one pass."""

    @pytest.mark.parametrize("z", [17, 64, 256, 1000])
    def test_bitwise_parity_with_per_source_sweeps(self, medium_graph, z):
        from repro.engine import batch_reach, batch_reach_multi, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(5))
        sources = [0, 7, 13, 29]
        fused = batch_reach_multi(plan, batch, sources)
        assert fused.shape == (plan.num_nodes, len(sources), num_words(z))
        for i, src in enumerate(sources):
            single = batch_reach(plan, batch, [src])
            assert np.array_equal(fused[:, i], single)

    def test_empty_sources(self, medium_graph):
        from repro.engine import batch_reach_multi, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, 64, np.random.default_rng(5))
        assert batch_reach_multi(plan, batch, []).shape == (plan.num_nodes, 0, 1)

    def test_edgeless_graph(self):
        from repro.engine import batch_reach_multi, sample_worlds

        g = UncertainGraph()
        for node in range(4):
            g.add_node(node)
        plan = compile_plan(g)
        batch = sample_worlds(plan, 64, np.random.default_rng(5))
        reached = batch_reach_multi(plan, batch, [0, 2])
        assert int(popcount(reached[0, 0]).sum()) == 64  # own source row
        assert int(popcount(reached[1, 0]).sum()) == 0

    @pytest.mark.parametrize("z", [64, 256, 1024, 4096])
    def test_bitwise_parity_across_widths_and_gating(self, medium_graph, z):
        """Gated, full-width fused, auto-dispatched and per-source
        sweeps agree bit for bit across the full width range
        (W = 1 .. 64)."""
        from repro.engine import batch_reach, batch_reach_multi, sample_worlds
        from repro.engine.kernel import (
            _reach_multi_full_width,
            _reach_multi_gated,
        )

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(11))
        sources = [0, 3, 7, 13, 21, 29]
        gated = _reach_multi_gated(plan, batch, sources)
        full_width = _reach_multi_full_width(plan, batch, sources)
        auto = batch_reach_multi(plan, batch, sources)
        for i, src in enumerate(sources):
            single = batch_reach(plan, batch, [src])
            assert np.array_equal(gated[:, i], single), (z, src)
            assert np.array_equal(full_width[:, i], single), (z, src)
            assert np.array_equal(auto[:, i], single), (z, src)

    @pytest.mark.parametrize("z", [64, 128, 1000])
    @pytest.mark.parametrize("cached", [False, True])
    def test_pair_hit_fractions_same_on_every_dispatch_path(
        self, medium_graph, z, cached
    ):
        # Z=64 fuses full-width, 128 and 1000 fuse gated; with a reach
        # cache the second call answers from cached fixpoints.  Every
        # path must agree with independent single-pair answers.
        from repro.engine import pair_hit_fractions, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(6))
        pairs = [(0, 10), (7, 20), (13, 5), (0, 25), (2, 2), (0, 999)]
        cache = {} if cached else None
        values = pair_hit_fractions(plan, batch, pairs, z, reach_cache=cache)
        if cached:
            assert sorted(cache) == sorted(
                plan.node_index(s) for s in (0, 7, 13, 2)
            )
            assert all(rows.flags.c_contiguous for rows in cache.values())
            again = pair_hit_fractions(
                plan, batch, pairs, z, reach_cache=cache
            )
            assert again == values
        assert values[(2, 2)] == 1.0
        assert values[(0, 999)] == 0.0
        for pair in [(0, 10), (7, 20), (13, 5), (0, 25)]:
            solo = pair_hit_fractions(plan, batch, [pair], z)
            assert values[pair] == solo[pair], (pair, cached)

    def test_reach_per_source_chunks_by_word_budget(
        self, medium_graph, monkeypatch
    ):
        """Sources beyond one fused group's word budget split into
        further passes; a lone leftover source runs plain batch_reach."""
        import repro.engine.batch as batch_module
        from repro.engine import batch_reach, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, 128, np.random.default_rng(2))
        sources = [0, 3, 7, 13, 21]
        group_words = plan.num_nodes * batch.num_words
        monkeypatch.setattr(
            batch_module, "_MULTI_SOURCE_WORD_BUDGET", 2 * group_words
        )
        calls = []

        def recording(name):
            real = getattr(batch_module, name)

            def sweep(p, b, srcs):
                calls.append((name, list(srcs)))
                return real(p, b, srcs)

            return sweep

        for name in ("batch_reach", "batch_reach_multi"):
            monkeypatch.setattr(batch_module, name, recording(name))
        rows = list(batch_module.reach_per_source(plan, batch, sources))
        assert calls == [
            ("batch_reach_multi", [0, 3]),
            ("batch_reach_multi", [7, 13]),
            ("batch_reach", [21]),
        ]
        for src, got in zip(sources, rows):
            assert got.flags.c_contiguous
            assert np.array_equal(got, batch_reach(plan, batch, [src]))
