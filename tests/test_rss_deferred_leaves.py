"""Deferred RSS leaves equal one batch and one sweep per leaf.

:class:`~repro.reliability.RecursiveStratifiedSampler` records every
Monte Carlo leaf of its stratification and answers them all from one
multi-block keyed batch and one sweep.  The oracle below is the eager
recursion it replaced: each leaf samples its own pinned batch from the
estimator's generator (``sample_worlds(plan, Z, rng, [(Z, pins)])``),
sweeps it on its own and is folded into the estimate on the spot.
Every estimate must be ``==`` to the oracle's — not approximately — over
a sequence of calls on one estimator, so the generator streams stay
aligned too.  The suite also checks that its cases really exercise
leaf sizes that are not a multiple of 64, leaves wider than one word,
depth-limit leaves and pins on a key shared by stacked overlay edges.

Seeds are fixed here and never re-chosen.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.engine import (
    VectorizedSamplingEngine,
    batch_reach,
    build_query_plan,
    coin_base,
    compile_plan,
    extract_world_columns,
    hit_fraction,
    popcount,
    reach_counts_dict,
    sample_worlds,
    sample_worlds_keyed,
)
from repro.graph import assign_uniform, erdos_renyi
from repro.reliability import RecursiveStratifiedSampler, build_overlay
from repro.reliability.rss import _Adjacency

SEED = 23

#: (num_samples, num_stratify_edges, mc_threshold, max_depth): default
#: knobs; wide leaves (thresholds above 64 worlds); a depth limit that
#: cuts recursion while budgets still exceed the threshold.
SETTINGS = [
    (250, 6, 40, 8),
    (700, 4, 150, 8),
    (301, 3, 20, 1),
]


def make_graph(directed: bool, seed: int):
    graph = erdos_renyi(70, num_edges=180, seed=seed, directed=directed)
    return assign_uniform(graph, 0.1, 0.8, seed=seed)


def stacked_overlay(graph) -> List[Tuple[int, int, float]]:
    """Missing edges plus two edges stacked on one existing edge."""
    u, v, _ = next(iter(graph.edges()))
    missing = [(a, b, 0.6) for a, b in ((0, 9), (4, 33), (17, 50))
               if not graph.has_edge(a, b)]
    return [(u, v, 0.7), (u, v, 0.4), *missing]


# ----------------------------------------------------------------------
# oracle: the eager recursion, one batch and one sweep per leaf
# ----------------------------------------------------------------------
def oracle_pins(plan, forced):
    """Edge ids pinned present / absent; a key pins all its edges."""
    present = [e for key, on in forced.items() if on
               for e in plan.edge_index.get(key, ())]
    absent = [e for key, on in forced.items() if not on
              for e in plan.edge_index.get(key, ())]
    return present, absent


class EagerRSS:
    def __init__(self, est: RecursiveStratifiedSampler, seed: int) -> None:
        self.est = est  # borrowed for its region / strata helpers
        self.rng = np.random.default_rng(seed)

    def _leaf_batch(self, plan, forced, num_samples):
        pins = oracle_pins(plan, forced)
        return sample_worlds(
            plan, num_samples, self.rng, [(num_samples, *pins)]
        )

    def _mc(self, plan, source, target, forced, num_samples):
        batch = self._leaf_batch(plan, forced, num_samples)
        dst = plan.node_index(target)
        reached = batch_reach(
            plan, batch, [plan.node_index(source)], target_index=dst
        )
        return hit_fraction(reached[dst], num_samples)

    def _mc_vector(self, plan, source, forced, num_samples, weight, out):
        batch = self._leaf_batch(plan, forced, num_samples)
        reached = batch_reach(plan, batch, [plan.node_index(source)])
        counts = reach_counts_dict(plan, reached, num_samples, [source])
        for node, fraction in counts.items():
            out[node] = out.get(node, 0.0) + weight * fraction

    def reliability(self, graph, source, target, extra=None):
        if source == target:
            return 1.0
        if source not in graph or target not in graph:
            return 0.0
        adj = _Adjacency(graph, build_overlay(graph, extra))
        plan = build_query_plan(graph, extra)
        return self._estimate(
            plan, adj, source, target, {}, self.est.num_samples, 0
        )

    def _estimate(self, plan, adj, source, target, forced, budget, depth):
        est = self.est
        certain = est._certain_region(adj, source, forced)
        if target in certain:
            return 1.0
        if target not in est._potential_region(adj, source, forced):
            return 0.0
        if depth >= est.max_depth or budget < est.mc_threshold:
            return self._mc(plan, source, target, forced, max(budget, 1))
        strata = est._select_strata_edges(adj, certain, forced)
        if not strata:
            return 0.0
        estimate = 0.0
        prefix = 1.0
        base = dict(forced)
        for _u, _v, p, key in strata:
            pi = prefix * p
            stratum = dict(base)
            stratum[key] = True
            estimate += pi * self._recurse(
                plan, adj, source, target, stratum, pi, budget, depth
            )
            base[key] = False
            prefix *= 1.0 - p
        if prefix > 0.0:
            estimate += prefix * self._recurse(
                plan, adj, source, target, base, prefix, budget, depth
            )
        return estimate

    def _recurse(self, plan, adj, source, target, forced, pi, budget, depth):
        allocated = int(round(budget * pi))
        if pi <= 1e-12:
            return 0.0
        allocated = max(allocated, 1)
        if allocated < self.est.mc_threshold:
            return self._mc(plan, source, target, forced, allocated)
        return self._estimate(
            plan, adj, source, target, forced, allocated, depth + 1
        )

    def reachability_from(self, graph, source, extra=None):
        if source not in graph:
            return {}
        adj = _Adjacency(graph, build_overlay(graph, extra))
        plan = build_query_plan(graph, extra)
        out: Dict[int, float] = {}
        self._vector(plan, adj, source, {}, self.est.num_samples, 0, 1.0, out)
        out[source] = 1.0
        return out

    def _vector(self, plan, adj, source, forced, budget, depth, weight, out):
        est = self.est
        certain = est._certain_region(adj, source, forced)
        if depth >= est.max_depth or budget < est.mc_threshold:
            self._mc_vector(plan, source, forced, max(budget, 1), weight, out)
            return
        strata = est._select_strata_edges(adj, certain, forced)
        if not strata:
            for node in certain:
                out[node] = out.get(node, 0.0) + weight
            return
        prefix = 1.0
        base = dict(forced)
        for _u, _v, p, key in strata:
            pi = prefix * p
            if pi > 1e-12:
                stratum = dict(base)
                stratum[key] = True
                self._child(plan, adj, source, stratum, budget, depth,
                            weight, pi, out)
            base[key] = False
            prefix *= 1.0 - p
        if prefix > 1e-12:
            self._child(plan, adj, source, base, budget, depth, weight,
                        prefix, out)

    def _child(self, plan, adj, source, forced, budget, depth, weight, pi,
               out):
        allocated = max(int(round(budget * pi)), 1)
        if allocated < self.est.mc_threshold:
            self._mc_vector(plan, source, forced, allocated, weight * pi, out)
        else:
            self._vector(plan, adj, source, forced, allocated, depth + 1,
                         weight * pi, out)


# ----------------------------------------------------------------------
def record_leaves(monkeypatch):
    """Capture every leaf list the engine is asked to answer."""
    seen: List[Tuple[object, list]] = []
    original = VectorizedSamplingEngine.stratified_leaf_counts

    def spy(self, plan, source, leaves, target=None):
        seen.append((plan, list(leaves)))
        return original(self, plan, source, leaves, target)

    monkeypatch.setattr(VectorizedSamplingEngine, "stratified_leaf_counts",
                        spy)
    return seen


def run_queries(est, graph, overlay):
    """One fixed query sequence; returns every answer in call order."""
    answers = []
    for s, t in ((0, 33), (4, 50), (17, 9), (2, 2), (0, 999)):
        answers.append(est.reliability(graph, s, t))
        answers.append(est.reliability(graph, s, t, overlay))
    for s in (0, 4, 17):
        answers.append(est.reachability_from(graph, s))
        answers.append(est.reachability_from(graph, s, overlay))
    return answers


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("setting", SETTINGS)
def test_deferred_leaves_match_per_leaf_oracle(setting, directed):
    graph = make_graph(directed, seed=5)
    overlay = stacked_overlay(graph)
    est = RecursiveStratifiedSampler(*setting, seed=SEED)
    oracle = EagerRSS(RecursiveStratifiedSampler(*setting, seed=SEED), SEED)
    got = run_queries(est, graph, overlay)
    want = run_queries(oracle, graph, overlay)
    assert got == want
    assert est.reachability_to(graph, 50) == (
        oracle.reachability_from(graph, 50) if not directed
        else oracle.reachability_from(graph.reverse(), 50)
    )


def test_cases_exercise_every_leaf_shape(monkeypatch):
    """The parity cases hit the leaf shapes the batch layout must handle."""
    seen = record_leaves(monkeypatch)
    depth_limited = []
    for setting in SETTINGS:
        start = len(seen)
        for directed in (False, True):
            graph = make_graph(directed, seed=5)
            est = RecursiveStratifiedSampler(*setting, seed=SEED)
            run_queries(est, graph, stacked_overlay(graph))
        # A leaf whose budget is at or above the MC threshold can only
        # come from the depth limit.
        depth_limited += [
            count for _, leaves in seen[start:] for count, _ in leaves
            if count >= est.mc_threshold
        ]
    sizes = [count for _, leaves in seen for count, _ in leaves]
    assert any(count % 64 for count in sizes)
    assert any(count > 64 for count in sizes)
    assert any(sum(count for count, _ in leaves) % 64
               for _, leaves in seen)
    assert any(len(leaves) > 1 for _, leaves in seen)
    assert depth_limited
    # A pinned key naming several physical (stacked) edges.
    assert any(
        len(plan.edge_index.get(key, ())) > 1
        for plan, leaves in seen for _, forced in leaves for key in forced
    )


# ----------------------------------------------------------------------
# the multi-block sampler itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("counts", [[13, 70, 1, 64, 99], [5], [64, 64]])
def test_blocks_equal_separate_pinned_batches(counts):
    graph = make_graph(False, seed=9)
    overlay = stacked_overlay(graph)
    plan = build_query_plan(graph, overlay)
    stacked = next(ids for ids in plan.edge_index.values() if len(ids) > 1)
    pins = [
        ([], []),
        (list(stacked), [0, 1]),
        ([2], list(stacked)),
        ([], []),
        ([3, 4], [5]),
    ][:len(counts)]
    blocks = [(c, t, f) for c, (t, f) in zip(counts, pins)]
    total = sum(counts)
    dense = sample_worlds(plan, total, np.random.default_rng(SEED), blocks)
    assert dense.num_samples == total
    assert dense.alive.shape == (plan.num_edges, (total + 63) // 64)
    rng = np.random.default_rng(SEED)
    start = 0
    for count, forced_true, forced_false in blocks:
        alone = sample_worlds_keyed(plan, count, coin_base(rng))
        want = alone.alive.copy()
        want[forced_true] = alone.valid
        want[forced_false] = 0
        got = extract_world_columns(
            dense.alive, np.arange(start, start + count)
        )
        assert np.array_equal(got, want)
        start += count
    # Pad bits past Z stay zero.
    tail = extract_world_columns(
        dense.alive, np.arange(total, dense.num_words * 64)
    )
    assert not tail.any()


def test_one_unpinned_block_is_the_plain_batch():
    plan = compile_plan(make_graph(True, seed=2))
    plain = sample_worlds(plan, 130, np.random.default_rng(4))
    blocked = sample_worlds(
        plan, 130, np.random.default_rng(4), [(130, [], [])]
    )
    assert np.array_equal(plain.alive, blocked.alive)
    assert np.array_equal(plain.valid, blocked.valid)


def test_block_counts_must_cover_the_batch():
    plan = compile_plan(make_graph(False, seed=2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_worlds(plan, 10, rng, [(4, [], []), (5, [], [])])
    with pytest.raises(ValueError):
        sample_worlds(plan, 10, rng, [(10, [], []), (0, [], [])])


def test_leaf_counts_match_per_leaf_sweeps():
    graph = make_graph(False, seed=5)
    plan = build_query_plan(graph, stacked_overlay(graph))
    keys = list(plan.edge_index)
    leaves = [
        (70, {keys[0]: True}),
        (9, {keys[0]: False, keys[1]: True}),
        (64, {}),
        (1, {keys[2]: False}),
    ]
    engine = VectorizedSamplingEngine(SEED)
    counts = engine.stratified_leaf_counts(plan, 0, leaves)
    hits = VectorizedSamplingEngine(SEED).stratified_leaf_counts(
        plan, 0, leaves, 33
    )
    rng = np.random.default_rng(SEED)
    for j, (count, forced) in enumerate(leaves):
        pins = oracle_pins(plan, forced)
        batch = sample_worlds(plan, count, rng, [(count, *pins)])
        reached = batch_reach(plan, batch, [plan.node_index(0)])
        want = popcount(reached).sum(axis=1)
        assert np.array_equal(counts[:, j], want)
        assert hits[j] == want[plan.node_index(33)]


def test_sanitizer_checks_probabilities_once_per_batch(monkeypatch):
    graph = make_graph(False, seed=5)
    plan = build_query_plan(graph, None)
    calls = []
    original = sanitize.check_probabilities

    def spy(values, where):
        calls.append(where)
        return original(values, where)

    monkeypatch.setattr(sanitize, "enabled", lambda: True)
    monkeypatch.setattr(sanitize, "check_probabilities", spy)
    sample_worlds(plan, 50, np.random.default_rng(1),
                  [(20, [0], []), (17, [], [1]), (13, [], [])])
    assert calls == ["sample_worlds: plan.probs"]
