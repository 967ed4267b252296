"""High-level vectorized sampling engine.

:class:`VectorizedSamplingEngine` is the estimator-facing surface of the
engine: it owns a seeded :class:`numpy.random.Generator`, compiles (or
reuses the cached compilation of) the query plan, samples a batch of
possible worlds, and reduces reached-bitmasks into the estimates the
:class:`~repro.reliability.estimator.ReliabilityEstimator` interface
promises.

Statistical contract: every method is an unbiased possible-world Monte
Carlo estimate with one coin per canonical edge per world, identical in
distribution to the per-sample scalar BFS of
:mod:`repro.reliability.reference`.  The *stream* differs (each batch
draws a uint64 base from the engine's PCG64 generator and expands it
through identity-keyed SplitMix64 counters — see
:func:`repro.engine.kernel.sample_worlds` — instead of the reference's
lazy ``random.Random`` coins), so estimates with the same seed are
deterministic per implementation but not bit-for-bit equal to the
reference.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import UncertainGraph
from .csr import ProbEdge, QueryPlan, build_query_plan
from .kernel import (
    WorldBatch,
    batch_reach,
    batch_reach_multi,
    hit_fraction,
    popcount,
    sample_worlds,
    unpack_bool_matrix,
)

Pair = Tuple[int, int]

#: Fuse multi-source sweeps while each world batch row is at most this
#: many words (Z <= 65,536).  The auto-dispatched fused pass
#: (:func:`repro.engine.kernel.batch_reach_multi`) beats per-source
#: sweeps across the measured range: best-of-5 on
#: ``benchmarks/bench_sweep_gated.py``'s cases at S=16, W=1 (Z=64)
#: through W=64 (Z=4096), 2.5-7.9x on the sweep-bound ring and
#: 1.05-2.8x on the frontier-dense ER 1k/3k graph (2-vCPU host).  The
#: cap only stops fusing where the fused state (S * W * n words) would
#: dwarf the word budget below.
_FUSE_MAX_WORDS = 1024

#: Word budget of one fused pass (S * W * num_nodes reached words);
#: 4M words = 32 MB.  Larger fused groups are chunked.
_MULTI_SOURCE_WORD_BUDGET = 4_000_000


def reach_per_source(
    plan: QueryPlan,
    batch: WorldBatch,
    source_indices: Sequence[int],
) -> Iterator["np.ndarray"]:
    """Yield each source's own contiguous ``(n, W)`` reached rows.

    The one multi-source sweep dispatcher: sources are split into
    groups whose fused state fits :data:`_MULTI_SOURCE_WORD_BUDGET`
    (single-source groups once the row is wider than
    :data:`_FUSE_MAX_WORDS`); a group of one runs :func:`batch_reach`,
    a larger group one fused :func:`batch_reach_multi` pass.  Groups
    are swept lazily, so at most one fused pass is alive at a time
    unless the caller keeps the rows.  Every path is bit-for-bit equal
    to one ``batch_reach`` per source; rows of one fused pass are
    disjoint views, so each can be updated in place independently.
    """
    sources = list(source_indices)
    if batch.num_words > _FUSE_MAX_WORDS:
        chunk = 1
    else:
        chunk = max(
            1,
            _MULTI_SOURCE_WORD_BUDGET
            // max(plan.num_nodes * batch.num_words, 1),
        )
    for start in range(0, len(sources), chunk):
        group = sources[start:start + chunk]
        if len(group) == 1:
            yield batch_reach(plan, batch, group)
            continue
        reached = batch_reach_multi(plan, batch, group)
        for i in range(len(group)):
            yield np.ascontiguousarray(reached[:, i])


def pair_hit_fractions(
    plan: QueryPlan,
    batch: WorldBatch,
    pairs: Sequence[Pair],
    num_samples: int,
    reach_cache: Optional[Dict[int, "np.ndarray"]] = None,
) -> Dict[Pair, float]:
    """Answer every (s, t) pair inside one shared world batch.

    Pairs are grouped by source so each distinct source costs one batch
    BFS sweep, and the sweeps of distinct sources are fused by
    :func:`reach_per_source`.  ``s == t`` pairs are 1.0 and endpoints
    unknown to the plan are 0.0 (matching the scalar estimators'
    semantics).

    ``reach_cache`` maps dense source indices to full ``(n, W)``
    reached-fixpoint matrices over exactly this ``(plan, batch)``:
    sources found there skip their sweep, and every freshly swept
    source is written back (contiguous, caller-owned).  The cache is
    what :meth:`repro.api.Session.apply_delta` repairs in place after a
    graph edit, so post-edit queries resume sweeps instead of
    restarting them.  Purely a performance layer — a cached fixpoint is
    bit-identical to a fresh sweep by the resume contract of
    :func:`~repro.engine.kernel.batch_reach_resume`.
    """
    by_source: Dict[int, List[Pair]] = {}
    for s, t in pairs:
        by_source.setdefault(s, []).append((s, t))
    result: Dict[Pair, float] = {}

    # Resolve sources; unknown ones answer 0.0 (1.0 for s == t).
    indexed: List[Tuple[int, int]] = []  # (source id, dense index)
    cached_sources: List[Tuple[int, int]] = []
    for s, spairs in by_source.items():
        src = plan.node_index(s)
        if src is None:
            for pair in spairs:
                result[pair] = 1.0 if pair[1] == s else 0.0
        elif reach_cache is not None and src in reach_cache:
            cached_sources.append((s, src))
        else:
            indexed.append((s, src))

    def _reduce(s: int, reached_rows: "np.ndarray") -> None:
        for pair in by_source[s]:
            t = pair[1]
            if t == s:
                result[pair] = 1.0
                continue
            dst = plan.node_index(t)
            if dst is None:
                result[pair] = 0.0
            else:
                result[pair] = hit_fraction(reached_rows[dst], num_samples)

    if reach_cache is not None:
        for s, src in cached_sources:
            _reduce(s, reach_cache[src])
    swept = reach_per_source(plan, batch, [src for _, src in indexed])
    for (s, src), rows in zip(indexed, swept):
        if reach_cache is not None:
            reach_cache[src] = rows
        _reduce(s, rows)
    return result


def reach_counts_dict(
    plan: QueryPlan,
    reached: "np.ndarray",
    num_samples: int,
    sources: Sequence[int],
) -> Dict[int, float]:
    """Reduce a reached-bitmask into a node-id -> frequency dict.

    Only nodes reached in at least one world appear; the sources are
    pinned to 1.0 (they are reached in every world by definition).
    """
    counts = popcount(reached).sum(axis=1)
    nonzero = np.flatnonzero(counts)
    result = {
        plan.node_ids[int(i)]: int(counts[i]) / num_samples
        for i in nonzero
    }
    for s in sources:
        result[s] = 1.0
    return result


class VectorizedSamplingEngine:
    """Batch possible-world sampler over cached CSR plans.

    Parameters
    ----------
    seed:
        Seed for the engine's PCG64 generator.  The generator is
        stateful: repeated calls advance the stream, and two engines
        built with the same seed replay the same estimates for the same
        query sequence.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # world sampling (low-level, reused by BFS-sharing / RSS)
    # ------------------------------------------------------------------
    def sample_worlds(self, plan: QueryPlan, num_samples: int) -> WorldBatch:
        """Sample ``num_samples`` worlds over ``plan``'s edge table."""
        return sample_worlds(plan, num_samples, self._rng)

    # ------------------------------------------------------------------
    # estimator surface
    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> float:
        """Fraction of sampled worlds in which ``target`` is reachable."""
        if source == target:
            return 1.0
        if source not in graph or target not in graph:
            return 0.0
        plan = build_query_plan(graph, extra_edges)
        src = plan.node_index(source)
        dst = plan.node_index(target)
        batch = self.sample_worlds(plan, num_samples)
        reached = batch_reach(plan, batch, [src], target_index=dst)
        return hit_fraction(reached[dst], num_samples)

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[int, float]:
        """Per-node reach frequency from ``source`` (non-zero entries)."""
        if source not in graph:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        reached = batch_reach(plan, batch, [plan.node_index(source)])
        return reach_counts_dict(plan, reached, num_samples, [source])

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Pair],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[Pair, float]:
        """Shared-world reliability of several pairs.

        One world batch is sampled and every pair is answered inside it,
        so pair estimates are mutually consistent — and the plan
        compilation plus coin flips are amortized over all pairs.
        """
        if not pairs:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        return pair_hit_fractions(plan, batch, pairs, num_samples)

    def reliability_many(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Pair],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> List[float]:
        """Batched API: reliabilities aligned with ``pairs`` order."""
        values = self.pair_reliabilities(
            graph, list(pairs), num_samples, extra_edges
        )
        return [values[(s, t)] for s, t in pairs]

    def multi_source_reachability(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[int, float]:
        """Per-node frequency of being reached from *any* source.

        All sources are seeded into one reached-bitmask, so each world
        is shared across sources by construction.
        """
        valid_sources = [s for s in sources if s in graph]
        if not valid_sources:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        indices = [plan.node_index(s) for s in valid_sources]
        reached = batch_reach(plan, batch, indices)
        return reach_counts_dict(plan, reached, num_samples, valid_sources)

    # ------------------------------------------------------------------
    # stratified leaves (RSS delegation)
    # ------------------------------------------------------------------
    def stratified_leaf_counts(
        self,
        plan: QueryPlan,
        source: int,
        leaves: Sequence[Tuple[int, Dict[Tuple[int, int], bool]]],
        target: Optional[int] = None,
    ) -> "np.ndarray":
        """Answer every Monte Carlo leaf of one stratified estimate.

        ``leaves`` are ``(num_samples, forced)`` pairs in the order the
        stratification visited them; ``forced`` maps canonical edge
        keys (node-id space) to pinned states, and a key shared by
        several physical edges pins all of them.  One keyed batch holds
        each leaf's worlds as its own contiguous block (its own base,
        drawn from the engine's generator in leaf order, and its own
        pins), and one sweep from ``source`` answers them all — worlds
        never read each other's bits, so every block's reached bits
        equal a separate batch and sweep per leaf.

        Returns the per-leaf count of worlds that reach ``target``
        (``(L,)`` ints), or without a target the per-leaf count for
        every plan node (``(num_nodes, L)``).  Both endpoints must be
        plan nodes.
        """
        counts = [count for count, _ in leaves]
        total = sum(counts)
        blocks = [
            (count, *self._forced_ids(plan, forced))
            for count, forced in leaves
        ]
        batch = sample_worlds(plan, total, self._rng, blocks)
        dst = None if target is None else plan.node_index(target)
        reached = batch_reach(
            plan, batch, [plan.node_index(source)], target_index=dst
        )
        rows = reached if dst is None else reached[dst:dst + 1]
        starts = np.cumsum(counts) - counts
        per_leaf = np.add.reduceat(
            unpack_bool_matrix(rows, total), starts, axis=1, dtype=np.int64
        )
        return per_leaf if dst is None else per_leaf[0]

    # ------------------------------------------------------------------
    @staticmethod
    def _forced_ids(
        plan: QueryPlan,
        forced: Dict[Tuple[int, int], bool],
    ) -> Tuple[List[int], List[int]]:
        forced_true: List[int] = []
        forced_false: List[int] = []
        for key, state in forced.items():
            ids = plan.edge_index.get(key, ())
            (forced_true if state else forced_false).extend(ids)
        return forced_true, forced_false
