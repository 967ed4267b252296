"""Scalar reference Monte Carlo: the one sampler off the batch engine.

Flips edge coins *during* a per-sample BFS — an edge's state is only
decided when the traversal first relaxes it, which is equivalent in
distribution to sampling whole worlds and touches only the reachable
region (the "MC + BFS" refinement of Jin et al., PVLDB'11).  One
``random.Random(seed)`` stream drives every coin.

This is a *baseline*, not a served estimator: it is unregistered and
unexported.  ``benchmarks/bench_engine_vectorized.py`` times the engine
against it, and the statistical accuracy tests check it against exact
enumeration next to the engine-backed estimators.  It draws from a
different PRNG stream than :mod:`repro.engine`, so the two agree only
statistically, never bit for bit.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Set

from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator, build_overlay


class ScalarMonteCarlo(ReliabilityEstimator):
    """Monte Carlo sampling with per-sample lazily-sampled BFS.

    Parameters
    ----------
    num_samples:
        Number of sampled possible worlds ``Z``.
    seed:
        Seed for the internal PRNG.  Two estimators with the same seed
        produce identical estimates for identical query sequences.

    Notes
    -----
    Complexity is ``O(Z * (n + m))`` per query.  The estimator is
    unbiased; its variance shrinks as ``R(1-R)/Z``.
    """

    name = "scalar-mc"

    def __init__(self, num_samples: int = 1000, seed: int = 0) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        self.num_samples = num_samples
        self._rng = random.Random(seed)

    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        if source == target:
            return 1.0
        if source not in graph or target not in graph:
            return 0.0
        overlay = build_overlay(graph, extra_edges)
        hits = 0
        rand = self._rng.random
        succ = graph.successors
        for _ in range(self.num_samples):
            if self._sampled_bfs_hits_target(succ, overlay, source, target, rand):
                hits += 1
        return hits / self.num_samples

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        if source not in graph:
            return {}
        overlay = build_overlay(graph, extra_edges)
        counts: Dict[int, int] = {}
        rand = self._rng.random
        succ = graph.successors
        for _ in range(self.num_samples):
            for node in self._sampled_bfs_reach_set(succ, overlay, source, rand):
                counts[node] = counts.get(node, 0) + 1
        result = {node: c / self.num_samples for node, c in counts.items()}
        result[source] = 1.0
        return result

    @staticmethod
    def _sampled_bfs_hits_target(succ, overlay, source, target, rand) -> bool:
        """One world: BFS with on-the-fly coin flips, early exit at target."""
        visited = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v, p in succ(u).items():
                if v in visited:
                    continue
                if p >= 1.0 or rand() < p:
                    if v == target:
                        return True
                    visited.add(v)
                    frontier.append(v)
            if overlay:
                for v, p in overlay.get(u, ()):
                    if v in visited:
                        continue
                    if p >= 1.0 or rand() < p:
                        if v == target:
                            return True
                        visited.add(v)
                        frontier.append(v)
        return False

    @staticmethod
    def _sampled_bfs_reach_set(succ, overlay, source, rand) -> Set[int]:
        """One world: full reach set from ``source``."""
        visited = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            neighbors = list(succ(u).items())
            if overlay and u in overlay:
                neighbors.extend(overlay[u])
            for v, p in neighbors:
                if v in visited:
                    continue
                if p >= 1.0 or rand() < p:
                    visited.add(v)
                    frontier.append(v)
        return visited
