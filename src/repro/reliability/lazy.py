"""Lazy-propagation Monte Carlo (geometric run-length coin flipping).

Li et al. (SIGMOD 2017) speed up scalar Monte Carlo by drawing, instead
of a fresh coin per edge per sample, from a geometric distribution how
many consecutive samples an edge stays *absent* and skipping ahead.
Marginally each sample still sees an independent Bernoulli(p) state per
edge.

The geometric-skipping trick is an *ordering* optimization of the same
statistical object plain MC estimates: ``Z`` i.i.d. possible worlds.  On
the batch engine (:mod:`repro.engine`) all coins are flipped in one
batched draw, so skipping buys nothing there and this estimator runs
exactly plain batched Monte Carlo.  It stays registered under its own
name (``"lazy"``) so the paper's sampler comparisons keep their rows.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..engine import VectorizedSamplingEngine
from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator, SelectionBackend


class LazyPropagationEstimator(ReliabilityEstimator):
    """Lazy-propagation Monte Carlo on the batch engine.

    The lazy schedule is subsumed by batched coin generation, so the
    estimates are plain batched Monte Carlo hit rates over ``Z``
    i.i.d. worlds (see :class:`MonteCarloEstimator`).
    """

    name = "lazy"

    def __init__(self, num_samples: int = 1000, seed: int = 0) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        self.num_samples = num_samples
        self._engine = VectorizedSamplingEngine(seed)

    def selection_backend(self) -> Optional[Tuple[int, int]]:
        """On the engine, lazy propagation *is* plain batched MC (the
        geometric schedule is subsumed by batched coin generation), so
        selection loops may batch it through the gain kernel."""
        return SelectionBackend(self.num_samples, self._engine.seed)

    # ------------------------------------------------------------------
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
        return self._engine.reliability(
            graph, source, target, self.num_samples,
            list(extra_edges) if extra_edges else None,
        )

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        if source not in graph:
            return {}
        return self._engine.reachability_from(
            graph, source, self.num_samples,
            list(extra_edges) if extra_edges else None,
        )
