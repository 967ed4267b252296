"""Test doubles shared across the selection test modules."""

from __future__ import annotations


class LoopOnly:
    """Estimator fake exposing only ``reliability``.

    It reports no ``selection_backend``, so ``hill_climbing`` and
    ``individual_top_k`` take their per-candidate loop, and every
    estimate delegates to the wrapped engine estimator — the loop scores
    candidates exactly as it would with that estimator's own
    ``reliability`` calls.
    """

    def __init__(self, estimator) -> None:
        self.estimator = estimator

    def reliability(self, graph, source, target, extra_edges=None):
        return self.estimator.reliability(graph, source, target, extra_edges)
