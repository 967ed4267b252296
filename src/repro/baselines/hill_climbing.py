"""Hill Climbing baseline (Algorithm 1).

Greedily adds the candidate edge with the maximum *marginal* reliability
gain, one edge per round, for ``k`` rounds.  Since Problem 1 is neither
submodular nor supermodular (Lemma 1), the greedy carries no
approximation guarantee, and the paper highlights its cold-start problem:
early rounds see many zero-gain candidates and pick arbitrarily.

This is the strongest-quality baseline in the paper's tables and also —
on the per-candidate path — the slowest:
``O(k * |candidates| * Z * (n + m))``.  Every registry estimator
routes through the selection-gain kernel
(:mod:`repro.engine.selection`): the first round costs two batch-BFS
sweeps plus ``O(Z/64)`` words per candidate, later rounds *resume* the
sweeps incrementally from each committed winner's endpoints, and the
base batch candidates are scored against follows the estimator's
sampling scheme (plain shared worlds for ``mc``/``lazy``, per-stratum
for ``rss``, per-block for ``adaptive``).

Both paths break ties by the lowest candidate index (the
per-candidate scan keeps the first maximum; the kernel's argmax does
the same).
"""

from __future__ import annotations

from typing import List, Sequence

from ..graph import UncertainGraph
from ..reliability import ReliabilityEstimator
from .common import Edge, NewEdgeProbability, ProbEdge, selection_kernel_for


def hill_climbing(
    graph: UncertainGraph,
    source: int,
    target: int,
    k: int,
    candidates: Sequence[Edge],
    new_edge_prob: NewEdgeProbability,
    estimator: ReliabilityEstimator,
    kernel=None,
) -> List[ProbEdge]:
    """Greedy marginal-gain selection of ``k`` edges (Algorithm 1).

    The batched gain kernel runs whenever ``estimator`` reports a
    selection backend (see
    :meth:`~repro.reliability.estimator.ReliabilityEstimator.selection_backend`);
    otherwise the per-candidate estimator loop does.

    Parameters
    ----------
    kernel:
        Pre-built :class:`~repro.engine.selection.SelectionGainKernel`
        (e.g. a session's, sharing its cached plan and world batch).
    """
    if k < 1:
        raise ValueError("k must be positive")
    selected: List[ProbEdge] = []
    remaining: List[ProbEdge] = [
        (u, v, new_edge_prob(u, v)) for u, v in candidates
    ]
    gain_kernel = selection_kernel_for(graph, estimator, kernel)
    if gain_kernel is not None:
        return gain_kernel.greedy_select(source, target, k, remaining)
    while len(selected) < k and remaining:
        best_index = -1
        best_value = -1.0
        for index, edge in enumerate(remaining):
            value = estimator.reliability(
                graph, source, target, [*selected, edge]
            )
            if value > best_value:
                best_value = value
                best_index = index
        selected.append(remaining.pop(best_index))
    return selected
