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

from .monte_carlo import MonteCarloEstimator


class LazyPropagationEstimator(MonteCarloEstimator):
    """Lazy-propagation Monte Carlo on the batch engine.

    The lazy schedule is subsumed by batched coin generation, so the
    estimates are plain batched Monte Carlo hit rates over ``Z``
    i.i.d. worlds (see :class:`MonteCarloEstimator`).
    """

    name = "lazy"
