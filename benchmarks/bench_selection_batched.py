"""Benchmark: batched candidate-gain kernel vs the per-candidate loop.

Hill climbing is the paper's strongest-quality baseline and its slowest:
every greedy round re-estimates reliability once per candidate.  The
selection-gain kernel (:mod:`repro.engine.selection`) collapses a round
to two batch-BFS sweeps plus one coin row + popcount per candidate, all
against one shared world batch.

This benchmark times hill climbing (k=5) and individual top-k over a
1k-node graph with ~200 candidate edges at Z=1000, on both paths — the
per-candidate estimator loop runs over :class:`LoopOnly`, which hides
the estimator's selection backend but delegates every estimate to it
(so the loop is itself engine-backed, i.e. the strongest status quo) —
and asserts the kernel is >= 10x faster on hill climbing (the PR gate).

Parity fixtures: on graphs whose greedy choices are forced (a certain
bridging edge, then all-zero gains -> documented lowest-index
tie-break; and well-separated bridge gains), both paths must select
bit-for-bit identical edge sequences.

Usage::

    python benchmarks/bench_selection_batched.py                # >= 10x gate
    python benchmarks/bench_selection_batched.py --smoke        # quick CI check
    python benchmarks/bench_selection_batched.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.baselines import hill_climbing, individual_top_k  # noqa: E402
from repro.graph import (  # noqa: E402
    UncertainGraph,
    assign_uniform,
    erdos_renyi,
    fixed_new_edge_probability,
)
from repro.reliability import make_estimator  # noqa: E402


def build_graph(num_nodes: int, num_edges: int, seed: int = 0):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.05, 0.5, seed=seed + 1)


def missing_candidates(graph, count: int, seed: int = 7):
    """~count deterministic missing (u, v) pairs spread over the graph."""
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    seen = set()
    pairs = []
    while len(pairs) < count:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or graph.has_edge(*key):
            continue
        seen.add(key)
        pairs.append(key)
    return pairs


class LoopOnly:
    """Estimator exposing only ``reliability``, delegating to an engine
    estimator: no selection backend, so selection runs per candidate."""

    def __init__(self, estimator) -> None:
        self.estimator = estimator

    def reliability(self, graph, source, target, extra_edges=None):
        return self.estimator.reliability(graph, source, target, extra_edges)


def time_selection(method, graph, s, t, k, candidates, zeta, z, seed,
                   per_candidate):
    estimator = make_estimator("mc", z, seed=seed)
    if per_candidate:
        estimator = LoopOnly(estimator)
    start = time.perf_counter()
    edges = method(graph, s, t, k, candidates, zeta, estimator)
    return time.perf_counter() - start, edges


def parity_fixtures():
    """(graph, s, t, k, candidates, prob_model) cases where both paths
    must produce bit-for-bit identical selection sequences."""
    # Fixture 1: two certain chains 0-1-2 / 3-4-5.  Candidate (2, 3)
    # bridges them with p=1.0 (gain exactly 1.0); afterwards every gain
    # is exactly zero, so rounds fall back to the documented
    # lowest-index tie-break on every path, sampling noise included.
    chains = UncertainGraph()
    for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
        chains.add_edge(u, v, 1.0)
    probs1 = {(2, 3): 1.0, (0, 5): 0.5, (1, 4): 0.25}

    # Fixture 2: bridges with widely separated gains (~0.9 / 0.45 /
    # 0.09) — orders of magnitude above MC noise at Z=2000.
    star = UncertainGraph()
    star.add_edge(1, 5, 1.0)
    star.add_edge(2, 5, 0.5)
    star.add_edge(3, 5, 0.1)
    star.add_node(0)
    probs2 = {(0, 1): 0.9, (0, 2): 0.9, (0, 3): 0.9}

    return [
        ("forced-tie-break", chains, 0, 5, 3, list(probs1), probs1),
        ("separated-gains", star, 0, 5, 2, list(probs2), probs2),
    ]


def check_parity(z: int, seed: int):
    """Selected edge sequences must match across both paths."""
    failures = []
    for name, graph, s, t, k, candidates, probs in parity_fixtures():
        prob_model = lambda u, v, probs=probs: probs[(u, v)]
        per_candidate = hill_climbing(
            graph, s, t, k, candidates, prob_model,
            LoopOnly(make_estimator("mc", z, seed=seed)),
        )
        batched = hill_climbing(
            graph, s, t, k, candidates, prob_model,
            make_estimator("mc", z, seed=seed),
        )
        if per_candidate != batched:
            failures.append(
                {"fixture": name, "per_candidate": per_candidate,
                 "batched": batched}
            )
    return failures


def run(smoke: bool, json_path: str | None) -> int:
    if smoke:
        num_nodes, num_edges, z = 200, 600, 256
        num_candidates, k = 40, 2
        # Smoke only gates "runs and agrees" (the parity check below);
        # millisecond-scale timings on loaded CI runners are too noisy
        # to gate, so no speedup floor.
        required_speedup = 0.0
    else:
        num_nodes, num_edges, z = 1000, 3000, 1000
        num_candidates, k = 200, 5
        required_speedup = 10.0

    graph = build_graph(num_nodes, num_edges)
    candidates = missing_candidates(graph, num_candidates)
    s, t = 0, graph.num_nodes - 1
    zeta = fixed_new_edge_probability(0.5)
    print(f"graph: n={graph.num_nodes} m={graph.num_edges} "
          f"Z={z} |C|={len(candidates)} k={k}")

    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_samples": z,
        "num_candidates": len(candidates),
        "k": k,
        "required_speedup": required_speedup,
        "methods": [],
    }
    gated_speedup = None
    for label, method, budget in (
        ("hill_climbing", hill_climbing, k),
        ("individual_top_k", individual_top_k, k),
    ):
        loop_s, loop_edges = time_selection(
            method, graph, s, t, budget, candidates, zeta, z, 17,
            per_candidate=True,
        )
        kernel_s, kernel_edges = time_selection(
            method, graph, s, t, budget, candidates, zeta, z, 17,
            per_candidate=False,
        )
        speedup = loop_s / kernel_s if kernel_s > 0 else float("inf")
        print(f"[{label}]")
        print(f"  per-candidate loop: {loop_s * 1000:9.1f} ms")
        print(f"  batched kernel:     {kernel_s * 1000:9.1f} ms")
        print(f"  speedup:            {speedup:9.1f}x")
        report["methods"].append({
            "method": label,
            "per_candidate_seconds": loop_s,
            "kernel_seconds": kernel_s,
            "speedup": speedup,
        })
        if label == "hill_climbing":
            gated_speedup = speedup

    parity_failures = check_parity(z=2000, seed=17)
    report["parity_failures"] = parity_failures

    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")

    if parity_failures:
        for failure in parity_failures:
            print(f"FAIL: parity fixture {failure['fixture']}: "
                  f"per-candidate {failure['per_candidate']} != "
                  f"batched {failure['batched']}")
        return 1
    print("parity fixtures: selected edge sets identical")
    if gated_speedup < required_speedup:
        print(f"FAIL: hill-climbing speedup {gated_speedup:.1f}x below "
              f"{required_speedup}x")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph / small candidate set quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
