"""Benchmark: vectorized sampling engine vs the scalar reference Monte Carlo.

Times ``MonteCarloEstimator`` (the batch engine) against the per-sample
scalar BFS of :mod:`repro.reliability.reference` on synthetic uncertain
graphs — single-pair ``reliability`` at Z=1000 on a 1k-node graph (the
acceptance gate: the engine must be >= 5x faster) and the batched
``reliability_many`` amortization on a pair workload.

Usage::

    python benchmarks/bench_engine_vectorized.py          # full run, asserts >= 5x
    python benchmarks/bench_engine_vectorized.py --smoke  # quick CI gate + parity check
    python benchmarks/bench_engine_vectorized.py --json out.json  # dump timings
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.graph import assign_uniform, erdos_renyi  # noqa: E402
from repro.reliability import MonteCarloEstimator  # noqa: E402
from repro.reliability.reference import ScalarMonteCarlo  # noqa: E402


def build_graph(num_nodes: int, num_edges: int, seed: int = 0):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.05, 0.5, seed=seed + 1)


def pick_queries(graph, count: int):
    """Spread (s, t) pairs across the node range, skipping s == t."""
    n = graph.num_nodes
    pairs = []
    step = max(1, n // (count + 1))
    for i in range(count):
        s = (i * step) % n
        t = (n - 1 - i * step) % n
        if s != t:
            pairs.append((s, t))
    return pairs or [(0, n - 1)]


def time_estimator(estimator, graph, pairs) -> float:
    start = time.perf_counter()
    for s, t in pairs:
        estimator.reliability(graph, s, t)
    return time.perf_counter() - start


def run(smoke: bool, json_path: str | None = None) -> int:
    if smoke:
        num_nodes, num_edges, z, repeats = 200, 600, 256, 2
        required_speedup = 1.0  # smoke only gates "runs and agrees"
    else:
        num_nodes, num_edges, z, repeats = 1000, 3000, 1000, 3
        required_speedup = 5.0

    graph = build_graph(num_nodes, num_edges)
    pairs = pick_queries(graph, repeats)
    print(
        f"graph: n={graph.num_nodes} m={graph.num_edges} "
        f"Z={z} queries={len(pairs)}"
    )

    scalar = ScalarMonteCarlo(z, seed=1)
    vectorized = MonteCarloEstimator(z, seed=1)

    # Warm-up compiles the CSR cache so the timed loop measures the
    # steady state selection loops actually run in.
    vectorized.reliability(graph, *pairs[0])

    scalar_s = time_estimator(scalar, graph, pairs)
    vector_s = time_estimator(vectorized, graph, pairs)
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
    print(f"scalar MC:     {scalar_s * 1000:9.1f} ms")
    print(f"vectorized MC: {vector_s * 1000:9.1f} ms")
    print(f"speedup:       {speedup:9.1f}x (required >= {required_speedup}x)")

    # Batched API: many pairs against one compiled plan + world batch.
    many_pairs = pick_queries(graph, 50)
    start = time.perf_counter()
    batched = MonteCarloEstimator(z, seed=2).reliability_many(graph, many_pairs)
    many_s = time.perf_counter() - start
    print(
        f"reliability_many: {len(many_pairs)} pairs in {many_s * 1000:.1f} ms "
        f"({many_s * 1000 / len(many_pairs):.2f} ms/pair)"
    )
    assert len(batched) == len(many_pairs)

    # Statistical agreement between the two paths on one query.
    s, t = pairs[0]
    a = MonteCarloEstimator(max(z, 2000), seed=3).reliability(graph, s, t)
    b = ScalarMonteCarlo(max(z, 2000), seed=4).reliability(graph, s, t)
    print(f"parity check R({s},{t}): vectorized={a:.4f} scalar={b:.4f}")
    if json_path:
        report = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_samples": z,
            "num_queries": len(pairs),
            "scalar_seconds": scalar_s,
            "vectorized_seconds": vector_s,
            "speedup": speedup,
            "required_speedup": required_speedup,
            "reliability_many_seconds": many_s,
            "reliability_many_pairs": len(many_pairs),
        }
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")
    if abs(a - b) > 0.08:
        print("FAIL: vectorized and scalar estimates diverge")
        return 1
    if speedup < required_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below {required_speedup}x")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graph / small Z quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
