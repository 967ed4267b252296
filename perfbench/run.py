"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload maximize-be --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (measured with tracing off): set-up time, and the
CPU time the program spends per op as a multiple of a fixed reference
computation's, run on the same processor at the same time (see
``reference.py``).  On a shared host neither wall time nor bare CPU
time is steady from one minute to the next; wall latencies and bare CPU
times are reported per layer.  ``--trace 1`` reports the per-layer
metrics.  A traced run measures the workload
twice on the same inputs, first untraced for half the time budget and
then traced over exactly the same ops, so the tracing overhead is the
difference between the two passes.  Each run also writes a full record
(host fingerprint, op counts, every figure) to ``perfbench/results/``;
``perfbench/compare.py`` diffs two sets of records layer by layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5


def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, never below the median."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(run) -> Dict[str, Tuple[float, str]]:
    run.detail["op_samples"] = run.ops
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "op_cpu_ref": (run.relative_cost, "ref"),
    }


def per_layer(name: str, untraced, traced) -> Dict[str, Tuple[float, str]]:
    """Per-op layer figures of the traced pass (see BENCHMARK.json)."""
    rec = traced.trace
    serve = name == "serve-mixed"
    ops = traced.ops
    reads = traced.detail.get("reads", 0)

    def self_s(span: str) -> float:
        return rec["spans"].get(span, [0.0, 0.0, 0.0])[2] / ops

    def counter(name: str) -> float:
        return rec["counters"].get(name, 0.0)

    def calls(span: str) -> float:
        return rec["spans"].get(span, [0.0, 0.0, 0.0])[0] / ops

    if serve:
        busy = traced.detail["service_s"] - rec["coalesce_wait_s"]
    else:
        busy = sum(traced.latencies)
    wall_tail, percentile = tail(untraced.latencies)
    untraced.detail["op_tail_percentile"] = percentile
    overhead = traced.relative_cost - untraced.relative_cost
    return {
        "paths.top_l.self_s": (self_s("paths.top_l"), "s"),
        "paths.dijkstra.self_s": (self_s("paths.dijkstra"), "s"),
        "paths.dijkstra.calls": (calls("paths.dijkstra"), "count"),
        "core.eliminate.self_s": (self_s("core.eliminate"), "s"),
        "core.candidates": (counter("core.candidates") / ops, "count"),
        "core.select.self_s": (self_s("core.select"), "s"),
        "reliability.overlay.self_s": (self_s("reliability.overlay"), "s"),
        "reliability.overlay.calls": (calls("reliability.overlay"), "count"),
        "reliability.estimate.self_s": (self_s("reliability.estimate"), "s"),
        "engine.sample.self_s": (self_s("engine.sample"), "s"),
        "engine.sample.calls": (calls("engine.sample"), "count"),
        "engine.sample.coin_bytes": (
            counter("engine.sample.coin_bytes") / ops, "bytes_computed"),
        "engine.sweep.self_s": (self_s("engine.sweep"), "s"),
        "engine.sweep.calls": (calls("engine.sweep"), "count"),
        "engine.compile.self_s": (self_s("engine.compile"), "s"),
        "engine.repair.self_s": (self_s("engine.repair"), "s"),
        "engine.resume.self_s": (self_s("engine.resume"), "s"),
        "api.run.self_s": (self_s("api.run"), "s"),
        "api.delta.self_s": (self_s("api.delta"), "s"),
        "api.delta.resumed_states": (
            traced.detail.get("resumed_states", 0.0), "count"),
        "api.delta.dropped_states": (
            traced.detail.get("dropped_states", 0.0), "count"),
        "api.reach.sweeps_per_read": (
            rec["spans"].get("engine.sweep", [0.0])[0] / reads
            if serve and reads else 0.0, "count"),
        "api.reach.hit_share": (
            1.0 - counter("engine.sweep.sources")
            / counter("api.reach.lookups")
            if serve and counter("api.reach.lookups") else 0.0, "ratio"),
        "index.store.self_s": (self_s("index.store"), "s"),
        "index.result.hit_ratio": (
            traced.detail.get("result_hit_ratio", 0.0), "ratio"),
        "serve.http.self_s": (self_s("serve.http"), "s"),
        "serve.coalesce.wait_s": (
            rec["coalesce_wait_s"] / max(rec["submits"], 1), "s"),
        "serve.coalesce.batch_size": (
            traced.detail.get("batch_size", 0.0), "count"),
        "serve.shed": (float(traced.detail.get("shed", 0)), "count"),
        "loadgen.lateness_p99_ms": (
            traced.detail.get("lateness_p99_ms", 0.0), "ms"),
        "op.unattributed_s": ((busy - rec["top_level_s"]) / ops, "s"),
        "trace.overhead_pct": (
            100.0 * overhead / untraced.relative_cost, "%"),
        "gain_mean": (untraced.detail.get("gain_mean", 0.0), "prob"),
        "cpu.op_ms": (1000 * untraced.cpu_per_op, "ms"),
        "host.reference_ms": (1000 * untraced.reference_s, "ms"),
        "wall.op_p50_ms": (1000 * statistics.median(untraced.latencies), "ms"),
        "wall.op_tail_ms": (1000 * wall_tail, "ms"),
        "write_p50_ms": (untraced.detail.get("write_p50_ms", 0.0), "ms"),
    }


def fingerprint() -> dict:
    """Where and on what code the run happened."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a checkout without git metadata
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results"),
                        help="directory for the full run record")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        untraced = workload.run_pass(args.seconds / 2, setups=1)
        traced = workload.run_pass(args.seconds / 2, setups=1,
                                   limit=untraced.ops,
                                   tracer=tracing.Tracer())
        tracing.check_expected(args.workload, traced.trace)
        metrics = per_layer(args.workload, untraced, traced)
        if args.workload == "serve-mixed":
            # The traffic shape is meant to hit both caches only partly.
            for name in ("index.result.hit_ratio", "api.reach.hit_share"):
                if not 0.0 < metrics[name][0] < 1.0:
                    raise tracing.TraceError(
                        f"{name} is {metrics[name][0]:.3f}, not strictly "
                        "between 0 and 1")
        traced.detail["end_to_end"] = end_to_end(traced)
        untraced.detail["end_to_end"] = end_to_end(untraced)
        for name, (value, unit) in untraced.detail["end_to_end"].items():
            print(f"tracing overhead {name:15s} {value:12.6g} -> "
                  f"{traced.detail['end_to_end'][name][0]:12.6g} {unit}")
        passes = [untraced, traced]
    else:
        run = workload.run_pass(args.seconds, setups=SETUPS)
        metrics = end_to_end(run)
        passes = [run]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [
            {"setup_s": p.setup_s, "ops": p.ops, "attempted": p.attempted,
             "cpu_per_op_s": p.cpu_per_op, "relative_cost": p.relative_cost,
             "reference_s": p.reference_s,
             "failed": p.failed, "latencies_s": p.latencies,
             "trace": p.trace, "detail": p.detail}
            for p in passes
        ],
    }
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    out = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{time.time_ns()}.json")
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} "
          f"({failed}/{attempted}); record {out}")
    invalid = [p for p in passes if p.detail.get("valid") is False]
    if invalid:
        print("perfbench: run invalid: the load generator fell behind its "
              f"schedule (late share {invalid[0].detail['late_share']:.3f})",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
