"""Diff two sets of benchmark records metric by metric and layer by layer.

    python3 perfbench/compare.py BASE_DIR_OR_FILES... --vs NEW_DIR_OR_FILES...

Each side is any mix of record files and directories of them, as
``perfbench/run.py`` writes to ``perfbench/results/``.  Records group by
workload and trace mode; for every metric the table shows each side's
median and quartile spread, and flags a change whose size exceeds the
run-to-run spread of either side (the distance between its first and
third quartile), so the answer to "which layer got slower" is the
flagged rows.  A side with a single record has no spread: any change is
flagged and marked so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent


def load(paths: List[str]) -> Dict[Tuple[str, int], List[dict]]:
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for name in paths:
        path = Path(name)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text(encoding="utf-8"))
            groups.setdefault((record["workload"], record["trace"]),
                              []).append(record)
    return groups


def summary(values: List[float]) -> Tuple[float, float]:
    """``(median, quartile spread)``; spread is 0 for a single value."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def directions() -> Dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base: Dict[Tuple[str, int], List[dict]],
            new: Dict[Tuple[str, int], List[dict]]) -> List[str]:
    better = directions()
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        rows.append(f"== {workload} (trace {trace}): "
                    f"{len(base[key])} vs {len(new[key])} runs")
        metrics = base[key][0]["metrics"]
        for name, meta in metrics.items():
            a = [r["metrics"][name]["value"] for r in base[key]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[key]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            (ma, sa), (mb, sb) = summary(a), summary(b)
            change = mb - ma
            spread = max(sa, sb)
            flag = ""
            if change and abs(change) > spread:
                worse = (change > 0) == (better.get(name) == "lower")
                flag = "WORSE" if worse else "better"
                if spread == 0:
                    flag += " (no spread: single runs)"
            rel = f"{100 * change / ma:+8.1f}%" if ma else "        "
            rows.append(
                f"  {name:30s} {ma:12.6g} -> {mb:12.6g} {meta['unit']:14s}"
                f" {rel}  spread {spread:10.4g}  {flag}"
            )
    missing = sorted(set(base) ^ set(new))
    for workload, trace in missing:
        rows.append(f"== {workload} (trace {trace}): only on one side")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+", help="baseline records")
    parser.add_argument("--vs", nargs="+", required=True,
                        help="records to compare against the baseline")
    args = parser.parse_args(argv)
    rows = compare(load(args.base), load(args.vs))
    print("\n".join(rows))
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
