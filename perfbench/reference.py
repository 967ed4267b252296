"""A fixed reference computation that tracks how fast the processor runs.

On a shared host the processor a benchmark runs on speeds up and slows
down with other tenants' load, with no steal time at all: on a 2-vCPU
host the same six BE queries took 3.3 s or 5.9 s of CPU time a minute
apart, and the two vCPUs went through such phases independently.  No
absolute time is steady over a series of runs, so the benchmark states
op costs as multiples of the CPU time of this reference computation,
run on the same vCPU at the same time as the measured process.

The reference uses nothing from the program, so a change to the program
cannot change it.  It mixes the program's two kinds of work: a
pure-Python shortest-path search over dicts and a heap (like ``paths``)
and numpy bitset sweeps over packed world columns (like ``engine``).

    python3 perfbench/reference.py CPU [PID]

runs it as a sampler pinned to processor ``CPU``: once every
``PERIOD_S`` until its standard input closes, then it prints one JSON
list of samples ``[start, end, reference_cpu_s, pid_cpu_s]`` (times on
``time.perf_counter``'s clock; the last field is the CPU seconds of
process ``PID`` at ``end``, or 0).
"""

from __future__ import annotations

import heapq
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: One sample every PERIOD_S keeps the sampler to about a tenth of the
#: processor it shares with the measured process.
PERIOD_S = 0.2
NODES = 3000
DEGREE = 4
SOURCES = (0, 600, 1200, 1800, 2400)
WORDS = 16
SWEEPS = 20

_rng = random.Random(0)
_GRAPH = {u: [(_rng.randrange(NODES), _rng.random()) for _ in range(DEGREE)]
          for u in range(NODES)}
_HEADS = np.array([[v for v, _ in _GRAPH[u]] for u in range(NODES)]).T.copy()
_COINS = np.random.default_rng(0).integers(
    0, 2**63, size=(DEGREE, NODES, WORDS), dtype=np.uint64)
# Preallocated, so the sweeps make no page faults: their system time
# varied with the host far more than the program's work did.
_REACH = np.empty((NODES, WORDS), dtype=np.uint64)
_GATHER = np.empty_like(_REACH)

#: (start, end, reference CPU seconds, watched process CPU seconds).
Sample = Tuple[float, float, float, float]


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``, its threads and
    the children it has waited for."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime and cstime: fields 14-17 of proc(5).
    return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def _thread_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_utime + usage.ru_stime


def _python() -> None:
    for source in SOURCES:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _GRAPH[u]:
                if d + w < dist.get(v, 2.0):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))


def _numpy() -> None:
    _REACH.fill(0)
    _REACH[list(SOURCES)] = ~np.uint64(0)
    for _ in range(SWEEPS):
        for k in range(DEGREE):
            np.take(_REACH, _HEADS[k], axis=0, out=_GATHER)
            np.bitwise_and(_GATHER, _COINS[k], out=_GATHER)
            np.bitwise_or(_REACH, _GATHER, out=_REACH)


def reference_cpu_s() -> float:
    """CPU seconds of the reference computation: of each part the faster
    of two runs back to back, so the figure is of warm caches whatever
    the measured process left in them."""
    total = 0.0
    for part in (_python, _numpy):
        times = []
        for _ in range(2):
            start = _thread_cpu_s()
            part()
            times.append(_thread_cpu_s() - start)
        total += min(times)
    return total


class Sampler:
    """The sampler as a child process pinned to ``cpu``, optionally also
    reading the CPU time of process ``pid``.  Leaving the ``with`` block
    kills it if ``stop`` was not called."""

    def __init__(self, cpu: int, pid: Optional[int] = None) -> None:
        args = [sys.executable, str(Path(__file__).resolve()), str(cpu)]
        if pid is not None:
            args.append(str(pid))
        self._process = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        if self._process.poll() is None:
            self._process.kill()
            self._process.communicate()

    def stop(self) -> List[Sample]:
        """Stop the sampler, wait for it and return its samples."""
        out, _ = self._process.communicate(input="", timeout=30)
        if self._process.returncode != 0:
            raise RuntimeError("reference sampler failed")
        return [tuple(sample) for sample in json.loads(out)]


def measured_cpu() -> int:
    """The processor the measured process and the sampler share."""
    return max(os.sched_getaffinity(0))


def windows(samples: Sequence[Sample], done: Sequence[float],
            width_s: float) -> List[Tuple[float, float, float, int]]:
    """Spans of at least ``width_s`` between samples, each with the
    watched process's CPU seconds and the number of ``done`` times in it
    (spans with none are left out)."""
    marks = list(samples[:1])
    for sample in samples[1:]:
        if sample[1] - marks[-1][1] >= width_s:
            marks.append(sample)
    spans = []
    for a, b in zip(marks, marks[1:]):
        ops = sum(a[1] < t <= b[1] for t in done)
        if ops:
            spans.append((a[1], b[1], b[3] - a[3], ops))
    return spans


def relative_costs(samples: Sequence[Sample],
                   spans: Sequence[Tuple[float, float, float, int]],
                   width_s: float) -> List[float]:
    """For each ``(start, end, cpu_s, ops)`` span, its CPU seconds per op
    divided by the median reference CPU time of the samples taken within
    ``width_s / 2`` of its middle (the nearest sample when none was)."""
    costs = []
    for start, end, cpu, ops in spans:
        middle = (start + end) / 2
        refs = [s[2] for s in samples
                if abs((s[0] + s[1]) / 2 - middle) <= width_s / 2]
        if not refs:
            refs = [min(samples, key=lambda s: abs(s[0] + s[1] - 2 * middle))[2]]
        costs.append(cpu / ops / statistics.median(refs))
    return costs


def main(argv: List[str]) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    pid = int(argv[1]) if len(argv) > 1 else None
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    samples = []
    while not stop.is_set():
        start = time.perf_counter()
        cpu = reference_cpu_s()
        end = time.perf_counter()
        samples.append([start, end, cpu,
                        process_cpu_s(pid) if pid is not None else 0.0])
        stop.wait(max(0.0, PERIOD_S - (end - start)))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
