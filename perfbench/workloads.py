"""The benchmark's two workloads.

Every workload builds the same graph from its seed, ``erdos_renyi(1000,
num_edges=3000)`` with probabilities uniform in (0.05, 0.5], and drives
the program only through its public entry points: ``Session``,
``MaximizeQuery``, ``ReliabilityQuery`` and the ``repro serve`` HTTP
server.  A *pass* sets the workload up, measures it for a time budget
(or replays exactly ``limit`` operations), then checks every output.

* ``maximize-be`` — the paper's pipeline: elimination, top-l paths and
  BE selection, one caller in a closed loop.  Pure-Python path search
  and elimination dominate; ``index`` and ``serve`` do no work.
* ``serve-mixed`` — ``repro serve --store`` in its own process under an
  open-loop 95% read / 5% edge-edit mix.  Serving, the session caches,
  the store, and engine sweep and repair dominate; coin sampling does
  little because the batch is warm.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import loadgen
import reference
import tracing

#: Op costs are priced against the median reference sample (see
#: reference.py) over this many seconds around them.
WINDOW_S = 5.0
NUM_NODES = 1000
NUM_EDGES = 3000
P_LOW, P_HIGH = 0.05, 0.5


@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_s: List[float]
    #: Wall latency of each primary op, in seconds (reads on serve-mixed).
    latencies: List[float]
    #: CPU seconds the program spent per measured op.
    cpu_per_op: float
    #: Median op cost in reference computations run alongside it (see
    #: ``reference.py``), and the reference's median CPU seconds.
    relative_cost: float
    reference_s: float
    attempted: int
    failed: int
    #: Ops a replay must repeat to do the same work (see run.py).
    ops: int
    #: Per-layer aggregates over the measured ops, when traced.
    trace: Optional[dict] = None
    detail: Dict[str, object] = field(default_factory=dict)


def build_graph(seed: int):
    from repro.graph.generators import erdos_renyi
    from repro.graph.probability import assign_uniform

    graph = erdos_renyi(NUM_NODES, num_edges=NUM_EDGES, seed=seed)
    return assign_uniform(graph, P_LOW, P_HIGH, seed=seed)


def measure_setup(root: Path, seed: int, setups: int) -> List[float]:
    """Seconds a fresh interpreter takes to import the program, build the
    graph, construct a ``Session`` and compile its plan, once per set-up."""
    code = (
        "from workloads import build_graph; "
        "from repro import Session; "
        f"Session(build_graph({seed})).plan(); print('ready', flush=True)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]))
    elapsed = []
    for _ in range(setups):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip()
            elapsed.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or ready != "ready":
            raise RuntimeError("set-up probe failed")
    return elapsed


def own_cpu_s() -> float:
    """User plus system CPU seconds of this process, its threads and the
    children it has waited for.  Unlike wall time it leaves out the time
    the host gave the processor to someone else."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# maximize-be
# ----------------------------------------------------------------------
class MaximizeBE:
    name = "maximize-be"
    K = 5
    ZETA = 0.5
    #: More pairs than a run can reach; the last is the warm-up query.
    NUM_PAIRS = 400
    #: gain_mean covers this fixed prefix of the pair list, so it does
    #: not depend on how many queries fit in the time budget.
    GAIN_QUERIES = 12
    GAIN_SAMPLES = 4096
    #: A seed neither the selection sampler (session seed 0) nor the
    #: paired evaluation (seed 9999) uses.
    GAIN_SEED = 271_828

    def __init__(self, root: Path, seed: int) -> None:
        from repro.queries.workloads import sample_st_pairs

        self.root = root
        self.seed = seed
        self.pairs = sample_st_pairs(build_graph(seed), self.NUM_PAIRS,
                                     seed=seed)

    def run_pass(self, seconds: float, setups: int, limit: Optional[int] = None,
                 tracer: Optional[tracing.Tracer] = None) -> PassResult:
        from repro import MaximizeQuery, Session

        setup_s = measure_setup(self.root, self.seed, setups)
        session = Session(build_graph(self.seed))

        def query(pair: Tuple[int, int]):
            return session.run([MaximizeQuery(*pair, k=self.K, zeta=self.ZETA)])[0]

        latencies: List[float] = []
        spans: List[Tuple[float, float, float, int]] = []
        results = []
        failed = 0

        def attempt(pair: Tuple[int, int]) -> None:
            nonlocal failed
            try:
                results.append((pair, query(pair)))
            except Exception:
                _report_failure(f"maximize {pair}")
                failed += 1

        # The queries and the reference sampler share one processor.
        affinity = os.sched_getaffinity(0)
        cpu = reference.measured_cpu()
        os.sched_setaffinity(0, {cpu})
        undo = None
        try:
            with reference.Sampler(cpu) as sampler:
                # Warm-up off the clock on a pair the timed loop never
                # reaches: the first query pays the session's lazy set-up.
                query(self.pairs[-1])
                undo = tracing.install(tracer) if tracer is not None else None
                start = time.perf_counter()
                for pair in self.pairs:
                    if limit is not None and len(latencies) >= limit:
                        break
                    if limit is None and time.perf_counter() - start >= seconds:
                        break
                    began, began_cpu = time.perf_counter(), own_cpu_s()
                    attempt(pair)
                    ended = time.perf_counter()
                    latencies.append(ended - began)
                    spans.append((began, ended, own_cpu_s() - began_cpu, 1))
                samples = sampler.stop()
        finally:
            if undo is not None:
                undo()
            os.sched_setaffinity(0, affinity)
        measured = len(latencies)
        attempted = measured

        detail: Dict[str, object] = {}
        if tracer is None:
            # Quality, off the clock: top up to the fixed query prefix and
            # re-evaluate R_new - R_base on an independent seed.
            for pair in self.pairs[measured:self.GAIN_QUERIES]:
                attempt(pair)
                attempted += 1
            gains = [
                session.evaluate(s, t, result.edges, samples=self.GAIN_SAMPLES,
                                 seed=self.GAIN_SEED)
                - session.evaluate(s, t, samples=self.GAIN_SAMPLES,
                                   seed=self.GAIN_SEED)
                for (s, t), result in results[:self.GAIN_QUERIES]
            ]
            detail["gain_mean"] = statistics.fmean(gains) if gains else 0.0
            detail["gain_queries"] = len(gains)

        graph = session.graph
        for _, result in results:
            edges = result.edges
            ok = (
                len(edges) <= self.K
                and not any(graph.has_edge(u, v) for u, v, _ in edges)
                and result.new_reliability >= result.base_reliability
            )
            failed += not ok
        detail["queries"] = measured
        detail["relative_costs"] = reference.relative_costs(
            samples, spans, min(WINDOW_S, seconds / 5))
        return PassResult(
            setup_s=setup_s,
            latencies=latencies,
            cpu_per_op=sum(s[2] for s in spans) / measured,
            relative_cost=statistics.median(detail["relative_costs"]),
            reference_s=statistics.median(s[2] for s in samples),
            attempted=max(attempted, 1),
            failed=failed,
            ops=measured,
            trace=tracer.snapshot() if tracer is not None else None,
            detail=detail,
        )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeMixed:
    name = "serve-mixed"
    #: Open-loop arrival rate, about 40% of the closed-loop capacity of
    #: two connections on a 2-core host: low enough that a passing host
    #: slowdown does not push the single session worker to saturation
    #: (at 25 req/s one run in five did, doubling its tail).
    RATE = 20.0
    CONNECTIONS = 2
    WRITE_EVERY = 20
    #: The traffic shape is assumed, not taken from recorded traffic: a
    #: PATCH moves its edge's probability by up to DRIFT, like an estimate
    #: refined by new observations; sources follow Zipf(ZIPF_EXPONENT) and
    #: each asks about READ_TARGETS fixed targets.  These set the cache
    #: hit shares the traced run reports and requires to be partial.
    DRIFT = 0.1
    READ_SAMPLES = 1000
    READ_TARGETS = 4
    ZIPF_EXPONENT = 1.0
    WARM_SOURCES = 128
    NUM_REQUESTS = 3600
    NUM_PROBES = 8
    #: A run whose generator sent more than this share of its requests
    #: over LATE_S after they were due on a free connection is invalid:
    #: that delay is most of a typical read and inflates its latency.
    LATE_S = 0.020
    LATE_SHARE = 0.05
    START_TIMEOUT_S = 60.0

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        graph = build_graph(seed)
        rng = random.Random(seed)
        nodes = sorted(graph.nodes())
        by_rank = nodes[:]
        rng.shuffle(by_rank)
        weights = [1.0 / (rank + 1) ** self.ZIPF_EXPONENT
                   for rank in range(len(by_rank))]
        edges = sorted(graph.edges())
        rng.shuffle(edges)  # each PATCH takes the next, distinct, edge

        # Each source is always asked about the same targets, so a
        # popular source repeats an exact query and can hit the store's
        # result cache until the next edit changes the graph's hash.
        targets = {node: rng.sample(nodes, self.READ_TARGETS)
                   for node in nodes}

        def read() -> dict:
            source = rng.choices(by_rank, weights)[0]
            return {"source": source, "targets": targets[source],
                    "samples": self.READ_SAMPLES}

        # Every WRITE_EVERY-th request is a write, and writes alternate
        # between raising and lowering their edge's probability: a raise
        # lets the session resume its cached reach states, a lowering
        # drops them.  A fixed pattern keeps that mix equal across seeds.
        self.requests: List[loadgen.Request] = []
        for index in range(self.NUM_REQUESTS):
            if index % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                u, v, p = edges.pop()
                sign = 1 if index // self.WRITE_EVERY % 2 == 0 else -1
                p = round(p * (1 + sign * rng.uniform(0, self.DRIFT)), 6)
                self.requests.append(
                    ("write", "PATCH", "/edges", {"upserts": [[u, v, p]]}))
            else:
                self.requests.append(
                    ("read", "POST", "/reliability", read()))
        # Warm-up off the clock: one read per top-ranked source fills the
        # session's per-source reach cache to its steady state.
        self.warmup: List[loadgen.Request] = [
            ("read", "POST", "/reliability",
             {"source": source, "targets": targets[source],
              "samples": self.READ_SAMPLES})
            for source in by_rank[:self.WARM_SOURCES]
        ]
        self.probes = [read() for _ in range(self.NUM_PROBES)]
        self.graph = graph

    # ------------------------------------------------------------------
    def _start(self, workdir: Path, edge_file: Path, index: int,
               spans: Optional[Path]) -> Tuple[subprocess.Popen, int, float]:
        """Start a server on a fresh store; ``(process, port, setup_s)``."""
        store = workdir / f"store-{index}"
        serve_args = ["serve", "--file", str(edge_file), "--port", "0",
                      "--store", str(store)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            command = [sys.executable, str(launcher), str(spans), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        cpu = reference.measured_cpu()
        start = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
            # The server and the reference sampler share one processor.
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            port = None
            while port is None:
                line = process.stdout.readline()
                if not line:
                    raise RuntimeError("server exited before it was ready")
                if " on http://" in line:
                    port = int(line.rsplit(":", 1)[1])
                if time.perf_counter() - start > self.START_TIMEOUT_S:
                    raise RuntimeError("server did not start in time")
        except BaseException:
            _stop(process)
            raise
        return process, port, time.perf_counter() - start

    def run_pass(self, seconds: float, setups: int, limit: Optional[int] = None,
                 tracer: Optional[tracing.Tracer] = None) -> PassResult:
        from repro.api import GraphDelta, ReliabilityQuery, Session
        from repro.graph.io import read_edge_list, write_edge_list

        workdir = self.root / ".perfbench_work" / f"{os.getpid()}-{time.time_ns()}"
        workdir.mkdir(parents=True)
        edge_file = workdir / "graph.txt"
        write_edge_list(self.graph, edge_file)
        graph = read_edge_list(edge_file)  # what the server will serve
        spans = workdir / "spans.json" if tracer is not None else None
        processes: List[subprocess.Popen] = []
        try:
            setup_s = []
            for index in range(setups):
                process, port, elapsed = self._start(workdir, edge_file,
                                                     index, spans)
                processes.append(process)
                setup_s.append(elapsed)
                if index < setups - 1:
                    _stop(processes.pop())
            server = processes[-1]
            # The load generator keeps off the server's processor, when
            # there is another; its threads inherit this thread's mask.
            affinity = os.sched_getaffinity(0)
            cpu = reference.measured_cpu()
            os.sched_setaffinity(0, affinity - {cpu} or affinity)
            conns = [loadgen.Connection(port) for _ in range(self.CONNECTIONS)]
            try:
                with reference.Sampler(cpu, server.pid) as sampler:
                    warm = loadgen.closed_loop(conns, self.warmup)
                    health_before = conns[0].send("GET", "/healthz")[1]
                    trace_before = (_snapshot(server, spans) if spans
                                    else None)
                    count = (int(self.RATE * seconds) if limit is None
                             else limit)
                    began = time.perf_counter()
                    load = loadgen.open_loop(conns, self.requests, 0, count,
                                             self.RATE)
                    ended = time.perf_counter()
                    samples = [s for s in sampler.stop()
                               if began <= s[0] and s[1] <= ended]
                trace_after = _snapshot(server, spans) if spans else None
                health_after = conns[0].send("GET", "/healthz")[1]
                probed = [conns[0].send("POST", "/reliability", body)
                          for body in self.probes]
            finally:
                for conn in conns:
                    conn.close()
                os.sched_setaffinity(0, affinity)
            _stop(processes.pop())
        finally:
            for process in processes:
                _stop(process)
            shutil.rmtree(workdir, ignore_errors=True)

        failed = sum(not _valid(record.status, record.body, record.kind)
                     for record in load)
        failed += sum(not _valid(r.status, r.body, r.kind) for r in warm)
        # The edits touch distinct edges, so the final graph does not
        # depend on the order they arrived in.
        GraphDelta(upserts=tuple(
            tuple(self.requests[r.index][3]["upserts"][0])
            for r in load if r.kind == "write" and r.status == 200
        )).apply_to(graph)
        oracle = Session(graph).run([
            ReliabilityQuery(body["source"], targets=tuple(body["targets"]),
                             samples=body["samples"])
            for body in self.probes
        ])
        for (status, reply), expected in zip(probed, oracle):
            ok = _valid(status, reply, "read") and tuple(
                row["value"] for row in reply["results"]
            ) == expected.values
            failed += not ok

        reads = [r for r in load if r.kind == "read"]
        writes = [r for r in load if r.kind == "write"]
        late = sum(r.lateness > self.LATE_S for r in load)
        coalescer = _counter_delta(health_before, health_after, "coalescer")
        store = _counter_delta(health_before, health_after, "store",
                               "counters")
        lookups = store["result_hits"] + store["result_misses"]
        patches = [r.body["report"] for r in load
                   if r.kind == "write" and r.status == 200]
        detail: Dict[str, object] = {
            "reads": len(reads),
            "writes": len(writes),
            "write_p50_ms": 1000 * statistics.median(
                r.latency for r in writes) if writes else 0.0,
            "late_share": late / len(load),
            "lateness_p99_ms": 1000 * _quantile(
                [r.lateness for r in load], 0.99),
            "valid": late / len(load) <= self.LATE_SHARE,
            "batch_size": coalescer["batched_requests"]
            / max(coalescer["batches"], 1),
            "shed": coalescer["shed"],
            "result_hit_ratio": store["result_hits"] / lookups
            if lookups else 0.0,
            "resumed_states": statistics.fmean(
                p["resumed_states"] for p in patches) if patches else 0.0,
            "dropped_states": statistics.fmean(
                p["dropped_states"] for p in patches) if patches else 0.0,
            "service_s": sum(r.done - r.sent for r in load),
        }
        width = min(WINDOW_S, seconds / 5)
        windows = reference.windows(samples, [r.done for r in load], width)
        detail["relative_costs"] = reference.relative_costs(samples, windows,
                                                            width)
        recorded = None
        if tracer is not None:
            recorded = tracing.diff(trace_after, trace_before)
        return PassResult(
            setup_s=setup_s,
            latencies=[r.latency for r in reads],
            cpu_per_op=sum(w[2] for w in windows) / sum(w[3] for w in windows),
            relative_cost=statistics.median(detail["relative_costs"]),
            reference_s=statistics.median(s[2] for s in samples),
            attempted=len(load) + len(warm) + len(probed),
            failed=failed,
            ops=len(load),
            trace=recorded,
            detail=detail,
        )


def _valid(status: int, body: Optional[dict], kind: str) -> bool:
    if status != 200 or not isinstance(body, dict):
        return False
    if kind == "write":
        return body.get("status") == "patched"
    return all(0.0 <= row["value"] <= 1.0 for row in body["results"])


def _counter_delta(before: dict, after: dict, *path: str) -> Dict[str, float]:
    for key in path:
        before, after = before[key], after[key]
    return {key: after[key] - before[key] for key in after
            if isinstance(after[key], (int, float))}


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _snapshot(process: subprocess.Popen, path: Path) -> dict:
    """Ask the traced server for its span aggregates (SIGUSR1)."""
    if path.exists():
        path.unlink()
    process.send_signal(signal.SIGUSR1)
    deadline = time.perf_counter() + 10.0
    while not path.exists():
        if time.perf_counter() > deadline:
            raise tracing.TraceError("traced server wrote no span snapshot")
        time.sleep(0.01)
    return json.loads(path.read_text(encoding="utf-8"))


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL; always reaps."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


WORKLOADS = {w.name: w for w in (MaximizeBE, ServeMixed)}
