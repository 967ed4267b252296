"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces each layer's public
functions, at the module or class where their callers look them up,
with timing wrappers.  Every wrapper records one span per call into an
in-memory aggregate: calls, total seconds and *self* seconds (the
span's duration minus the time covered by wrapped calls nested inside
it on the same thread).

Installing fails with :class:`TraceError` when a wrapped name no longer
exists, and :func:`check_expected` fails when a layer a workload must
exercise recorded no calls, so a refactor that moves or renames a layer
breaks the traced run instead of silently dropping that layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded no calls."""


def _coin_bytes(args: tuple, kwargs: dict, result: Any) -> Tuple[str, float]:
    # sample_worlds(plan, num_samples, ...): one coin per edge and world.
    plan = args[0] if args else kwargs["plan"]
    samples = args[1] if len(args) > 1 else kwargs["num_samples"]
    return "engine.sample.coin_bytes", plan.num_edges * samples / 8.0


def _reach_lookups(args: tuple, kwargs: dict,
                   result: Any) -> Tuple[str, float]:
    # pair_hit_fractions(plan, batch, pairs, ...): one reach-cache lookup
    # per distinct source.
    pairs = args[2] if len(args) > 2 else kwargs["pairs"]
    return "api.reach.lookups", float(len({s for s, _ in pairs}))


def _swept_sources(args: tuple, kwargs: dict,
                   result: Any) -> Tuple[str, float]:
    # batch_reach(_multi)(plan, batch, source_indices, ...)
    sources = args[2] if len(args) > 2 else kwargs["source_indices"]
    return "engine.sweep.sources", float(len(sources))


def _candidates(args: tuple, kwargs: dict, result: Any) -> Tuple[str, float]:
    return "core.candidates", float(len(result.edges))


# (module, attribute, span name, counts calls, extra counter).  A dotted
# attribute names a method on a class; module attributes are patched in
# the module whose code calls them, which is where the lookup happens.
PATCHES: List[Tuple[str, str, str, bool, Optional[Callable]]] = [
    ("repro.api.maximize", "select_top_l_paths", "paths.top_l", True, None),
    ("repro.core.search_space", "top_l_most_reliable_paths",
     "paths.top_l", False, None),
    ("repro.paths.yen", "most_reliable_path", "paths.dijkstra", True, None),
    ("repro.api.maximize", "eliminate_search_space", "core.eliminate",
     True, _candidates),
    ("repro.api.maximize", "batch_selection", "core.select", True, None),
    ("repro.paths.dijkstra", "build_overlay", "reliability.overlay",
     True, None),
    ("repro.reliability.rss", "build_overlay", "reliability.overlay",
     True, None),
    ("repro.reliability.rss", "RecursiveStratifiedSampler.reliability",
     "reliability.estimate", True, None),
    ("repro.reliability.rss", "RecursiveStratifiedSampler.reachability_from",
     "reliability.estimate", True, None),
    ("repro.reliability.estimator", "ReliabilityEstimator.reachability_to",
     "reliability.estimate", True, None),
    ("repro.reliability.estimator", "ReliabilityEstimator.reliability_many",
     "reliability.estimate", True, None),
    ("repro.api.session", "sample_worlds", "engine.sample", True, _coin_bytes),
    ("repro.engine.batch", "sample_worlds", "engine.sample", True,
     _coin_bytes),
    ("repro.api.session", "pair_hit_fractions", "engine.sweep", False,
     _reach_lookups),
    ("repro.engine.batch", "pair_hit_fractions", "engine.sweep", False, None),
    ("repro.engine.batch", "batch_reach", "engine.sweep", True,
     _swept_sources),
    ("repro.engine.batch", "batch_reach_multi", "engine.sweep", True,
     _swept_sources),
    ("repro.api.session", "compile_plan", "engine.compile", True, None),
    ("repro.reliability.rss", "build_query_plan", "engine.compile", True,
     None),
    ("repro.engine.batch", "build_query_plan", "engine.compile", True, None),
    ("repro.api.session", "repair_batch", "engine.repair", True, None),
    ("repro.api.session", "batch_reach_resume", "engine.resume", True, None),
    ("repro.api.session", "Session.run", "api.run", True, None),
    ("repro.api.session", "Session.apply_delta", "api.delta", True, None),
    ("repro.index.store", "IndexStore.get_results", "index.store", True, None),
    ("repro.index.store", "IndexStore.put_results", "index.store", True, None),
    ("repro.index.store", "IndexStore.load_batch", "index.store", True, None),
    ("repro.index.store", "IndexStore.save_batch", "index.store", True, None),
    ("repro.serve.http", "parse_reliability_query", "serve.http", True, None),
    ("repro.serve.http", "parse_delta", "serve.http", True, None),
    ("repro.serve.http", "reliability_response", "serve.http", True, None),
]

#: The coalescer's submit is a coroutine: its span interleaves with
#: other requests on the event loop, so it is timed apart from the
#: per-thread stack and only feeds the coalescing-wait metric.
SUBMIT_PATCH = ("repro.serve.async_session", "AsyncSession.submit")

#: Layers each workload must exercise; zero calls on one is an error.
EXPECTED = {
    "maximize-be": (
        "paths.top_l", "paths.dijkstra", "core.eliminate", "core.select",
        "reliability.overlay", "reliability.estimate", "engine.sample",
        "engine.sweep", "engine.compile", "api.run",
    ),
    "serve-mixed": (
        "serve.http", "serve.coalesce", "api.run", "api.delta",
        "engine.sweep", "engine.compile", "engine.repair", "engine.resume",
        "index.store",
    ),
}


class Tracer:
    """Aggregated spans and counters, safe across threads."""

    def __init__(self) -> None:
        # Re-entrant: the serve launcher snapshots from a signal handler
        # that may interrupt its own thread inside _record.
        self._lock = threading.RLock()
        self._local = threading.local()
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.counters: Dict[str, float] = {}
        self.top_level_s = 0.0
        # id(query) -> seconds of the Session.run that carried it.
        self._carrier: Dict[int, float] = {}
        self.coalesce_wait_s = 0.0
        self.submits = 0

    # ------------------------------------------------------------------
    def _record(self, name: str, count: bool, total: float, self_s: float,
                top: bool) -> None:
        with self._lock:
            row = self.spans.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += 1.0 if count else 0.0
            row[1] += total
            row[2] += self_s
            if top:
                self.top_level_s += total

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, fn: Callable, name: str, count: bool,
             counter: Optional[Callable]) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._record(name, count, elapsed, elapsed - children[0],
                             not stack)
            if counter is not None:
                self.count(*counter(args, kwargs, result))
            if name == "api.run":
                workload = args[1] if len(args) > 1 else kwargs["workload"]
                for query in getattr(workload, "queries", workload):
                    self._carrier[id(query)] = elapsed
            return result

        return wrapper

    def wrap_submit(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def submit(session: Any, query: Any, *args: Any,
                         **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return await fn(session, query, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                run_s = self._carrier.pop(id(query), 0.0)
                with self._lock:
                    self.submits += 1
                    self.coalesce_wait_s += max(elapsed - run_s, 0.0)

        return submit

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready copy of every aggregate."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "top_level_s": self.top_level_s,
                "coalesce_wait_s": self.coalesce_wait_s,
                "submits": self.submits,
            }

    def write(self, path: str) -> None:
        """Atomically write :meth:`snapshot` to ``path``."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, name, current value)``; :class:`TraceError` if gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise TraceError(f"traced module {module_name} is gone: {error}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"traced name {module_name}.{attribute} is gone")
    if name not in vars(owner):
        raise TraceError(f"traced name {module_name}.{attribute} is gone")
    return owner, name, vars(owner)[name]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced name; returns a function that restores them."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, span, count, counter in PATCHES:
            owner, name, original = _resolve(module_name, attribute)
            undo.append((owner, name, original))
            setattr(owner, name, tracer.wrap(original, span, count, counter))
        owner, name, original = _resolve(*SUBMIT_PATCH)
        undo.append((owner, name, original))
        setattr(owner, name, tracer.wrap_submit(original))
    except BaseException:
        restore(undo)
        raise
    return functools.partial(restore, undo)


def restore(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def diff(after: dict, before: Optional[dict]) -> dict:
    """Aggregates recorded between two snapshots."""
    if before is None:
        return after
    spans = {}
    for name, row in after["spans"].items():
        old = before["spans"].get(name, [0.0, 0.0, 0.0])
        spans[name] = [a - b for a, b in zip(row, old)]
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    return {
        "spans": spans,
        "counters": counters,
        **{key: after[key] - before[key]
           for key in ("top_level_s", "coalesce_wait_s", "submits")},
    }


def check_expected(workload: str, recorded: dict) -> None:
    """Raise :class:`TraceError` if an expected layer recorded no calls."""
    missing = []
    for name in EXPECTED[workload]:
        if name == "serve.coalesce":
            if recorded["submits"] <= 0:
                missing.append(name)
        elif recorded["spans"].get(name, [0.0])[0] <= 0:
            missing.append(name)
    if missing:
        raise TraceError(
            f"{workload}: expected layers recorded no calls: "
            + ", ".join(missing)
        )
