"""The repository benchmark's traced layers still exist in the library.

``perfbench/tracing.py`` wraps named functions in ``repro`` to record
per-layer spans, and fails with ``TraceError`` when a name is gone.
Only a full traced benchmark run would otherwise notice a renamed or
moved layer; this test installs and removes the wrappers without
running any workload.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing(monkeypatch):
    # Read-only on perfbench/: no bytecode written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", PERFBENCH_DIR / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "_perfbench_tracing", module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_restores(monkeypatch):
    tracing = load_tracing(monkeypatch)
    entries = [entry[:2] for entry in tracing.PATCHES]
    entries.append(tracing.SUBMIT_PATCH)
    originals = [tracing._resolve(*entry)[2] for entry in entries]

    undo = tracing.install(tracing.Tracer())
    try:
        for entry, original in zip(entries, originals):
            assert tracing._resolve(*entry)[2] is not original, entry
    finally:
        undo()
    for entry, original in zip(entries, originals):
        assert tracing._resolve(*entry)[2] is original, entry


def test_be_query_records_every_expected_layer(monkeypatch):
    """A small BE query reaches every layer the benchmark expects.

    Resolving names is not enough: a layer that calls the engine
    through a different module global (or compiles its plan through
    another entry point) leaves its traced name unused, and the traced
    benchmark then fails with ``TraceError``.  This runs the paper's
    pipeline once under the tracer and checks every expected layer
    recorded at least one call.  As in the benchmark, a warm-up query
    runs first, so the session's cached plan and world batch do not
    stand in for the per-query layers.
    """
    from repro import MaximizeQuery, Session
    from repro.graph import assign_uniform, erdos_renyi

    tracing = load_tracing(monkeypatch)
    graph = assign_uniform(erdos_renyi(150, num_edges=450, seed=4),
                           0.05, 0.5, seed=4)
    session = Session(graph, r=20, l=10)
    session.run([MaximizeQuery(3, 90, k=2, zeta=0.5)])
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        result = session.run([MaximizeQuery(0, 75, k=2, zeta=0.5)])[0]
    finally:
        undo()
    assert result.edges
    recorded = tracer.snapshot()
    tracing.check_expected("maximize-be", recorded)
    for name in tracing.EXPECTED["maximize-be"]:
        assert recorded["spans"][name][0] >= 1, name
