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
