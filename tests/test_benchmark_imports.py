"""Every benchmark script imports against the current library.

Most paper benchmarks run in no CI job, so a name the library drops
would otherwise surface only when someone next runs them by hand.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmark_scripts_found():
    assert len(SCRIPTS) >= 30


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_benchmark_imports(path, monkeypatch):
    # Paper benchmarks import their shared helpers as ``_common``;
    # sys.path and sys.modules are restored after the test.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    name = f"_bench_import_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
