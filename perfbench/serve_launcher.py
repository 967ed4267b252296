"""Start ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_launcher.py SPANS_JSON serve --file ... [args]

Wraps every traced name (see ``tracing.PATCHES``) inside this process,
then hands the remaining arguments to the ``repro`` command line, so the
server is configured exactly as ``python -m repro serve`` would be.  On
SIGUSR1 the current span aggregates are written to ``SPANS_JSON``; the
benchmark diffs two such snapshots around its measured load.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path


def main(argv: list) -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import tracing
    from repro.cli import main as repro_main

    spans_path, repro_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.write(spans_path))
    return repro_main(repro_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
