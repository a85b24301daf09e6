"""A ``repro worker`` with the benchmark's tracing installed.

Used by the traced ``service-matrix`` run in place of ``python3 -m repro
worker ...``::

    python3 perfbench/worker.py TRACE.json worker --coordinator URL

The arguments after the trace path go to ``repro.cli.main`` unchanged.
When the worker stops (SIGINT), its spans and counts go to TRACE.json.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    tracer = tracing.Tracer(" ".join(argv[:1] + argv[-1:]))
    tracing.install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        tracing.write_json(trace_file, tracer.export())


if __name__ == "__main__":
    sys.exit(main())
