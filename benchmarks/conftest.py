"""Benchmark-suite configuration.

Each benchmark regenerates one artefact of the paper (see DESIGN.md's
experiment index) and *prints* the regenerated table/figure so that
``pytest benchmarks/ --benchmark-only -s`` doubles as a report generator.
The pytest-benchmark timings additionally quantify the cost of each
analysis step (model solve times, simulation throughput).

Besides the printed sections, benchmarks can attach machine-readable
records via :meth:`Reporter.record`; everything recorded in a session is
written as JSON to ``.benchmarks/engine_report.json`` (override with the
``REPRO_BENCH_JSON`` environment variable), so CI jobs can track
engine-level metrics — e.g. the serial-vs-parallel speedup measured by
``bench_engine_parallel.py`` — without scraping stdout.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

# Benchmarks compare against the reference implementations in tests/oracles.
_TESTS = pathlib.Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(_TESTS))

#: Default location of the session's machine-readable benchmark report.
DEFAULT_JSON_PATH = ".benchmarks/engine_report.json"


@pytest.fixture(scope="session")
def report(request):
    """Collector that prints rendered artefacts at session end and dumps
    recorded metrics as JSON."""
    sections: list[str] = []
    records: dict[str, object] = {}

    class Reporter:
        def add(self, title: str, body: str) -> None:
            sections.append(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}")

        def record(self, name: str, payload: object) -> None:
            """Attach a JSON-serialisable metric to the session report."""
            records[name] = payload

    yield Reporter()

    if records:
        path = pathlib.Path(
            os.environ.get("REPRO_BENCH_JSON", DEFAULT_JSON_PATH)
        )
        try:
            payload = json.dumps(
                records, indent=2, sort_keys=True, default=repr
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
        except (OSError, TypeError, ValueError) as exc:
            # A failed metric dump must never eat the printed report.
            sections.append(f"\n[bench] could not write {path}: {exc}")
        else:
            sections.append(
                f"\n[bench] wrote {len(records)} metric record(s) to {path}"
            )

    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    if capmanager is not None:
        with capmanager.global_and_fixture_disabled():
            for section in sections:
                print(section)
    else:  # pragma: no cover
        for section in sections:
            print(section)
