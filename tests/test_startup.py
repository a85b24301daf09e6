"""What a fresh ``repro`` process loads before it does its work.

Every test here starts new interpreters: in-process CLI tests share one
interpreter in which every layer is already loaded, so they cannot see
a handler that lost an import, or a light command that loads a layer it
does not use.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import _BATCHES, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``python -m repro ARGV`` (through the same ``runpy`` entry as
#: ``-m``) and writes the names of the loaded modules to stderr last.
_COMMAND = """
import json, runpy, sys
sys.argv = ["repro", *{argv!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)) + "\\n")
"""

#: ``repro worker`` up to its ``/register``, which dumps the loaded
#: modules instead of contacting the (unused) coordinator URL.
_WORKER = """
import json, os, sys
from repro.cli import main
from repro.service.pull import PullWorker

def register(self):
    sys.stdout.write(json.dumps(sorted(sys.modules)))
    sys.stdout.flush()
    os._exit(0)

PullWorker.register = register
main(["worker", "--coordinator", "http://127.0.0.1:9"])
"""

#: Light commands, each printed identically by a fresh process.
LIGHT = ("table2", "table3", "platform", "models", "scenarios", "families")


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def _loads(modules, *packages: str) -> list[str]:
    """The modules of ``packages`` (each a package or module name) in
    ``modules``."""
    return sorted(
        name
        for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )


@pytest.fixture(scope="module")
def fresh():
    """command -> (stdout, loaded modules) of a fresh ``python -m repro``."""

    def run(command: str) -> tuple[str, list[str]]:
        done = _python(_COMMAND.format(argv=[command]))
        return done.stdout, json.loads(done.stderr.splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(LIGHT, pool.map(run, LIGHT)))


def test_parser_loads_no_layer():
    done = _python(
        "import json, sys\n"
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = json.loads(done.stdout)
    assert "repro.cli" in modules
    assert not _loads(
        modules,
        "numpy",
        "sqlite3",
        "repro.store",
        "repro.service",
        "repro.sim",
        "repro.ilp",
        "repro.analysis",
        "repro.engine",
    )


@pytest.mark.parametrize("command", ["table3", "platform"])
def test_light_command_loads_no_store_or_service(fresh, command):
    _, modules = fresh[command]
    assert not _loads(modules, "sqlite3", "repro.store", "repro.service")


def test_platform_loads_no_numpy(fresh):
    _, modules = fresh["platform"]
    assert not _loads(modules, "numpy", "repro.analysis", "repro.engine")


@pytest.mark.parametrize("command", LIGHT)
def test_fresh_command_prints_what_main_prints(fresh, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command]) == 0
    assert fresh[command][0] == out.getvalue()


def _job_modules() -> set[str]:
    """Every module a worker imports to unpickle a batch command's jobs."""
    modules: set[str] = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            modules.add(module)
            return super().find_class(module, name)

    for argv in (
        ["figure4"],
        ["matrix", "--spec", "scenario1-pair-H", "--model", "ilp-ptac"],
        ["family", "dma-pressure", "--member",
         "dma-pressure/scenario1-qd1-p24-c8000"],
        ["soundness", "--pairs", "1", "--requests", "50"],
    ):
        for job in _BATCHES[argv[0]].jobs(build_parser().parse_args(argv)):
            Recorder(io.BytesIO(pickle.dumps(job))).load()
    return modules


def test_worker_loads_the_job_layer_before_registering():
    modules = set(json.loads(_python(_WORKER).stdout))
    needed = _job_modules() | {"repro.analysis"}
    assert "repro.analysis.experiments" in needed
    assert needed <= modules, sorted(needed - modules)


def test_every_export_resolves_and_is_listed():
    done = _python(
        "import repro, repro.service\n"
        "for package in (repro, repro.service):\n"
        "    listed = dir(package)\n"
        "    missing = [n for n in package.__all__ if n not in listed]\n"
        "    assert not missing, missing\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "print('ok')\n"
    )
    assert done.stdout == "ok\n"

