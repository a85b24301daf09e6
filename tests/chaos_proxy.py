"""Fault injection for the service stack: the chaos proxy.

:class:`ChaosProxy` is a stdlib HTTP intermediary that sits between
clients/workers and the coordinator (`client → proxy → coordinator`)
and injects scripted faults into the traffic passing through it.  It is
how this repository *proves* its robustness claims: the chaos test
suite routes real submissions and real workers through a proxy with a
deterministic :class:`FaultPlan` and asserts the exactly-once and
byte-identity guarantees hold anyway.

It is a test harness, not part of the library: the service suites
import it from ``tests/`` (the benchmarks too, whose ``conftest.py``
puts ``tests/`` on ``sys.path``), and run as a script it proxies a live
coordinator from the command line::

    PYTHONPATH=src python tests/chaos_proxy.py \\
        --upstream http://127.0.0.1:8751 --port 8752 \\
        --fault 'latency:times=5' --fault 'kill:path=/lease,after=10' \\
        --kill-cmd 'pkill -9 -f "repro [s]erve --port 8751"'

Fault kinds (:data:`FAULT_KINDS`):

``refuse``
    Sever the connection without answering — the client sees a
    connection reset, indistinguishable from a dead coordinator.
``error``
    Answer a configurable 5xx (default 503) without forwarding — the
    overloaded/restarting-coordinator burst.
``latency``
    Sleep before forwarding — a network or GC spike.  The request
    still succeeds, so this fault finds timeout bugs, not retry bugs.
``truncate``
    Forward, then send the full ``Content-Length`` but only a prefix
    of the body — the client's read dies mid-response
    (``IncompleteRead``), the classic torn TCP stream.
``corrupt``
    Forward, then garble the response body (length preserved) — the
    client decodes garbage, which must surface as a protocol error,
    never as silently wrong results.
``kill``
    Invoke the proxy's *kill callback* (typically ``pkill`` of the
    coordinator process, or an in-process ``server.stop()``), then
    sever — the mid-request coordinator crash.  The durable queue must
    carry the job across the restart.
``drop``
    Swallow the request (read it fully, answer nothing) — a lossy
    network.  Used by the faulty-network benchmark variant.

Scripting: a :class:`FaultPlan` is an ordered list of
:class:`FaultRule`\\ s, each matching a method/path, optionally skipping
the first ``after`` matches, firing a bounded number of ``times`` with
a ``probability`` drawn from a *seeded* RNG — so a plan replays the
same fault sequence on every run.  Plans round-trip through JSON
(``--plan plan.json``) or terse command-line specs
(``--fault 'latency:path=/lease,times=3,latency=0.5'``), and the proxy
records every injection in :attr:`FaultPlan.injections` so tests can
assert the faults actually happened.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import subprocess
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence

from repro.errors import EngineError
from repro.service.coordinator import SERVE_POLL_SECONDS

#: The fault kinds a :class:`FaultRule` may inject.
FAULT_KINDS = frozenset(
    {"refuse", "error", "latency", "truncate", "corrupt", "kill", "drop"}
)

#: Response-body fault kinds that require forwarding first.
_BODY_FAULTS = frozenset({"truncate", "corrupt"})


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One scripted fault: what to inject, where, when, how often.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        path: substring the request path must contain (empty = any).
        method: HTTP method the request must use (empty = any).
        after: skip this many matching requests before becoming
            eligible (lets a plan let registration through and then
            break the lease loop).
        times: fire at most this many times; ``None`` fires forever.
        probability: chance of firing once eligible, drawn from the
            plan's seeded RNG (1.0 = always).
        latency: seconds slept by a ``latency`` fault.
        status: response code sent by an ``error`` fault.
        truncate_to: body bytes kept by a ``truncate`` fault.
    """

    kind: str
    path: str = ""
    method: str = ""
    after: int = 0
    times: int | None = 1
    probability: float = 1.0
    latency: float = 0.25
    status: int = 503
    truncate_to: int = 20

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        if self.after < 0:
            raise EngineError("fault 'after' must be >= 0")
        if self.times is not None and self.times < 1:
            raise EngineError("fault 'times' must be >= 1 (or omitted)")
        if not 0.0 < self.probability <= 1.0:
            raise EngineError("fault probability must be in (0, 1]")
        if self.latency < 0:
            raise EngineError("fault latency must be >= 0")
        if not 500 <= self.status <= 599:
            raise EngineError("fault status must be a 5xx code")
        if self.truncate_to < 0:
            raise EngineError("fault truncate_to must be >= 0")

    def matches(self, method: str, path: str) -> bool:
        """Whether a request is in this rule's scope (counters aside)."""
        if self.method and self.method.upper() != method.upper():
            return False
        return self.path in path

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict) or "kind" not in data:
            raise EngineError("fault rule must be an object with 'kind'")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise EngineError(
                f"unknown fault rule keys: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


class FaultPlan:
    """An ordered, seeded, replayable fault script.

    Rules are consulted in order for every request passing through the
    proxy; the first eligible rule that fires wins.  All counters and
    the RNG live behind one lock, so a threaded proxy still produces
    the deterministic sequence the seed implies (up to request arrival
    order — plans meant to be order-independent use ``probability=1``
    rules with disjoint paths).

    Attributes:
        injections: one record per injected fault (``seq``, ``kind``,
            ``method``, ``path``, ``rule`` index), in injection order —
            the audit log tests assert against.
    """

    def __init__(
        self, rules: Sequence[FaultRule] = (), *, seed: int = 0
    ) -> None:
        self.rules = list(rules)
        self.seed = seed
        self.injections: list[dict] = []
        self._rng = random.Random(seed)
        self._seen = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self._requests = 0
        self._lock = threading.Lock()

    def decide(self, method: str, path: str) -> FaultRule | None:
        """The fault to inject into this request, if any (thread-safe)."""
        with self._lock:
            self._requests += 1
            for index, rule in enumerate(self.rules):
                if not rule.matches(method, path):
                    continue
                self._seen[index] += 1
                if self._seen[index] <= rule.after:
                    continue
                if (
                    rule.times is not None
                    and self._fired[index] >= rule.times
                ):
                    continue
                if (
                    rule.probability < 1.0
                    and self._rng.random() >= rule.probability
                ):
                    continue
                self._fired[index] += 1
                self.injections.append(
                    {
                        "seq": len(self.injections),
                        "kind": rule.kind,
                        "method": method,
                        "path": path,
                        "rule": index,
                    }
                )
                return rule
            return None

    @property
    def requests(self) -> int:
        """Total requests inspected (injected or passed through)."""
        with self._lock:
            return self._requests

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_json() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise EngineError("fault plan must be a JSON object")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise EngineError("fault plan 'rules' must be a list")
        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise EngineError("fault plan 'seed' must be an integer")
        return cls(
            [FaultRule.from_json(rule) for rule in rules], seed=seed
        )

    @classmethod
    def from_specs(
        cls, specs: Sequence[str], *, seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from terse CLI specs (see :func:`parse_fault_spec`)."""
        return cls([parse_fault_spec(spec) for spec in specs], seed=seed)


def parse_fault_spec(spec: str) -> FaultRule:
    """Parse one ``kind[:key=value,...]`` CLI fault spec.

    Examples: ``latency:path=/lease,latency=0.5,times=3``,
    ``error:status=502,probability=0.2,times=``, ``kill:after=5``.
    An empty ``times=`` means unbounded.
    """
    kind, _, tail = spec.strip().partition(":")
    fields: dict = {"kind": kind.strip()}
    if tail:
        for part in tail.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise EngineError(
                    f"malformed fault spec part {part!r} in {spec!r} "
                    "(expected key=value)"
                )
            if key in ("path", "method"):
                fields[key] = value
            elif key in ("after", "status", "truncate_to"):
                fields[key] = int(value)
            elif key == "times":
                fields[key] = int(value) if value else None
            elif key in ("probability", "latency"):
                fields[key] = float(value)
            else:
                raise EngineError(
                    f"unknown fault spec key {key!r} in {spec!r}"
                )
    return FaultRule(**fields)


class _ChaosHandler(BaseHTTPRequestHandler):
    """Forwards one request to the upstream, unless a fault fires."""

    server: "ChaosProxy"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        """Quiet — the plan's injection log is the record that matters."""

    def _sever(self) -> None:
        """Drop the TCP connection without an HTTP response."""
        try:
            self.connection.close()
        except OSError:
            pass

    def _respond(
        self, status: int, body: bytes, *, body_bytes: int | None = None
    ) -> None:
        """Answer with ``status``; ``body_bytes`` truncates the actual
        write while still advertising the full Content-Length."""
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if body_bytes is None:
                self.wfile.write(body)
            else:
                self.wfile.write(body[:body_bytes])
                self.wfile.flush()
                self._sever()
        except OSError:
            pass

    def _forward(self, body: bytes | None) -> tuple[int, bytes]:
        """Relay the request upstream; returns ``(status, body)``."""
        request = urllib.request.Request(
            self.server.upstream + self.path,
            data=body,
            headers={"Content-Type": "application/json"},
            method=self.command,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.server.timeout
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def _handle(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        rule = self.server.plan.decide(self.command, self.path)
        if rule is not None:
            if rule.kind in ("refuse", "drop"):
                self._sever()
                return
            if rule.kind == "error":
                self._respond(
                    rule.status, b'{"error":"chaos: injected fault"}'
                )
                return
            if rule.kind == "kill":
                self.server.invoke_kill()
                self._sever()
                return
            if rule.kind == "latency":
                time.sleep(rule.latency)  # repro: ignore[bare-sleep-loop] the latency fault deliberately stalls this response
        try:
            status, payload = self._forward(body)
        except Exception as exc:  # repro: ignore[broad-except] the 502 boundary: any upstream fault becomes a bad-gateway answer
            message = json.dumps({"error": f"chaos upstream: {exc}"})
            self._respond(502, message.encode("utf-8"))
            return
        if rule is not None and rule.kind == "truncate":
            self._respond(
                status, payload, body_bytes=min(rule.truncate_to, len(payload))
            )
            return
        if rule is not None and rule.kind == "corrupt":
            payload = bytes(byte ^ 0x5A for byte in payload)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle()


class ChaosProxy(ThreadingHTTPServer):
    """A fault-injecting HTTP proxy in front of one upstream URL.

    Args:
        upstream: base URL of the coordinator (or worker) to shield.
        host: bind address.
        port: TCP port; ``0`` binds an ephemeral one (read :attr:`url`).
        plan: the scripted faults; an empty plan forwards everything.
        kill: optional callback run by a ``kill`` fault — in tests an
            in-process coordinator ``stop``, on the command line a
            ``pkill`` of the serve process.
        timeout: upstream per-request timeout.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        upstream: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        plan: FaultPlan | None = None,
        kill: Callable[[], None] | None = None,
        timeout: float = 60.0,
    ) -> None:
        super().__init__((host, port), _ChaosHandler)
        self.upstream = upstream.strip().rstrip("/")
        self.plan = plan if plan is not None else FaultPlan()
        self.kill = kill
        self.timeout = timeout
        self.kills = 0
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The base URL clients address instead of the upstream."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def invoke_kill(self) -> None:
        """Run the kill callback (``kill`` faults); never raises."""
        self.kills += 1
        if self.kill is None:
            return
        try:
            self.kill()
        except Exception:  # repro: ignore[broad-except] documented never-raises: a failing kill callback must not fault the proxy
            pass

    def handle_error(self, request, client_address) -> None:
        """Quiet the connection resets chaos deliberately causes."""
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError, OSError)):
            return
        super().handle_error(request, client_address)

    # ------------------------------------------------------------------
    def start(self) -> "ChaosProxy":
        """Serve in a daemon thread (in-process proxies for tests)."""
        thread = threading.Thread(
            target=self.serve_forever,
            args=(SERVE_POLL_SECONDS,),
            name=f"repro-chaos:{self.url}",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def main(argv: Sequence[str] | None = None) -> None:
    """Run the chaos proxy in the foreground until interrupted.

    Prints the listening URL first (the line scripts parse to discover
    an ephemeral port).  ``--kill-cmd`` is a shell command run by
    ``kill`` faults — typically a ``pkill`` of the coordinator process,
    letting a restart-loop wrapper demonstrate durable-queue recovery.
    """
    parser = argparse.ArgumentParser(
        description=(
            "fault-injecting proxy in front of a coordinator (point "
            "clients and workers at the proxy URL)"
        )
    )
    parser.add_argument(
        "--upstream",
        required=True,
        metavar="URL",
        help="the real coordinator URL to forward to",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--fault",
        action="append",
        metavar="SPEC",
        help=(
            "scripted fault as kind[:key=value,...] (repeatable, fires "
            "in order); kinds: refuse, error, latency, truncate, "
            "corrupt, kill, drop; e.g. 'latency:path=/lease,times=3' "
            "or 'error:status=502,probability=0.2,times='"
        ),
    )
    parser.add_argument(
        "--plan",
        metavar="PATH.json",
        help="load a FaultPlan JSON document instead of --fault specs",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed for probabilistic faults (deterministic replay)",
    )
    parser.add_argument(
        "--kill-cmd",
        metavar="CMD",
        help=(
            "shell command run by 'kill' faults (e.g. a pkill of the "
            "serve process; pair with a restart loop to demonstrate "
            "durable-queue recovery)"
        ),
    )
    args = parser.parse_args(argv)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(json.load(handle))
        if args.seed is not None:
            plan = FaultPlan(plan.rules, seed=args.seed)
    else:
        plan = FaultPlan.from_specs(args.fault or [], seed=args.seed or 0)
    kill: Callable[[], None] | None = None
    if args.kill_cmd:

        def kill() -> None:
            subprocess.run(args.kill_cmd, shell=True, check=False)

    proxy = ChaosProxy(
        args.upstream, args.host, args.port, plan=plan, kill=kill
    )
    print(
        f"chaos proxy listening on {proxy.url} (upstream {proxy.upstream})",
        flush=True,
    )
    try:
        proxy.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        proxy.server_close()


if __name__ == "__main__":
    main()
