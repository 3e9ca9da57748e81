"""The http_hits workload: result-cache hits through ``repro serve``.

One client holds one ``http.client.HTTPConnection`` to ``repro serve
--workers 1`` running as a child process. It sends ``/predict`` bodies
from a seeded working set, warmed once, so every well-formed timed
request is a result-cache hit and the time goes to the transport.

Three fixed malformed bodies ride along in every round. The right
answer to each is a 4xx with a reason; an answer of any other kind
counts the request as failed.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from harness import checks, layers, modelset
from harness.pace import NOMINAL_PACE_US, NOMINAL_TRANSPORT_US, Pacer, \
    probe_us, scale_at
from harness.runner import Op, SetupContext, child_peak_rss_mb, timed_loop
from harness.service_loads import BANDWIDTH_RANGE, accuracy_check, \
    fresh_service

#: Well-formed bodies in the working set (well inside the server's
#: 1024-entry result cache).
WORKING_SET = 97

#: Known-fault bodies, in every round at fixed positions. Each should be
#: answered with a 4xx and a reason.
FAULT_BODIES = tuple(
    {"model": "igkw", "network": "resnet50", "batch_size": 64,
     "gpu": "V100", "bandwidth": value}
    for value in ("abc", "nan", "Infinity"))
FAULT_POSITIONS = (32, 65, 98)

HEADERS = {"Content-Type": "application/json"}
START_TIMEOUT_S = 60.0

#: Requests per transport probe.
TRANSPORT_REQUESTS = 3


class CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts how often it (re)connects.

    ``http.client`` reopens the socket by itself after the server closes
    it, so against an HTTP/1.0 server this counts one connect per
    request and against a keep-alive server one per connection.
    """

    connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


def working_set(seed: int) -> List[Dict]:
    """Distinct well-formed bodies; models cycle, the rest is seeded."""
    rng = random.Random(f"perfbench|http_hits|{seed}")
    bodies: List[Dict] = []
    keys = set()
    models = ("kw-a100", "lw-a40", "igkw")
    while len(bodies) < WORKING_SET:
        body = {"model": models[len(bodies) % len(models)],
                "network": rng.choice(modelset.NETWORKS),
                "batch_size": rng.choice(modelset.BATCHES)}
        # single-GPU models ignore the target but echo it, and it is
        # part of the cache key, so it widens their share of the set
        body["gpu"] = rng.choice(modelset.TABLE1_GPUS)
        if body["model"] == "igkw" and rng.random() < 0.5:
            body["bandwidth"] = round(rng.uniform(*BANDWIDTH_RANGE), 3)
        key = json.dumps(body, sort_keys=True)
        if key not in keys:
            keys.add(key)
            bodies.append(body)
    return bodies


def round_bodies(seed: int) -> List[Dict]:
    bodies = working_set(seed)
    for position, fault in zip(FAULT_POSITIONS, FAULT_BODIES):
        bodies.insert(position, fault)
    return bodies


@dataclass
class HttpState:
    directory: Path
    process: subprocess.Popen
    connection: CountingConnection
    #: position in the round -> distinct answer bodies seen there
    seen: Dict[int, Set[bytes]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _child_env() -> Dict[str, str]:
    """The environment of a child that imports the program or the harness."""
    here = Path(__file__).resolve()
    return dict(os.environ, PYTHONUNBUFFERED="1",
                PYTHONPATH=os.pathsep.join([str(here.parents[2] / "src"),
                                            str(here.parents[1])]))


def start_server(directory: Path, spans: Optional[Path] = None
                 ) -> subprocess.Popen:
    """``repro serve`` on an ephemeral port; through the tracing launcher
    when ``spans`` names the file it should write its spans to."""
    serve = ["serve", "--models", str(directory), "--port", "0",
             "--workers", "1"]
    if spans is None:
        command = [sys.executable, "-m", "repro"] + serve
    else:
        command = [sys.executable, "-m", "harness.launcher",
                   str(spans)] + serve
    log = open(directory / "server.log", "wb")
    try:
        return subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=log, env=_child_env(),
                                preexec_fn=_default_sigint)
    finally:
        log.close()


def _default_sigint() -> None:
    # a benchmark started in the background of a non-interactive shell
    # inherits SIGINT ignored, and so would the server: it then never
    # sees the interrupt that stops it cleanly
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def connect(process: subprocess.Popen) -> CountingConnection:
    """Wait for the server's banner line and connect to the port it names."""
    line = process.stdout.readline().decode()
    if not line.startswith("serving "):
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
    return CountingConnection(host, int(port), timeout=START_TIMEOUT_S)


def post(connection: CountingConnection, body: bytes):
    connection.request("POST", "/predict", body, HEADERS)
    response = connection.getresponse()
    return response.status, response.read()


def stop_server(process: subprocess.Popen) -> None:
    """Interrupt the server (it shuts down cleanly) and wait for it."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


class TransportProbe:
    """Timed requests to the benchmark's own trivial HTTP server.

    Starts ``harness.probe_server`` as a child process (pinned with the
    rest of the benchmark) and times requests to it carried exactly as
    the timed requests are: one connection per request, one server
    thread per connection.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "harness.probe_server"],
            stdout=subprocess.PIPE, env=_child_env(),
            preexec_fn=_default_sigint)
        try:
            line = self.process.stdout.readline().decode()
            if not line.startswith("port "):
                raise RuntimeError(f"probe server did not start: {line!r}")
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", int(line.split()[1]), timeout=START_TIMEOUT_S)
        except BaseException:
            stop_server(self.process)
            raise

    def probe_us(self) -> float:
        """Mean time of one request, over ``TRANSPORT_REQUESTS``."""
        start = time.perf_counter_ns()
        for _ in range(TRANSPORT_REQUESTS):
            status, _ = post(self.connection, b"{}")
            if status != 200:
                raise RuntimeError(f"probe server answered {status}")
        return (time.perf_counter_ns() - start) / 1e3 / TRANSPORT_REQUESTS

    def close(self) -> None:
        self.connection.close()
        stop_server(self.process)


class HttpHits:
    name = "http_hits"

    def __init__(self, seed: int) -> None:
        self.bodies = round_bodies(seed)
        self.payloads = [json.dumps(body).encode() for body in self.bodies]

    @contextlib.contextmanager
    def pacing(self) -> Iterator[Pacer]:
        """Pace by the reference loop and the transport probe together.

        A hit is Python work on both sides and transport between them:
        loopback TCP, a server thread per connection, waking the server.
        Neighbours slow the two by different amounts, so the probe is the
        geometric mean of the reference loop and one transport probe.
        """
        transport = TransportProbe()
        try:
            yield Pacer(
                nominal_us=math.sqrt(NOMINAL_PACE_US * NOMINAL_TRANSPORT_US),
                probe=lambda: math.sqrt(probe_us() * transport.probe_us()))
        finally:
            transport.close()

    def setup(self, context: SetupContext) -> HttpState:
        directory = context.directory
        context.step("train", lambda: modelset.train(directory))
        context.step("compile_store",
                     lambda: modelset.compile_plans(directory))
        return self.serve(context, directory, None)

    def serve(self, context: SetupContext, directory: Path,
              spans: Optional[Path]) -> HttpState:
        """Start a server, wait for its first answer, warm one round.

        The warm round includes the fault bodies, so the timed rounds all
        look alike: only the ``nan`` body, which never hits the cache,
        reaches the plan layer.
        """
        process = start_server(directory, spans)
        try:
            def first_answer() -> CountingConnection:
                connection = connect(process)
                status, body = post(connection, self.payloads[0])
                if status != 200:
                    raise RuntimeError(f"first /predict answered {status}: "
                                       f"{body[:200]!r}")
                return connection

            connection = context.step("server", first_answer)
            context.step("warm", lambda: [post(connection, payload)
                                          for payload in self.payloads[1:]])
        except BaseException:
            stop_server(process)
            raise
        return HttpState(directory, process, connection)

    def round(self, state: HttpState) -> List[Op]:
        ops = []
        connection = state.connection
        for position, payload in enumerate(self.payloads):
            start = time.perf_counter()
            status, body = post(connection, payload)
            elapsed = time.perf_counter() - start
            if position in FAULT_POSITIONS:
                ok = checks.fault_answered(status, body)
            else:
                ok = status == 200
                if ok:
                    state.seen.setdefault(position, set()).add(body)
                else:
                    state.problems.append(
                        f"well-formed body {position} answered {status}: "
                        f"{body[:200]!r}")
            ops.append((elapsed, ok, 1))
        return ops

    def check(self, state: HttpState) -> List[str]:
        service = fresh_service(state.directory)
        problems = state.problems[:3]
        for position, answers in sorted(state.seen.items()):
            expected = json.loads(json.dumps(
                service.predict(self.bodies[position])))
            for body in answers:
                problems += checks.http_hit(body, expected)
        return problems[:3] + accuracy_check(state.directory)

    def traced_phase(self, state: HttpState, pacer: Pacer, seconds: float,
                     work: Path):
        """Restart the server through the tracing launcher and time it."""
        self.teardown(state)
        spans_path = work / "server-spans.json"
        context = SetupContext(pacer, state.directory)
        traced = self.serve(context, state.directory, spans_path)
        traced.seen = state.seen
        traced.problems = state.problems
        connects = traced.connection.connects
        timed = timed_loop(pacer, seconds, lambda: self.round(traced))
        connects = traced.connection.connects - connects
        self.teardown(traced)                 # the launcher writes its spans
        with open(spans_path) as handle:
            document = json.load(handle)
        spans = layers.paced_spans(document["spans"], timed.windows)
        values = layers.span_metrics(
            spans, {int(key): role for key, role
                    in document["roles"].items()}, timed.items, 0)
        predict_us = statistics.median(
            span[1] for span in spans if span[0] == "core.predict")
        values["server.connects_per_request"] = connects / timed.attempted
        values["server.transport_us"] = (
            statistics.median(timed.op_ms) * 1e3 - predict_us)
        # the registry scan ran inside the "server" start-up step
        values["planopt.load_s"] = sum(
            duration * scale_at(context.windows, start)
            for name, start, duration, _, _ in document["spans"]
            if name == "planopt.load_plans") / 1e9
        return traced, timed, values

    def rss_mb(self, state: HttpState) -> float:
        return child_peak_rss_mb(state.process.pid)

    def teardown(self, state: HttpState) -> None:
        state.connection.close()
        stop_server(state.process)
