"""Drivers of the service workloads: a ``python -m repro serve``
subprocess driven by ``ServiceClient`` over real sockets.

Load comes from this process: a closed loop of two clients, each a
thread with its own keep-alive connection.  A closed loop fits because
the service's callers block on each reply (``ServiceClient.size``,
campaign tooling, ``examples/query_service.py``).  Before the timed
window one more client fills the hot set, one request at a time, and on
service-warm then sends the miss probes.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import ledger
from common import BENCH, OWN_MODULES, PYTHON, SETUP_SAMPLES, Child, Outcome, percentile
from workloads import (
    HOT_SET, WARM_MISS_PROBES, fresh_jobs, mixed_requests, warm_requests,
)

from repro.errors import ServiceError
from repro.service import ServiceClient
from repro.sizing.serialize import canonical_json

CLIENTS = 2
LAUNCHER = BENCH / "serve_traced.py"


def _config(workload: str, work: Path) -> list[str]:
    """``serve`` arguments of each workload (all state under ``work``)."""
    if workload == "service-warm":
        # The default serve config: in-memory job store, disk cache.
        return ["--jobs", "1", "--cache-dir", str(work / "cache"),
                "--run-dir", str(work / "run")]
    # The fleet config: shared sqlite queue and cache.
    return ["--jobs", "1", "--queue", str(work / "queue.db"),
            "--cache-backend", f"sqlite:{work / 'cache.db'}",
            "--run-dir", str(work / "run")]


def _requests(workload: str, seed: int, client: int):
    if workload == "service-warm":
        return warm_requests(seed, client)
    return mixed_requests(seed, client, CLIENTS)


class Server:
    """One server process: spawned, ready (first healthz 200), stopped."""

    def __init__(self, workload: str, work: Path, name: str, traced: bool = False):
        self.dir = work / name
        self.dir.mkdir()
        args = ["--port", "0", *_config(workload, self.dir)]
        if traced:
            self.ledger_path = self.dir / "ledger.json"
            self.phase_path = self.dir / "phase"
            argv = [PYTHON, "-X", "importtime", str(LAUNCHER),
                    str(self.ledger_path), str(self.phase_path), "--", *args]
        else:
            argv = [PYTHON, "-m", "repro", "serve", *args]
        self.child = Child(argv, work / f"{name}.stderr")
        line = self.child.readline(60)
        match = re.search(r"(http://\S+)", line)
        if match is None:
            raise RuntimeError(f"{name}: unexpected first line {line!r}")
        self.url = match.group(1)
        with ServiceClient(self.url, retries=0, timeout=30) as client:
            client.healthz()
        self.setup_s = time.perf_counter() - self.child.started

    def next_phase(self, expected: str) -> None:
        """Advance a traced server's ledger phase and wait for the ack."""
        self.child.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if self.phase_path.exists() and self.phase_path.read_text() == expected:
                return
            time.sleep(0.005)
        raise RuntimeError(f"server did not switch to phase {expected}")

    def stop(self) -> float:
        """SIGINT, reap; returns peak RSS in MB."""
        code, rss = self.child.interrupt(30)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        return rss


@dataclass
class Reply:
    circuit: str
    delay_spec: float
    latency_s: float
    cached: bool | None
    refused: bool
    problem: str | None


class Load:
    """Fill, then the timed closed loop; every reply is checked."""

    def __init__(self, server: Server, workload: str, seed: int):
        self.server = server
        self.workload = workload
        self.seed = seed
        #: (circuit, spec) -> the first reply's payload, which every
        #: later reply for that job must equal byte for byte.
        self.first: dict[tuple[str, float], dict] = {}
        self.fill: list[Reply] = []
        self.probes: list[Reply] = []
        self.window: list[list[Reply]] = [[] for _ in range(CLIENTS)]

    def _send(self, client: ServiceClient, circuit: str, spec: float,
              expect_cached: bool) -> Reply:
        start = time.perf_counter()
        try:
            data = client.size(circuit=circuit, delay_spec=spec)
        except ServiceError as exc:
            latency = time.perf_counter() - start
            return Reply(circuit, spec, latency, None, exc.status == 429,
                         f"{circuit}@{spec:g}: HTTP {exc.status} {exc}")
        except ValueError as exc:  # an unparseable reply is a failed request
            latency = time.perf_counter() - start
            return Reply(circuit, spec, latency, None, False,
                         f"{circuit}@{spec:g}: bad reply: {exc}")
        latency = time.perf_counter() - start
        cached = bool(data.get("cached"))
        payload = data.get("payload")
        label = f"{circuit}@{spec:g}"
        problem = None
        if data.get("status") != "ok" or not payload or payload.get("result") is None:
            problem = f"{label}: status {data.get('status')}"
        elif cached != expect_cached:
            problem = f"{label}: cached={cached}, expected {expect_cached}"
        else:
            first = self.first.setdefault((circuit, spec), payload)
            if first is not payload and first != payload and (
                canonical_json(first) != canonical_json(payload)
            ):
                problem = f"{label}: payload bytes differ from the first reply"
        return Reply(circuit, spec, latency, cached, False, problem)

    def run_fill(self) -> None:
        with ServiceClient(self.server.url, client_id="fill", retries=0,
                           timeout=120) as client:
            for circuit, spec in HOT_SET:
                self.fill.append(self._send(client, circuit, spec, False))
            if self.workload == "service-warm":
                # The timed window is read-only, so service-warm's misses
                # are measured here: small never-seen jobs on the same
                # config, after the fill paid the lazy imports.
                for circuit, spec in fresh_jobs(self.seed, WARM_MISS_PROBES, ("c17",)):
                    self.probes.append(self._send(client, circuit, spec, False))

    def run_window(self, seconds: float) -> None:
        self.cpu = time.process_time()
        self.start = time.perf_counter()
        deadline = self.start + seconds

        def loop(index: int) -> None:
            requests = _requests(self.workload, self.seed, index)
            replies = self.window[index]
            with ServiceClient(self.server.url, client_id=f"load-{index}",
                               retries=0, timeout=120) as client:
                while time.perf_counter() < deadline:
                    circuit, spec, fresh = next(requests)
                    replies.append(self._send(client, circuit, spec, not fresh))

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.end = time.perf_counter()
        self.cpu = time.process_time() - self.cpu

    def replies(self) -> list[Reply]:
        return [reply for replies in self.window for reply in replies]

    def throughput(self) -> float:
        ok = sum(1 for r in self.replies() if r.problem is None)
        return ok / (self.end - self.start)

    def account(self, outcome: Outcome) -> None:
        """Count every fill and window reply into the run's outcome."""
        for reply in self.fill + self.probes + self.replies():
            outcome.record(reply.problem)
        window = self.replies()
        refused = sum(1 for r in window if r.refused)
        failed = sum(1 for r in window if r.problem is not None) - refused
        outcome.notes.append(
            f"requests sent {len(window)}, succeeded {len(window) - failed - refused}, "
            f"failed {failed}, refused {refused} (plus {len(self.fill)} fill, "
            f"{len(self.probes)} miss probes); "
            f"load generator CPU share {self.cpu / (self.end - self.start):.3f}"
        )


def _area_saving(load: Load) -> float:
    savings = []
    for circuit, spec in HOT_SET:
        payload = load.first.get((circuit, spec))
        if payload is not None:
            saving = 1.0 - payload["result"]["area"] / payload["seed"]["area"]
            savings.append(100.0 * saving)
    return statistics.fmean(savings)


def measure(workload: str, seed: int, seconds: float, work: Path) -> Outcome:
    """The untraced run: every end-to-end metric."""
    outcome = Outcome()
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        server = Server(workload, work, f"setup-{index}")
        setups.append(server.setup_s)
        server.stop()
    server = Server(workload, work, "main")
    setups.append(server.setup_s)
    load = Load(server, workload, seed)
    load.run_fill()
    load.run_window(seconds)
    rss = server.stop()
    load.account(outcome)

    window = load.replies()
    hits = [r.latency_s * 1e3 for r in window if r.cached and r.problem is None]
    if workload == "service-warm":
        misses = [r.latency_s * 1e3 for r in load.probes if r.problem is None]
    else:
        misses = [r.latency_s * 1e3 for r in window
                  if r.cached is False and r.problem is None]
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": load.throughput(),
        "area_saving_pct": _area_saving(load),
        "hit_p50_ms": percentile(hits, 50),
        "hit_p95_ms": percentile(hits, 95),
        "miss_p50_ms": percentile(misses, 50),
        "miss_p90_ms": percentile(misses, 90),
        "peak_rss_mb": rss,
    }
    outcome.notes.append(f"{len(hits)} hits, {len(misses)} misses")
    return outcome


def _residual_ms(load: Load, samples: dict) -> float:
    """Client latency minus server-side ``size_sync`` time, per request.

    Each client keeps one connection, which one handler thread serves
    in order, so the two sequences pair up request by request.  When a
    request never reached ``size_sync`` (a transport failure) they
    cannot pair, and the mean residual is returned instead.
    """
    residuals, latency, server_s, paired = [], 0.0, 0.0, True
    for index, replies in enumerate(load.window):
        server = samples.get(f"size_sync:load-{index}", [])
        latency += sum(r.latency_s for r in replies)
        server_s += sum(server)
        paired = paired and len(server) == len(replies)
        residuals += [r.latency_s - s for r, s in zip(replies, server)]
    if not paired:
        count = sum(len(replies) for replies in load.window)
        return (latency - server_s) / max(count, 1) * 1e3
    return statistics.median(residuals) * 1e3


def _count_retries(counter: list) -> None:
    """Count client transport retries (attempts beyond the first)."""
    import repro.service.client as client_module

    call_with_retry = client_module.call_with_retry

    def counted(fn, *args, **kwargs):
        attempts = []

        def attempt():
            attempts.append(1)
            return fn()

        try:
            return call_with_retry(attempt, *args, **kwargs)
        finally:
            counter.append(len(attempts) - 1)

    client_module.call_with_retry = counted


def trace(workload: str, seed: int, seconds: float, work: Path) -> Outcome:
    """The traced run: an untraced server for reference, then the same
    load against the traced launcher; per-layer metrics are the timed
    window's."""
    outcome = Outcome()
    plain = Server(workload, work, "untraced")
    reference = Load(plain, workload, seed)
    reference.run_fill()
    reference.run_window(seconds)
    plain.stop()
    reference.account(outcome)

    retries: list[int] = []
    _count_retries(retries)
    server = Server(workload, work, "traced", traced=True)
    load = Load(server, workload, seed)
    load.run_fill()
    retries.clear()
    server.next_phase("measure")
    load.run_window(seconds)
    time.sleep(0.1)  # let the last handler threads finish their spans
    server.next_phase("None")
    server.stop()
    load.account(outcome)

    phases = json.loads(server.ledger_path.read_text())
    data = phases.get("measure", {})
    window = load.replies()
    metrics = ledger.layer_metrics(data)
    metrics.update(ledger.import_ledger(
        server.child.stderr_path.read_text(), OWN_MODULES
    ))
    latency = sum(r.latency_s for r in window)
    metrics.update({
        "http.residual_ms": _residual_ms(load, data.get("samples", {})),
        "http.refused": sum(1 for r in window if r.refused),
        "client.retries": sum(retries),
        "loadgen.cpu_share": load.cpu / (load.end - load.start),
        "ledger.unattributed_share": (
            1.0 - ledger.attributed_seconds(data, ("http.handler",)) / latency
        ),
        "ledger.trace_overhead": reference.throughput() / load.throughput(),
    })
    outcome.metrics = metrics
    return outcome
