"""JSON-over-HTTP front end for the sizing service (stdlib only).

A :class:`ThreadingHTTPServer` whose handler translates the v1 REST
surface onto one shared :class:`~repro.service.app.SizingService`:

==============================  =========================================
``POST /v1/size``               size a netlist; ``"async": true`` queues
                                and answers 202 with a job id
``GET /v1/jobs``                list jobs; ``?status=`` filter,
                                ``?limit=`` page size, ``?after=`` cursor
``GET /v1/jobs/<id>``           job status + full result when available
``GET /v1/jobs/<id>/events``    long-poll SSE stream of status changes
``GET /v1/circuits``            the benchmark suite + accepted tokens
``GET /v1/backends``            the D-phase solvers + the ``auto`` rule
``GET /v1/healthz``             liveness probe; reports ``degraded``
                                when the shared-cache breaker is open
                                or jobs sit in the dead-letter queue
``GET /v1/stats``               job counts, cache hits, queue + admission
                                counters, aggregated SolveStats
==============================  =========================================

Every response body is JSON rendered with
:func:`repro.sizing.serialize.canonical_json` (sorted keys, compact) —
so two requests served from the same cache entry return byte-identical
``payload`` objects.  The **wire envelope** is uniform: every success
carries its result under ``"data"`` and every failure — malformed
JSON, unknown routes, admission rejections — is a structured
``{"error": {"status", "message"}}`` body with the matching HTTP
status, raised internally as :class:`~repro.errors.ServiceError`.
Admission rejections (429) additionally carry ``Retry-After`` and
``X-Repro-Queue-Depth`` headers.  Requests may identify themselves
with an ``X-Repro-Client`` header (quota identity); absent that, the
peer address is used.
"""

from __future__ import annotations

import json
import math
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ServiceError
from repro.faults.injector import decide as fault_decide
from repro.flow.duality import BACKENDS, NETWORK_SIMPLEX_MAX_CONSTRAINTS
from repro.generators.iscas import SUITE
from repro.obs.trace import (
    TRACE_HEADER,
    parse_trace_header,
    span,
    trace_scope,
)
from repro.service.app import SizingService
from repro.service.queue import MAX_ATTEMPTS
from repro.sizing.serialize import canonical_json

__all__ = ["WIRE_SCHEMA", "SizingHTTPServer", "make_server", "serve"]

#: Identifier of the wire format carried by every response.  ``/2``
#: introduced the uniform ``{"data": ...}`` success envelope; ``/3``
#: dropped ``/2``'s top-level mirror of the ``data`` fields that kept
#: ``/1`` clients working for one release.
WIRE_SCHEMA = "repro.service/3"

#: Longest long-poll an events stream accepts, seconds.
MAX_EVENTS_TIMEOUT = 300.0

#: Maximum accepted request-body size (16 MiB) — far above any real
#: netlist, low enough that a runaway client cannot balloon the heap.
MAX_BODY_BYTES = 16 << 20


def _job_body(record, payload) -> dict:
    """Wire view of one job record, embedding the payload when known."""
    body = record.to_wire()
    body["payload"] = payload
    return body


class _Handler(BaseHTTPRequestHandler):
    """Route the v1 surface; every exception becomes structured JSON."""

    server: "SizingHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        """Access logging, routed through the server's quiet flag."""
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self, status: int, body: dict, headers: dict | None = None,
    ) -> None:
        # HTTP/1.1 keep-alive: any request body still sitting unread on
        # the socket (an error answered before _read_body ran) would be
        # parsed as the *next* request line — drain it first.
        self._drain_body()
        data = (canonical_json(body) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self._write_payload(data)

    def _write_payload(self, data: bytes) -> None:
        """Write a response body, honoring the truncation fault probe.

        When an installed injector's ``http.response:truncate`` rule
        fires, only half the advertised ``Content-Length`` is written
        and the connection drops — exactly what a mid-flight network
        failure looks like to the client (an ``IncompleteRead``),
        which is what the client's retry loop exists to absorb.
        """
        if fault_decide("http.response"):
            self.wfile.write(data[: len(data) // 2])
            self.wfile.flush()
            self.close_connection = True
            return
        self.wfile.write(data)

    def _send_data(self, status: int, data: dict) -> None:
        """Send one success reply in the uniform ``data`` envelope."""
        self._send_json(status, {"schema": WIRE_SCHEMA, "data": data})

    def _drain_body(self) -> None:
        if getattr(self, "_body_consumed", True):
            return
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            # Refusing to read an oversized body is the point of the
            # 413; give up on connection reuse instead of draining it.
            self.close_connection = True
            return
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                break
            remaining -= len(chunk)

    def _send_error_body(
        self, status: int, message: str, retry_after: float | None = None,
    ) -> None:
        error: dict = {"status": status, "message": message}
        headers: dict = {}
        if retry_after is not None:
            error["retry_after"] = retry_after
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        if status == 429:
            # How deep the backlog the rejection protected actually is —
            # lets a client distinguish "queue full" from "my quota".
            try:
                depth = self.server.service.store.depth()
            except Exception:  # noqa: BLE001 — headers must not 500
                depth = None
            if depth is not None:
                headers["X-Repro-Queue-Depth"] = str(depth)
        self._send_json(status, {
            "schema": WIRE_SCHEMA, "error": error,
        }, headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._body_consumed = True
            raise ServiceError("request body required (JSON object)")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        raw = self.rfile.read(length)
        self._body_consumed = True
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _client(self) -> str:
        """The quota identity: ``X-Repro-Client`` header or peer address."""
        return (
            self.headers.get("X-Repro-Client") or self.client_address[0]
        )

    def send_response(self, code: int, message: str | None = None) -> None:
        """Stdlib hook, extended to record the status for the request
        counter and echo the request's trace id back to the client."""
        self._last_status = code
        BaseHTTPRequestHandler.send_response(self, code, message)
        if getattr(self, "_trace_id", None):
            self.send_header(TRACE_HEADER, self._trace_id)

    def _dispatch(self, method: str) -> None:
        """Trace + count one request, then route it.

        With tracing on, the request runs inside a trace context —
        resumed from the client's ``X-Repro-Trace`` header when one is
        sent, fresh otherwise — under an ``http.request`` span, and the
        response carries the trace id back.  The request counter uses a
        *normalized* route label (``/v1/jobs/<id>``), never the raw
        path: a label per job id would grow the registry without bound.
        """
        service = self.server.service
        route = _route_label(self.path)
        self._last_status = 0
        self._trace_id = None
        if service.trace:
            tid, parent = parse_trace_header(self.headers.get(TRACE_HEADER))
            with trace_scope(
                sink=service.trace_sink, trace_id=tid, parent_id=parent,
            ) as ctx:
                self._trace_id = ctx.trace_id
                with span("http.request", method=method, route=route) as sp:
                    self._route(method)
                    sp.set(code=self._last_status)
        else:
            self._route(method)
        service._m_http.inc(
            method=method, route=route, code=str(self._last_status),
        )

    def _route(self, method: str) -> None:
        service = self.server.service
        self._body_consumed = False
        path, _, query = self.path.partition("?")
        path = path.rstrip("/")
        params = urllib.parse.parse_qs(query)
        try:
            parts = path.split("/")
            if method == "POST" and path == "/v1/size":
                self._post_size(service)
            elif (
                method == "GET" and len(parts) == 5
                and path.startswith("/v1/jobs/") and parts[4] == "events"
            ):
                self._get_events(service, parts[3], params)
            elif method == "GET" and len(parts) == 4 and (
                path.startswith("/v1/jobs/")
            ):
                record, payload = service.get_job(parts[3])
                self._send_data(200, _job_body(record, payload))
            elif method == "GET" and path == "/v1/jobs":
                self._get_jobs(service, params)
            elif method == "GET" and path == "/v1/circuits":
                self._send_data(200, _circuits_body())
            elif method == "GET" and path == "/v1/backends":
                self._send_data(200, _backends_body())
            elif method == "GET" and path == "/v1/healthz":
                self._send_data(200, service.health())
            elif method == "GET" and path == "/v1/stats":
                self._send_data(200, service.stats())
            elif method == "GET" and path == "/v1/metrics":
                self._send_metrics(service)
            elif path in _ROUTES and method != _ROUTES[path]:
                raise ServiceError(
                    f"{method} not allowed on {path} "
                    f"(use {_ROUTES[path]})", status=405,
                )
            else:
                raise ServiceError(f"no such endpoint {path!r}", status=404)
        except ServiceError as exc:
            self._send_error_body(exc.status, str(exc), exc.retry_after)
        except ReproError as exc:
            # Library-level rejection of otherwise well-formed input
            # (bad netlist structure, unknown option value, ...).
            self._send_error_body(400, str(exc))
        except Exception as exc:  # noqa: BLE001 — a handler must answer
            self._send_error_body(500, f"{type(exc).__name__}: {exc}")

    def _post_size(self, service: SizingService) -> None:
        body = self._read_body()
        wants_async = bool(body.get("async", False))
        sizer = service.size_async if wants_async else service.size_sync
        record = sizer(body, self._client())
        # One rule for both: a terminal record is a 200 with its
        # payload; anything still in flight — an async ticket, or a
        # synchronous wait that hit its ``sync_wait`` deadline — is a 202.
        payload = record.payload if record.done else None
        self._send_data(200 if record.done else 202,
                        _job_body(record, payload))

    def _send_metrics(self, service: SizingService) -> None:
        """Serve ``GET /v1/metrics`` as raw Prometheus text exposition
        (the one endpoint outside the JSON envelope — scrapers speak
        the text format, not our wire schema)."""
        self._drain_body()
        data = service.metrics_text().encode()
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self._write_payload(data)

    def _get_jobs(self, service: SizingService, params: dict) -> None:
        status = _one(params, "status")
        limit = _int_param(params, "limit", 50)
        after = _one(params, "after")
        records, next_after = service.list_jobs(
            status=status, limit=limit, after=after,
        )
        self._send_data(200, {
            "jobs": [record.to_wire() for record in records],
            "next_after": next_after,
            "counts": service.store.counts(),
        })

    def _get_events(
        self, service: SizingService, job_id: str, params: dict,
    ) -> None:
        """Stream a job's status snapshots as server-sent events.

        Each event is a ``data:`` line carrying the enveloped record;
        the stream ends at the terminal snapshot or at ``?timeout=``
        seconds (default 30, capped).  The connection closes with the
        stream — a reconnecting client just re-requests.
        """
        timeout = _float_param(params, "timeout", 30.0)
        if not 0 < timeout <= MAX_EVENTS_TIMEOUT:
            raise ServiceError(
                f"timeout must be in (0, {MAX_EVENTS_TIMEOUT:g}] seconds, "
                f"got {timeout:g}"
            )
        stream = service.job_events(job_id, timeout)
        first = next(stream)  # 404s surface before headers are sent
        self._drain_body()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        record = first
        while True:
            event = canonical_json({
                "schema": WIRE_SCHEMA, "data": record.to_wire(),
            })
            self.wfile.write(f"data: {event}\n\n".encode())
            self.wfile.flush()
            record = next(stream, None)
            if record is None:
                return

    # BaseHTTPRequestHandler dispatches on these names.
    def do_GET(self) -> None:  # noqa: N802 (stdlib-required name)
        """Serve the read-only endpoints."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib-required name)
        """Serve ``/v1/size``."""
        self._dispatch("POST")


def _one(params: dict, name: str) -> str | None:
    """The single value of query parameter ``name``, or None."""
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise ServiceError(f"query parameter {name!r} given more than once")
    return values[0]


def _int_param(params: dict, name: str, default: int) -> int:
    """An integer query parameter with a default; bad values are 400s."""
    raw = _one(params, name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ServiceError(
            f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from exc


def _float_param(params: dict, name: str, default: float) -> float:
    """A float query parameter with a default; bad values are 400s."""
    raw = _one(params, name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ServiceError(
            f"query parameter {name!r} must be a number, got {raw!r}"
        ) from exc


#: Method routing for precise 405s on known paths.
_ROUTES = {
    "/v1/size": "POST",
    "/v1/jobs": "GET",
    "/v1/circuits": "GET",
    "/v1/backends": "GET",
    "/v1/healthz": "GET",
    "/v1/stats": "GET",
    "/v1/metrics": "GET",
}


def _route_label(path: str) -> str:
    """Collapse a request path to a bounded-cardinality route label."""
    path = path.partition("?")[0].rstrip("/")
    parts = path.split("/")
    if path.startswith("/v1/jobs/") and len(parts) == 5 and (
        parts[4] == "events"
    ):
        return "/v1/jobs/<id>/events"
    if path.startswith("/v1/jobs/") and len(parts) == 4:
        return "/v1/jobs/<id>"
    if path in _ROUTES:
        return path
    return "(other)"


def _circuits_body() -> dict:
    """Discovery payload: the suite plus the accepted token grammar."""
    return {
        "schema": WIRE_SCHEMA,
        "circuits": [
            {
                "name": spec.name,
                "paper_gates": spec.paper_gates,
                "delay_spec": spec.delay_spec,
                "tier": spec.tier,
            }
            for spec in SUITE
        ],
        "token_forms": [
            "a suite name listed under 'circuits'",
            "rca:N — ripple-carry adder of width N",
            "a server-side path to a .bench file",
            "or POST inline netlist text as 'bench' instead of 'circuit'",
        ],
    }


def _backends_body() -> dict:
    """Discovery payload: the D-phase solvers and the ``auto`` rule."""
    return {
        "schema": WIRE_SCHEMA,
        "backends": [{"name": name} for name in BACKENDS],
        "auto_network_simplex_max_constraints": (
            NETWORK_SIMPLEX_MAX_CONSTRAINTS
        ),
    }


class SizingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`SizingService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: SizingService,
                 quiet: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


def make_server(
    service: SizingService, host: str = "127.0.0.1", port: int = 0,
    quiet: bool = False,
) -> SizingHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port.

    The caller owns the loop: call ``serve_forever()`` (typically on a
    thread), and ``shutdown()`` + ``server_close()`` + the service's
    ``close()`` to stop.  Tests and the example use this entry point.
    """
    return SizingHTTPServer((host, port), service, quiet=quiet)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    jobs: int = 1,
    cache: str | None = None,
    run_dir: str | None = None,
    timeout: float | None = None,
    queue: str | None = None,
    max_queue_depth: int | None = None,
    quota_rate: float | None = None,
    quota_burst: float | None = None,
    trace: bool = True,
    warm_corpus: str | None = None,
    visibility_timeout: float = 600.0,
    max_attempts: int = MAX_ATTEMPTS,
    faults: str | None = None,
    fault_seed: int = 0,
) -> int:
    """Run the sizing service until interrupted (the CLI entry point).

    ``cache=None`` means the default campaign cache directory; pass
    ``cache=""`` to disable caching, or a backend spec (``disk:`` /
    ``sqlite:`` / ``tiered:``) to share the cache across replicas.
    ``queue`` (a database path shared by all replicas) turns this
    process into one replica of a fleet; ``max_queue_depth`` and
    ``quota_rate``/``quota_burst`` configure admission control;
    ``trace=False`` (``--no-trace``) disables span collection;
    ``warm_corpus`` (a backend spec) turns on corpus warm starts for
    cache misses (results stay bitwise identical to cold runs).

    Failure knobs: ``visibility_timeout`` is the queue lease duration
    before a dead worker's jobs are re-claimed; ``max_attempts``
    bounds re-leases before a job is poison-parked (``--max-attempts``,
    replacing the old hardwired constant); ``faults``/``fault_seed``
    install a deterministic fault-injection schedule for chaos drills
    (``--faults "worker:kill@0.05*2;cache.get:io_error@0.1"``).
    Returns the process exit code.
    """
    from repro.runner import DEFAULT_CACHE_DIR

    cache_arg: str | None = cache if cache is not None else DEFAULT_CACHE_DIR
    if cache == "":
        cache_arg = None
    service = SizingService(
        jobs=jobs, cache=cache_arg, run_dir=run_dir, timeout=timeout,
        queue=queue, max_queue_depth=max_queue_depth,
        quota_rate=quota_rate, quota_burst=quota_burst,
        trace=trace, warm_corpus=warm_corpus,
        visibility_timeout=visibility_timeout, max_attempts=max_attempts,
        faults=faults, fault_seed=fault_seed,
    )
    server = make_server(service, host=host, port=port)
    host_shown, port_shown = server.server_address[:2]
    cache_shown = "off" if service.cache is None else service.cache.describe()
    print(f"repro sizing service listening on http://{host_shown}:{port_shown}"
          f" ({jobs} worker{'s' if jobs != 1 else ''}, "
          f"cache {cache_shown}, queue {service.store.path})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0
