"""Tiny stdlib client for the sizing service.

:class:`ServiceClient` wraps the v1 HTTP surface with one typed method
per endpoint, raising :class:`~repro.errors.ServiceError` (carrying
the HTTP status) for every structured error the server returns.  It is
the client the tests, the CI service smoke, and
``examples/query_service.py`` all use — which keeps the wire format
honest: anything the docs claim must round-trip through this code.

The client is a *session*: one kept-alive HTTP connection, reused
across calls and closed by :meth:`close` (or the context manager).
Replies arrive in the ``repro.service/3`` envelope and every method
returns the unwrapped ``data`` object, so callers never see transport
framing.  Admission rejections (429) are retried automatically,
sleeping the server-stated ``Retry-After``, up to ``retries`` times —
pass ``retries=0`` to observe raw backpressure.  Transport failures
(stale sockets, resets, truncated responses) are retried with
exponential backoff + jitter (:mod:`repro.faults.retry`) before
surfacing as a 503-grade error.

Usage::

    with ServiceClient("http://127.0.0.1:8765") as client:
        client.healthz()
        reply = client.size(circuit="c17", delay_spec=0.6)
        sizes = reply["payload"]["result"]["x"]

One instance may be shared across threads: connections are pooled
per-thread (opened lazily), so concurrent calls never interleave on a
socket.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Iterator

from repro.errors import ServiceError
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.obs.trace import TRACE_HEADER

__all__ = ["ServiceClient"]

#: Statuses that mean "still in flight" on the wire.
_LIVE_STATUSES = ("queued", "running")

#: Backoff for transport-level failures: stale keep-alive sockets,
#: connection resets, and truncated responses (``IncompleteRead`` is an
#: ``HTTPException``).  Resending is safe on every endpoint — reads are
#: idempotent and ``POST /v1/size`` is deterministic and
#: content-addressed, so a duplicate submission lands on the same job.
_TRANSPORT_RETRY = RetryPolicy(
    attempts=3,
    base_delay=0.05,
    max_delay=1.0,
    retryable=(http.client.HTTPException, OSError),
)


class ServiceClient:
    """HTTP session against one service base URL (``http://host:port``).

    ``client_id`` is sent as ``X-Repro-Client`` on every request — the
    identity the server's per-client quota buckets key on; ``retries``
    bounds automatic 429 retries (each sleeping the server's
    ``Retry-After``, capped at ``retry_wait_cap`` seconds).
    ``trace_id`` is sent as ``X-Repro-Trace`` so every request this
    session makes joins the caller's trace (the server allocates a
    fresh trace per request otherwise).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 300.0,
        client_id: str | None = None,
        retries: int = 2,
        retry_wait_cap: float = 30.0,
        trace_id: str | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", ""):
            raise ServiceError(
                f"unsupported scheme {parts.scheme!r} in {base_url!r} "
                f"(only http)", status=400,
            )
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self.timeout = timeout
        self.client_id = client_id
        self.retries = retries
        self.retry_wait_cap = retry_wait_cap
        self.trace_id = trace_id
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._all_conns: list[http.client.HTTPConnection] = []

    # -- the session ---------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        """Enter the session (connections open on first use)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close every pooled connection."""
        self.close()

    def close(self) -> None:
        """Drop all kept-alive connections (they reopen lazily if reused)."""
        with self._pool_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            conn.close()
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._pool_lock:
                self._all_conns.append(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        conn.close()
        with self._pool_lock:
            if conn in self._all_conns:
                self._all_conns.remove(conn)

    def _roundtrip(
        self, method: str, path: str, payload: bytes | None, headers: dict,
    ) -> tuple[int, dict, bytes]:
        """One exchange on the pooled connection, retried with backoff.

        Transport failures — a stale keep-alive socket the server timed
        out between calls, a connection reset, a response truncated
        mid-body — drop the connection and resend on a fresh one under
        ``_TRANSPORT_RETRY`` (exponential backoff with jitter).  Safe
        even for ``POST /v1/size``, whose effect is deterministic and
        content-addressed.
        """

        def _exchange() -> tuple[int, dict, bytes]:
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                body = resp.read()
            except (http.client.HTTPException, OSError):
                self._drop_connection()
                raise
            resp_headers = {
                name.lower(): value for name, value in resp.getheaders()
            }
            if resp_headers.get("connection") == "close":
                self._drop_connection()
            return resp.status, resp_headers, body

        return call_with_retry(_exchange, _TRANSPORT_RETRY, "http.client")

    def _request(
        self, method: str, path: str, body: dict | None = None,
    ) -> tuple[dict, int]:
        """One API call: envelope unwrapped, 429s retried, errors raised.

        Returns ``(data, http_status)`` — callers that distinguish 200
        from 202 (sync sizing that degraded to a ticket) use the code.
        """
        payload = None
        headers = {"Accept": "application/json"}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        if self.client_id is not None:
            headers["X-Repro-Client"] = self.client_id
        if self.trace_id is not None:
            headers[TRACE_HEADER] = self.trace_id
        attempt = 0
        while True:
            try:
                status, resp_headers, raw = self._roundtrip(
                    method, path, payload, headers
                )
            except (http.client.HTTPException, OSError) as exc:
                raise ServiceError(
                    f"cannot reach sizing service at {self.base_url}: "
                    f"{exc}", status=503,
                ) from exc
            if status < 400:
                reply = json.loads(raw)
                data = reply.get("data") if isinstance(reply, dict) else None
                return (data if isinstance(data, dict) else reply), status
            error = _error_from(status, resp_headers, raw, self.base_url)
            if status == 429 and attempt < self.retries:
                attempt += 1
                time.sleep(
                    min(error.retry_after or 1.0, self.retry_wait_cap)
                )
                continue
            raise error

    # -- discovery + introspection -------------------------------------

    def healthz(self) -> dict:
        """Liveness probe (``GET /v1/healthz``)."""
        return self._request("GET", "/v1/healthz")[0]

    def circuits(self) -> dict:
        """Benchmark-suite discovery (``GET /v1/circuits``)."""
        return self._request("GET", "/v1/circuits")[0]

    def backends(self) -> dict:
        """Flow-backend discovery (``GET /v1/backends``)."""
        return self._request("GET", "/v1/backends")[0]

    def stats(self) -> dict:
        """Service counters (``GET /v1/stats``)."""
        return self._request("GET", "/v1/stats")[0]

    def metrics(self) -> str:
        """Raw Prometheus text exposition (``GET /v1/metrics``)."""
        headers = {"Accept": "text/plain"}
        if self.client_id is not None:
            headers["X-Repro-Client"] = self.client_id
        if self.trace_id is not None:
            headers[TRACE_HEADER] = self.trace_id
        try:
            status, resp_headers, raw = self._roundtrip(
                "GET", "/v1/metrics", None, headers
            )
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(
                f"cannot reach sizing service at {self.base_url}: {exc}",
                status=503,
            ) from exc
        if status >= 400:
            raise _error_from(status, resp_headers, raw, self.base_url)
        return raw.decode()

    # -- jobs ----------------------------------------------------------

    def job(self, job_id: str) -> dict:
        """One job's status/result (``GET /v1/jobs/<id>``)."""
        return self._request("GET", f"/v1/jobs/{job_id}")[0]

    def jobs(
        self,
        status: str | None = None,
        limit: int = 50,
        after: str | None = None,
    ) -> dict:
        """List jobs (``GET /v1/jobs``) with filter + cursor pagination.

        Returns ``{"jobs": [...], "next_after": ..., "counts": ...}``;
        pass the returned ``next_after`` back as ``after`` for the next
        page (None means the listing is exhausted).
        """
        query: dict = {"limit": limit}
        if status is not None:
            query["status"] = status
        if after is not None:
            query["after"] = after
        return self._request(
            "GET", "/v1/jobs?" + urllib.parse.urlencode(query)
        )[0]

    def events(self, job_id: str, timeout: float = 30.0) -> Iterator[dict]:
        """Follow a job's SSE stream (``GET /v1/jobs/<id>/events``).

        Yields status snapshots (payload excluded) as the server emits
        them; the stream ends at the job's terminal snapshot or after
        ``timeout`` seconds of long-poll.  Uses a dedicated connection
        — the server closes an event stream's socket when it ends.
        """
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        headers = {"Accept": "text/event-stream"}
        if self.client_id is not None:
            headers["X-Repro-Client"] = self.client_id
        if self.trace_id is not None:
            headers[TRACE_HEADER] = self.trace_id
        try:
            conn.request(
                "GET", f"/v1/jobs/{job_id}/events?timeout={timeout:g}",
                headers=headers,
            )
            resp = conn.getresponse()
            if resp.status >= 400:
                resp_headers = {
                    name.lower(): value for name, value in resp.getheaders()
                }
                raise _error_from(
                    resp.status, resp_headers, resp.read(), self.base_url
                )
            for line in resp:
                line = line.strip()
                if not line.startswith(b"data: "):
                    continue
                reply = json.loads(line[len(b"data: "):])
                data = reply.get("data") if isinstance(reply, dict) else None
                yield data if isinstance(data, dict) else reply
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(
                f"events stream for {job_id} broke: {exc}", status=503,
            ) from exc
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Follow a job to a terminal status; returns the full record.

        Event-driven: rides the long-poll events stream (reconnecting
        as each stream segment expires) instead of busy-polling, then
        fetches the payload-bearing record once the job settles.
        Raises a 504-grade :class:`ServiceError` at ``timeout``.
        """
        deadline = time.monotonic() + timeout
        last_status = "queued"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still {last_status} after {timeout:g}s",
                    status=504,
                )
            for snapshot in self.events(job_id, timeout=min(remaining, 30.0)):
                last_status = snapshot.get("status", last_status)
            if last_status not in _LIVE_STATUSES:
                return self.job(job_id)

    def wait_for(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.05,
    ) -> dict:
        """Deprecated alias of :meth:`wait` (``poll`` is ignored —
        waiting is event-driven now).  Removed with ``repro.service/3``."""
        del poll
        return self.wait(job_id, timeout=timeout)

    # -- sizing --------------------------------------------------------

    def _size_body(
        self,
        circuit: str | None,
        bench: str | None,
        delay_spec: float | None,
        mode: str | None,
        flow_backend: str | None,
        options: dict | None,
        kind: str | None = None,
    ) -> dict:
        body: dict = {}
        if circuit is not None:
            body["circuit"] = circuit
        if bench is not None:
            body["bench"] = bench
        if delay_spec is not None:
            body["delay_spec"] = delay_spec
        if kind is not None:
            body["kind"] = kind
        if mode is not None:
            body["mode"] = mode
        if flow_backend is not None:
            body["flow_backend"] = flow_backend
        if options is not None:
            body["options"] = options
        return body

    def size(
        self,
        circuit: str | None = None,
        bench: str | None = None,
        delay_spec: float | None = None,
        mode: str | None = None,
        flow_backend: str | None = None,
        options: dict | None = None,
        wait: bool = True,
        wait_timeout: float = 300.0,
        kind: str | None = None,
    ) -> dict:
        """Size a netlist (``POST /v1/size``) and return the job body.

        Pass either ``circuit`` (a token the server can resolve) or
        ``bench`` (inline netlist text).  With ``wait=True`` (default)
        the call returns a *finished* job, payload included — if the
        server degraded the synchronous request to a 202 ticket (fleet
        mode under load), the client keeps waiting client-side up to
        ``wait_timeout``.  ``wait=False`` is :meth:`submit`.
        ``kind`` is the request's job kind; the service runs only
        ``sizing`` jobs (the default) and answers 400 to any other.
        """
        if not wait:
            return self.submit(
                circuit=circuit, bench=bench, delay_spec=delay_spec,
                mode=mode, flow_backend=flow_backend, options=options,
                kind=kind,
            )
        body = self._size_body(
            circuit, bench, delay_spec, mode, flow_backend, options, kind
        )
        data, status = self._request("POST", "/v1/size", body)
        if status == 202 and data.get("status") in _LIVE_STATUSES:
            return self.wait(data["id"], timeout=wait_timeout)
        return data

    def submit(
        self,
        circuit: str | None = None,
        bench: str | None = None,
        delay_spec: float | None = None,
        mode: str | None = None,
        flow_backend: str | None = None,
        options: dict | None = None,
        kind: str | None = None,
    ) -> dict:
        """Queue a sizing (``POST /v1/size`` with ``async=true``).

        Returns immediately with the job ticket (id + status); follow
        it with :meth:`wait`, :meth:`events`, or :meth:`job`.
        """
        body = self._size_body(
            circuit, bench, delay_spec, mode, flow_backend, options, kind
        )
        body["async"] = True
        return self._request("POST", "/v1/size", body)[0]


def _error_from(
    status: int, headers: dict, raw: bytes, base_url: str,
) -> ServiceError:
    """Build the :class:`ServiceError` for one structured error reply."""
    retry_after: float | None = None
    try:
        error = json.loads(raw)["error"]
        message = error["message"]
        value = error.get("retry_after")
        if isinstance(value, (int, float)):
            retry_after = float(value)
    except (json.JSONDecodeError, KeyError, TypeError):
        message = raw.decode(errors="replace").strip() or (
            f"HTTP {status} from {base_url}"
        )
    if retry_after is None:
        header = headers.get("retry-after")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
    return ServiceError(message, status=status, retry_after=retry_after)
