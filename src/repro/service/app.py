"""The sizing service core: request validation, job admission, execution.

:class:`SizingService` exposes the existing campaign pipeline as a
long-lived, concurrent request/response engine.  It owns no sizing
logic of its own — a request is validated into the same frozen
:class:`~repro.runner.spec.Job` a campaign would expand, keyed with the
same content-addressed fingerprint, probed against the same
:class:`~repro.runner.cache.ResultCache`, and executed by the same
:class:`~repro.runner.drain.Drainer` a campaign's misses run through
(failure isolation + per-job wall-time budget).  That single shared
execution path is the service's core guarantee: a ``POST /v1/size``
returns results byte-identical to ``python -m repro size`` /
``campaign run`` for the same (netlist, technology, options), and
repeated requests are cache hits.

Dispatch: every admitted job is a row in the service's one job store,
a durable :class:`~repro.runner.queue.WorkQueue` — the ``queue``
database when one is given, else ``queue.db`` in the run directory,
else in a temporary directory the service removes on close.  ``jobs``
drain threads work the rows off with the same
:class:`~repro.runner.drain.Drainer` a campaign uses (leasing +
visibility timeout, so a job whose service restarted is re-claimed;
a job whose worker process died goes straight back to the queue until
``max_attempts``), publishing results through the queue and the cache.
Replicas given the same ``queue`` path drain one shared job stream,
and any replica answers for any job.  With ``jobs=1`` and no per-job
timeout (the default) each job runs in the drain thread itself —
serialized, deterministic, and cheap, which is what the tests use.
Otherwise jobs run on a ``forkserver``/``spawn`` process pool of
``jobs`` workers (see :mod:`repro.runner.drain`).  The HTTP layer may
accept arbitrarily many concurrent requests; admission control
(:class:`~repro.service.admission.AdmissionController`) bounds the
backlog and rate-limits individual clients, and cache hits bypass it,
because replaying a stored result consumes no worker.

Observability (:mod:`repro.obs`): every service counter lives in a
locked :class:`~repro.obs.metrics.MetricsRegistry` — ``/v1/stats`` and
the Prometheus exposition at ``/v1/metrics`` are two views over the
same registry, so they can never disagree.  With tracing enabled
(default), each request runs in a trace context: submission spans
(``service.admit``, ``cache.probe``) land in the run directory's
``trace.jsonl``, worker-side solver spans ship back through the result
tuples, and the queued row carries ``trace_id-root_span_id`` so
whichever replica drains the job parents its ``queue.wait`` and
execution spans under the submitter's root — one trace id end to end.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator

from repro.circuit.bench_io import loads_bench
from repro.errors import ReproError, ServiceError
from repro.faults.injector import active as active_faults
from repro.faults.injector import install as install_faults
from repro.flow.duality import check_backend
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    SpanSink,
    current_trace,
    format_trace_header,
    new_span_id,
    span,
    trace_scope,
)
from repro.runner import DEFAULT_CACHE_DIR
from repro.runner.cache import ResultCache, job_key, netlist_digest
from repro.runner.drain import Drainer
from repro.runner.executor import JobOutcome, probe_cache
from repro.runner.queue import (
    JOB_STATUSES,
    MAX_ATTEMPTS,
    JobRecord,
    WorkQueue,
)
from repro.runner.spec import Job, normalize_options
from repro.service.admission import AdmissionController

__all__ = ["SizingService", "build_job"]

#: Request-body keys ``POST /v1/size`` understands.  Unknown keys are a
#: 400, not a silent default — a typo like ``"dela_spec"`` must never
#: quietly size at 0.5.
_REQUEST_FIELDS = frozenset((
    "circuit", "bench", "delay_spec", "kind", "mode", "flow_backend",
    "options", "async",
))


def _require(condition: bool, message: str) -> None:
    """Raise a 400-grade :class:`ServiceError` unless ``condition``."""
    if not condition:
        raise ServiceError(message, status=400)


def build_job(body: dict, netlist_dir: Path | None = None) -> Job:
    """Validate a ``/v1/size`` request body into a campaign :class:`Job`.

    Exactly one of ``circuit`` (a campaign circuit token: suite name,
    ``rca:N``, or a server-side ``.bench`` path) and ``bench`` (inline
    ``.bench`` netlist text) must be present.  Inline netlists are
    parsed up front (so malformed text is a 400, not a failed job) and
    spooled content-addressed into ``netlist_dir`` — identical bodies
    produce the identical token, hence the identical cache key.

    Every validation failure raises :class:`ServiceError` with
    ``status=400`` and a message naming the offending field.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    unknown = sorted(set(body) - _REQUEST_FIELDS)
    _require(
        not unknown,
        f"unknown request field(s) {unknown}; "
        f"valid: {sorted(_REQUEST_FIELDS)}",
    )

    circuit = body.get("circuit")
    bench = body.get("bench")
    _require(
        (circuit is None) != (bench is None),
        "exactly one of 'circuit' (a token) and 'bench' (inline netlist "
        "text) is required",
    )
    if bench is not None:
        _require(
            isinstance(bench, str) and bench.strip() != "",
            "'bench' must be non-empty .bench netlist text",
        )
        _require(
            netlist_dir is not None,
            "this service does not accept inline netlists",
        )
        try:
            loads_bench(bench)
        except ReproError as exc:
            raise ServiceError(f"invalid 'bench' netlist: {exc}") from exc
        sha = hashlib.sha256(bench.encode()).hexdigest()
        netlist_dir.mkdir(parents=True, exist_ok=True)
        path = netlist_dir / f"{sha[:16]}.bench"
        if not path.exists():
            path.write_text(bench)
        circuit = str(path)
    _require(
        isinstance(circuit, str) and circuit != "",
        "'circuit' must be a non-empty token string",
    )

    # Every job is a sizing job; a body may still say so.
    kind = body.get("kind", "sizing")
    _require(
        kind == "sizing",
        f"'kind' must be one of ['sizing'], got {kind!r}",
    )
    delay_spec = body.get("delay_spec", 0.5)
    _require(
        isinstance(delay_spec, (int, float)) and not isinstance(
            delay_spec, bool
        ) and delay_spec > 0,
        f"'delay_spec' must be a positive fraction of Dmin, "
        f"got {delay_spec!r}",
    )
    mode = body.get("mode", "gate")
    _require(
        mode in ("gate", "transistor"),
        f"'mode' must be 'gate' or 'transistor', got {mode!r}",
    )
    flow_backend = body.get("flow_backend", "auto")
    _require(
        isinstance(flow_backend, str),
        f"'flow_backend' must be a string, got {flow_backend!r}",
    )
    try:
        check_backend(flow_backend)
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc
    options = body.get("options")
    _require(
        options is None or isinstance(options, dict),
        f"'options' must be an object of MinfloOptions overrides, "
        f"got {options!r}",
    )
    try:
        normalized = normalize_options(options)
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc
    return Job(
        circuit=circuit,
        delay_spec=float(delay_spec),
        mode=mode,
        flow_backend=flow_backend,
        options=normalized,
    )


class SizingService:
    """Long-lived sizing engine behind the HTTP API (and usable directly).

    Parameters mirror ``python -m repro serve``: ``jobs`` is the worker
    count (1 without a timeout = the drain thread itself, else a
    process pool), ``cache`` a
    :class:`ResultCache`, a backend spec string (``disk:`` /
    ``sqlite:`` / ``tiered:``), a path, or None; ``run_dir`` the
    directory that receives the restart-surviving ``queue.db`` job
    store (unless ``queue`` names another), ``trace.jsonl`` and
    spooled inline netlists; ``timeout`` the per-job wall-time budget
    in seconds.

    Fleet parameters: ``queue`` (a path) names the job store's
    database, which other replicas may also drain; ``max_queue_depth``
    bounds the admitted backlog; ``quota_rate``/``quota_burst``
    configure per-client token buckets; ``visibility_timeout`` is the
    lease duration after which a dead worker's in-flight jobs are
    re-claimed; ``sync_wait`` caps how long a synchronous request
    blocks on the queue before degrading to an async 202 ticket.

    ``trace=False`` disables span collection entirely (``--no-trace``;
    metrics stay on — they are nearly free).  With tracing on and a
    ``run_dir``, spans append to ``run_dir/trace.jsonl``.

    With a cache, executed jobs warm-start TILOS from the instance's
    stored trajectory, with results bitwise identical to a cold run
    (see :mod:`repro.runner.trajectory`).

    Failure handling: ``max_attempts`` bounds how many times the queue
    leases a job before poison-parking it in the dead-letter state;
    ``faults``/``fault_seed`` install a deterministic fault-injection
    schedule (``--faults``; see :mod:`repro.faults`) for chaos drills.
    A worker death (real or injected) never bricks the replica — the
    broken process pool is swapped for a fresh one
    (``repro_pool_rebuilds_total``) and the job goes back to the queue
    for its next attempt.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | Path | None = DEFAULT_CACHE_DIR,
        run_dir: str | Path | None = None,
        timeout: float | None = None,
        queue: str | Path | None = None,
        max_queue_depth: int | None = None,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        visibility_timeout: float = 600.0,
        sync_wait: float = 300.0,
        trace: bool = True,
        max_attempts: int = MAX_ATTEMPTS,
        faults: str | None = None,
        fault_seed: int = 0,
    ):
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}", status=500)
        self.fault_spec = faults or None
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.sync_wait = sync_wait
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if self.fault_spec is not None:
            # ``serve --faults``: the injector is process-global (and
            # exported through the environment + explicit pool-task
            # args, so forkserver/spawn workers inherit the identical
            # schedule).  The state dir makes ``*MAX`` fault caps hold
            # fleet-wide across worker restarts.
            install_faults(
                self.fault_spec,
                seed=fault_seed,
                state_dir=(
                    self.run_dir / "faults"
                    if self.run_dir is not None
                    else None
                ),
            )
        self.trace = bool(trace)
        self.trace_sink = (
            SpanSink(self.run_dir / "trace.jsonl")
            if (self.trace and self.run_dir is not None)
            else None
        )
        self.metrics = MetricsRegistry()
        self._m_cache_hits = self.metrics.counter(
            "repro_cache_hits_total",
            "Requests served by replaying a stored result (no worker used).",
        )
        self._m_executed = self.metrics.counter(
            "repro_jobs_executed_total",
            "Jobs executed to completion by this replica (cache misses).",
        )
        self._m_finished = self.metrics.counter(
            "repro_jobs_finished_total",
            "Executed jobs by terminal status.",
            ("status",),
        )
        self._m_job_seconds = self.metrics.histogram(
            "repro_job_seconds",
            "Monotonic execution seconds per job.",
        )
        self._m_queue_depth = self.metrics.gauge(
            "repro_queue_depth",
            "Admitted-but-unfinished jobs (sampled at scrape time).",
        )
        self._m_http = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route and status code.",
            ("method", "route", "code"),
        )
        if self.run_dir is not None:
            self._netlist_dir = self.run_dir / "netlists"
        else:
            # Owned by this instance: the netlist spool and the queue
            # database live here until close() removes both.
            self._netlist_dir = Path(tempfile.mkdtemp(prefix="repro-service-"))
        self.store = WorkQueue(
            queue if queue is not None
            else (self.run_dir or self._netlist_dir) / "queue.db",
            visibility_timeout=visibility_timeout,
            metrics=self.metrics,
            max_attempts=max_attempts,
        )
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            quota_rate=quota_rate,
            quota_burst=quota_burst,
            metrics=self.metrics,
        )
        self._lock = threading.Lock()
        self._digests: dict[str, str] = {}
        self._started_at = time.time()
        self.drainer = Drainer(
            self.store, self.cache, jobs=jobs, timeout=timeout,
            trace=self.trace, trace_sink=self.trace_sink,
            metrics=self.metrics, on_finish=self._account,
        )
        self.worker_id = self.drainer.worker_id
        self._drainers = [
            threading.Thread(
                target=self.drainer.drain,
                args=(lambda: self.store.closed,),
                name=f"repro-service-drain-{index}",
                daemon=True,
            )
            for index in range(jobs)
        ]
        for thread in self._drainers:
            thread.start()

    # -- request handling ---------------------------------------------

    def _request_scope(self):
        """A trace context for one request.

        The HTTP layer normally establishes the scope (resuming the
        client's ``X-Repro-Trace``); this makes direct
        :meth:`size_sync`/:meth:`size_async` callers traced too, and
        is a no-op when a scope is already active or tracing is off.
        """
        if not self.trace or current_trace() is not None:
            return nullcontext()
        return trace_scope(sink=self.trace_sink)

    def _admit(self, body: dict, client: str | None = None) -> JobRecord:
        """Validate + admit a request: a queued record, or a finished one
        replayed from cache.

        Unlike a campaign (where an unresolvable circuit token becomes
        a failed job in the sweep), the service rejects it up front as
        a 400 — the requester is still on the line to hear about it.
        The cache probe runs *before* admission control: a replayed
        result consumes no worker, so warm traffic is never bounced by
        a full queue or an exhausted quota.
        """
        with span("service.admit"):
            job = build_job(body, self._netlist_dir)
            sha = self._netlist_sha(job.circuit)
            key = (
                None if self.cache is None else job_key(job, netlist_sha=sha)
            )
            with span("cache.probe") as probe_span:
                hit = probe_cache(job, key, self.cache)
                probe_span.set(hit=hit is not None)
            if hit is None:
                self.admission.admit(client, self.store.depth())
        ctx = current_trace()
        if hit is not None:
            self._m_cache_hits.inc()
            return self.store.create(
                job, key, client,
                trace=ctx.trace_id if ctx is not None else None,
                outcome=hit,
            )
        # Allocate the job's lifecycle root span *here*, in the
        # submitting replica; the row carries trace_id-root_id so
        # whichever replica drains it parents queue-wait and execution
        # spans under this root — one trace end to end.
        trace_ref = (
            format_trace_header(ctx.trace_id, new_span_id())
            if ctx is not None else None
        )
        return self.store.create(job, key, client, trace=trace_ref)

    def _netlist_sha(self, token: str) -> str:
        """Digest of a circuit token's netlist, memoized when immutable.

        Repeat requests must not pay a full netlist resolve+serialize
        before the cache probe, so digests are remembered for tokens
        whose content cannot change underneath the service: suite
        names, ``rca:N`` generators, and our own content-addressed
        spool files.  An arbitrary on-disk ``.bench`` path is
        re-hashed every time — the file may have been edited.
        """
        mutable = token.endswith(".bench") and not token.startswith(
            str(self._netlist_dir)
        )
        if not mutable:
            with self._lock:
                cached = self._digests.get(token)
            if cached is not None:
                return cached
        try:
            sha = netlist_digest(token)
        except ReproError as exc:
            raise ServiceError(
                f"cannot resolve circuit {token!r}: {exc}"
            ) from exc
        if not mutable:
            with self._lock:
                if len(self._digests) >= 4096:  # runaway-token backstop
                    self._digests.clear()
                self._digests[token] = sha
        return sha

    def _account(self, record: JobRecord, outcome: JobOutcome) -> None:
        """Count one drained job before it is published.

        All counters go through the metrics registry — ``/v1/stats``
        and ``/v1/metrics`` read the identical cells.  A leased job that
        re-probed as a cache hit counts as a hit, not an execution.
        """
        if outcome.cached:
            self._m_cache_hits.inc()
            return
        self.admission.observe_drain(outcome.wall_seconds)
        self._m_executed.inc()
        self._m_finished.inc(status=outcome.status)
        self._m_job_seconds.observe(outcome.wall_seconds)

    def size_sync(self, body: dict, client: str | None = None) -> JobRecord:
        """Handle a synchronous ``/v1/size``: block until the job is done.

        The job enters the queue like any other and this (HTTP handler)
        thread waits for *whichever drain worker* finishes it — in this
        replica or another — up to ``sync_wait`` seconds; after that
        the still-unfinished record is returned and the HTTP layer
        degrades the reply to an async 202 ticket.
        """
        with self._request_scope():
            record = self._admit(body, client)
            deadline = time.monotonic() + self.sync_wait
            while not record.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                record = self.store.wait(record.id, record.status, remaining)
            return record

    def size_async(self, body: dict, client: str | None = None) -> JobRecord:
        """Handle ``/v1/size`` with ``async=true``: queue and return."""
        with self._request_scope():
            return self._admit(body, client)

    def get_job(self, job_id: str) -> tuple[JobRecord, dict | None]:
        """A job record plus its full payload when one is available.

        Executed jobs carry their payload in the queue row; a cache
        replay's row holds none, so its payload is re-read from the
        result cache by key.
        """
        record = self.store.get(job_id)
        payload = record.payload
        if payload is None and record.key is not None and (
            record.status in ("ok", "infeasible")
        ):
            hit = probe_cache(record.job, record.key, self.cache)
            if hit is not None:
                payload = hit.payload
        return record, payload

    def list_jobs(
        self,
        status: str | None = None,
        limit: int = 50,
        after: str | None = None,
    ) -> tuple[list[JobRecord], str | None]:
        """Page through admitted jobs (``GET /v1/jobs``).

        ``status`` filters to one job status, ``limit`` caps the page
        (1–500), ``after`` is the cursor returned by the previous page.
        Fleet-wide when the queue is shared.
        """
        if status is not None and status not in JOB_STATUSES:
            raise ServiceError(
                f"unknown status filter {status!r}; "
                f"valid: {list(JOB_STATUSES)}"
            )
        if not 1 <= limit <= 500:
            raise ServiceError(
                f"limit must be between 1 and 500, got {limit}"
            )
        return self.store.list(status=status, limit=limit, after=after)

    def job_events(
        self, job_id: str, timeout: float = 30.0,
    ) -> Iterator[JobRecord]:
        """Yield a job's status snapshots as they change (long-poll).

        The first snapshot is immediate; subsequent ones arrive on
        status transitions.  The stream ends after the terminal
        snapshot, or silently at ``timeout`` — callers reconnect with
        whatever status they last saw.  Backed by :meth:`WorkQueue.wait`.
        """
        deadline = time.monotonic() + timeout
        record = self.store.get(job_id)
        while True:
            yield record
            if record.done:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            latest = self.store.wait(job_id, record.status, remaining)
            if latest.status == record.status and not latest.done:
                return  # deadline expired without a transition
            record = latest

    # -- discovery + introspection ------------------------------------

    def _cache_breaker(self):
        """The shared-tier circuit breaker, when the cache has one.

        Only the tiered backend carries a breaker (its shared L2 is
        the one dependency that can fail independently); every other
        configuration returns None.
        """
        backend = getattr(self.cache, "backend", None)
        return getattr(backend, "breaker", None)

    def health(self) -> dict:
        """Liveness + degradation snapshot for ``GET /v1/healthz``.

        ``status`` is ``"ok"`` or ``"degraded"``: degraded while the
        shared-cache circuit breaker is not closed (the replica is
        serving from its local tier only) or while the work queue has
        poison-parked jobs awaiting operator attention (``python -m
        repro queue inspect``).  Degraded is still HTTP 200 — the
        replica answers correctly, just without its full redundancy;
        load balancers key on ``status``, operators read ``reasons``.
        """
        reasons: list[str] = []
        breaker = self._cache_breaker()
        if breaker is not None and breaker.state != "closed":
            reasons.append(
                f"shared cache tier breaker {breaker.name!r} is "
                f"{breaker.state}; serving from the local tier only"
            )
        poisoned = self.store.poisoned_count()
        if poisoned:
            reasons.append(
                f"{poisoned} job(s) poison-parked in the dead-letter "
                "queue; inspect/requeue with 'python -m repro queue'"
            )
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "workers": self.jobs,
        }

    def stats(self) -> dict:
        """Service counters for ``/v1/stats`` — a view over the registry.

        Every number here reads the same locked
        :class:`~repro.obs.metrics.MetricsRegistry` cells that
        ``/v1/metrics`` exposes, so the two endpoints can never
        disagree.  Solver-phase time and call counts are the
        ``repro_phase_*`` series of ``/v1/metrics`` (e.g.
        ``phase="minflo.d_phase"``), folded from each job's own spans.
        """
        cache_hits = int(self._m_cache_hits.total())
        executed = int(self._m_executed.total())
        breaker = self._cache_breaker()
        injector = active_faults()
        return {
            "uptime_seconds": time.time() - self._started_at,
            "jobs": self.store.counts(),
            "cache_hits": cache_hits,
            "executed": executed,
            "executor": {
                "workers": self.jobs,
                "kind": "thread" if self.drainer.in_thread else "process",
                "timeout": self.timeout,
            },
            "cache_dir": (
                str(self.cache.root) if self.cache is not None else None
            ),
            "cache_backend": (
                self.cache.describe() if self.cache is not None else None
            ),
            "queue": {
                "depth": self.store.depth(),
                "worker_id": self.worker_id,
                "poisoned": self.store.poisoned_count(),
                **self.store.describe(),
            },
            "admission": self.admission.counters(),
            "breaker": breaker.snapshot() if breaker is not None else None,
            "faults": (
                {"spec": injector.spec, "injected": injector.counts()}
                if injector is not None
                else None
            ),
            "pool_rebuilds": int(
                self.metrics.counter("repro_pool_rebuilds_total").total()
            ),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /v1/metrics``.

        Concatenates this service's registry with the process-global
        one (cache-backend probe counters register there, because the
        cache layer predates and outlives any one service instance);
        the family names are disjoint by construction.  Sampled gauges
        (queue depth) are refreshed at scrape time.
        """
        self._m_queue_depth.set(float(self.store.depth()))
        return self.metrics.expose() + get_registry().expose()

    def close(self) -> None:
        """Stop drain workers, then the pool (in-flight jobs finish first)."""
        self.store.close()
        for thread in self._drainers:
            thread.join(timeout=5.0)
        self.drainer.close()
        if self.trace_sink is not None:
            self.trace_sink.close()
        if self.run_dir is None:
            # The spool directory was a mkdtemp this instance owns;
            # with a run_dir it belongs to the operator and persists.
            shutil.rmtree(self._netlist_dir, ignore_errors=True)
