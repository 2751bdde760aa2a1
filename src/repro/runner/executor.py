"""Campaign execution: cache probe, the shared drainer, ordering.

:func:`run_campaign` drives an expanded job list to completion:

* **Cache probe first.**  Jobs whose content-addressed key already has
  a stored payload never reach a queue — a repeated campaign is pure
  cache replay, with no database opened.
* **One execution path.**  The misses become rows of a
  :class:`~repro.runner.queue.WorkQueue` (``RUN_DIR/queue.db``, or a
  temporary directory without a run directory), drained by the same
  :class:`~repro.runner.drain.Drainer` the sizing service uses, in the
  calling thread for ``jobs=1`` and on ``jobs`` threads otherwise (see
  :mod:`repro.runner.drain` for where each job runs).  Sizing is
  deterministic, so parallel and serial campaigns produce identical
  payloads.
* **Trajectory warm starts.**  An executed sizing job seeds TILOS
  from the instance's trajectory record in the same cache
  (:mod:`repro.runner.trajectory`); payloads equal cold runs.
* **Per-job timeout.**  Enforced by :func:`pool_entry` via
  ``SIGALRM``/``setitimer`` on a worker's main thread, so a hung solve
  cannot wedge a worker forever.
* **Failure isolation.**  A job that raises (or times out) becomes a
  ``failed``/``timeout`` outcome carrying the traceback; a job whose
  worker process dies goes back to the queue, which dead-letters it
  after ``max_attempts`` claims.  The rest of the campaign is
  unaffected.
* **Deterministic ordering.**  Outcomes are returned in job-expansion
  order no matter which worker finished first; streaming consumers
  (the JSONL run log) observe completion order but every record
  carries its job index.

A job's timings are its spans (``job.execute``, ``tilos.seed``,
``minflo.*``), collected per job through the trace context; the
payload carries only what the job computed, plus the TILOS and
MINFLOTRANSIT ``runtime_seconds``.
"""

from __future__ import annotations

import shutil
import signal
import sqlite3
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import JobTimeoutError, ReproError
from repro.faults.injector import install_from_args, probe
from repro.obs.trace import (
    SpanSink,
    format_trace_header,
    new_span_id,
    new_trace_id,
    span,
    trace_scope,
)
from repro.runner.cache import ResultCache, job_key, netlist_digest
from repro.runner.spec import CampaignSpec, Job, resolve_circuit

__all__ = [
    "JobOutcome",
    "CampaignResult",
    "campaign_keys",
    "execute_job",
    "pool_entry",
    "probe_cache",
    "run_campaign",
    "store_outcome",
]

#: Outcome statuses that represent a finished computation (and are
#: therefore cacheable); ``failed``/``timeout`` are not.
COMPLETED_STATUSES = ("ok", "infeasible")

@dataclass(frozen=True)
class JobOutcome:
    """One job's fate: status, payload, provenance."""

    index: int
    job: Job
    key: str | None
    status: str  # "ok" | "infeasible" | "failed" | "timeout"
    cached: bool
    wall_seconds: float
    payload: dict | None
    error: str | None = None
    #: Trace id of the execution that produced this outcome (None when
    #: tracing is off); volatile telemetry, never part of the payload.
    trace_id: str | None = None

    @property
    def completed(self) -> bool:
        """True when the job finished computing (even if infeasible)."""
        return self.status in COMPLETED_STATUSES


@dataclass
class CampaignResult:
    """All outcomes of one campaign run, in job-expansion order."""

    name: str
    outcomes: list[JobOutcome] = field(default_factory=list)

    @property
    def n_cached(self) -> int:
        """Jobs replayed from the result cache instead of executed."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_failed(self) -> int:
        """Jobs that did not finish computing (failed or timed out)."""
        return sum(1 for o in self.outcomes if not o.completed)

    def counts(self) -> dict[str, int]:
        """Outcome tally by status (``{"ok": 3, "failed": 1, ...}``)."""
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out


# -- job execution (runs in the worker process) -----------------------


def _execute_sizing(
    job: Job, cache: ResultCache | None = None
) -> tuple[str, dict]:
    """Full TILOS + MINFLOTRANSIT pipeline for one job.

    With a ``cache``, the instance's stored TILOS trajectory seeds the
    solve and the run's own trajectory is stored back when it got
    further (:func:`~repro.runner.trajectory.seeded_tilos`); the
    replay is checked bitwise, so the payload is what a cold run
    produces either way.
    """
    from repro.circuit.mapping import is_primitive_circuit, map_to_primitives
    from repro.dag import build_sizing_dag
    from repro.runner.trajectory import seeded_tilos
    from repro.sizing import minflotransit
    from repro.sizing.serialize import result_to_dict
    from repro.tech import default_technology
    from repro.timing import GraphTimer

    circuit = resolve_circuit(job.circuit)
    if job.mode == "transistor" and not is_primitive_circuit(circuit):
        circuit = map_to_primitives(circuit, suffix="")
    tech = default_technology()
    dag = build_sizing_dag(circuit, tech, mode=job.mode)
    timer = GraphTimer(dag)
    x_min = dag.min_sizes()
    d_min = timer.analyze(dag.delays(x_min)).critical_path_delay
    target = job.delay_spec * d_min

    payload = {
        "circuit": job.circuit,
        "name": circuit.name,
        "n_gates": circuit.n_gates,
        "n_vertices": dag.n,
        "delay_spec": job.delay_spec,
        "d_min": d_min,
        "target": target,
        "min_area": dag.area(x_min),
    }
    with span("tilos.seed", circuit=job.circuit) as seed_span:
        seed, rejected = seeded_tilos(dag, target, cache)
        # The timer counters cover only the bumps this run timed (a
        # seeded run fast-forwards ``replayed`` bumps untimed), so they
        # describe this execution and stay out of the payload.
        seed_span.set(
            iterations=seed.iterations,
            feasible=seed.feasible,
            replayed=(seed.warm or {}).get("replayed", 0),
            **seed.timing_stats,
        )
        if rejected is not None:
            seed_span.set(rejected=rejected)
    payload["seed"] = {
        "feasible": seed.feasible,
        "area": seed.area,
        "critical_path_delay": seed.critical_path_delay,
        "runtime_seconds": seed.runtime_seconds,
        "iterations": seed.iterations,
    }
    if not seed.feasible:
        payload["result"] = None
    else:
        with span("minflo", circuit=job.circuit) as minflo_span:
            result = minflotransit(
                dag, target, options=job.minflo_options(), x0=seed.x
            )
            minflo_span.set(iterations=len(result.iterations))
        payload["result"] = result_to_dict(result)
    return ("ok" if seed.feasible else "infeasible"), payload


def execute_job(
    job: Job, cache: ResultCache | None = None
) -> tuple[str, dict]:
    """Run one job to completion in this process; returns (status, payload).

    ``cache`` (the job's result cache) holds the instance's TILOS
    trajectory record; the payload itself is stored by the caller.
    """
    probe("solver")  # injected solver-phase delays land here
    return _execute_sizing(job, cache)


def _watchdog_timeout(fn, timeout: float):
    """Portable wall-time budget: run ``fn`` in a daemon thread.

    The fallback for platforms without ``SIGALRM`` and for calls off
    the main thread (embeddings; the drainer runs every timed job on a
    worker process's main thread).  On expiry
    the *caller* gets :class:`JobTimeoutError` immediately; the
    abandoned thread cannot be killed (CPython has no thread cancel)
    and is left to finish in the background — its result is discarded.
    That leak is bounded in practice: workers are pool processes that
    recycle, and a genuinely hung solve would otherwise wedge the slot
    forever, which is strictly worse.
    """
    outcome: list = []

    def _target() -> None:
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome.append((False, exc))

    worker = threading.Thread(
        target=_target, name="repro-job-watchdog", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise JobTimeoutError(
            f"job exceeded its {timeout:g}s budget (watchdog)"
        )
    ok, value = outcome[0]
    if ok:
        return value
    raise value


def _with_timeout(fn, timeout: float | None):
    """Run ``fn`` under a wall-time budget.

    On a POSIX main thread the budget is ``SIGALRM``/``setitimer`` —
    it interrupts even a wedged C call.  Everywhere else (non-unix
    platforms, calls off the main thread) the budget is a watchdog
    thread (:func:`_watchdog_timeout`), so a timeout is
    *always* enforced rather than silently skipped.

    The alarm handler records that it fired before it raises: an
    alarm that lands inside a finalizer (``__del__``) has its
    exception printed as "Exception ignored" and swallowed, and ``fn``
    runs on to a normal return.  Such a job still overran its budget,
    so it is reported as a timeout all the same.
    """
    if not timeout:
        return fn()
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        message = f"job exceeded its {timeout:g}s budget"
        fired = False

        def _alarm(signum, frame):
            nonlocal fired
            fired = True
            raise JobTimeoutError(message)

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if fired:
            raise JobTimeoutError(message)
        return value
    return _watchdog_timeout(fn, timeout)


def _job_cache(cache: ResultCache | str | None) -> ResultCache | None:
    """The job's result cache in this process.

    A process-pool worker reopens the parent's cache from its
    :meth:`~repro.runner.cache.ResultCache.describe` spec; a cache that
    cannot be opened leaves the job cold.
    """
    if not isinstance(cache, str):
        return cache
    try:
        return ResultCache(cache)
    except (OSError, sqlite3.Error):
        return None


def pool_entry(
    job: Job,
    timeout: float | None,
    trace: dict | None = None,
    cache: ResultCache | str | None = None,
    faults: tuple | None = None,
) -> tuple[str, dict | None, str | None, float, dict | None]:
    """Worker-side wrapper: isolate failures, enforce the timeout.

    Returns ``(status, payload, error, wall_seconds, obs)`` — a plain
    tuple of primitives so it pickles cleanly back across the process
    pool.  The drainer (:mod:`repro.runner.drain`) calls it for every
    campaign job and every service request, in-thread or on a worker
    process, which is what keeps their results identical.

    ``trace`` is an optional :func:`~repro.obs.trace.current_carrier`
    dict; when given, the job executes inside the propagated trace
    context, its spans (``job.execute`` plus every solver-phase span
    underneath) buffer in-process, and ``obs`` carries them back as
    ``{"spans": [...]}`` for the parent to merge — how span parentage
    survives the forkserver boundary.  With ``trace=None`` no context
    is created and no span cost is paid: tracing costs nothing when off.

    ``cache`` is the job's result cache, or its spec string when the
    call crosses a process boundary (live connections do not pickle).
    The job reads and writes only its TILOS trajectory record there;
    the parent stores the payload.  ``obs`` is None only when tracing
    and fault injection are both off.

    ``faults`` is an optional fault-injection config
    (:meth:`~repro.faults.injector.FaultInjector.config_args`); the
    worker (re-)installs it before the job runs — explicit hand-off,
    because a forkserver started before ``install`` would never see
    the parent's environment variables.  The ``worker`` probe fires
    inside the job's wall-time budget (a ``kill`` exits the process, a
    ``hang`` is bounded by the timeout), and the fault events of a task
    given ``faults`` ship home under ``obs["faults"]`` for the parent's
    metrics.
    """
    injector = install_from_args(faults)
    start = time.perf_counter()
    sink = SpanSink() if trace is not None else None
    scope = (
        trace_scope(
            sink=sink,
            trace_id=trace.get("trace_id"),
            parent_id=trace.get("parent_id"),
        )
        if sink is not None
        else nullcontext()
    )
    cache = _job_cache(cache)
    status: str
    payload: dict | None = None
    error: str | None = None
    try:
        with scope:
            with span(
                "job.execute",
                circuit=job.circuit,
                delay_spec=job.delay_spec,
            ):
                def _run():
                    probe("worker")  # kill/hang faults strike at entry
                    return execute_job(job, cache=cache)

                status, payload = _with_timeout(_run, timeout)
    except JobTimeoutError as exc:
        status, error = "timeout", str(exc)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        status = "failed"
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    obs: dict | None = None
    # Only pool tasks get ``faults`` handed over; in-thread execution
    # already counted its fires in the shared registry.
    fault_events = (
        injector.drain_events()
        if injector is not None and faults is not None
        else None
    )
    if sink is not None or fault_events:
        obs = {}
        if sink is not None:
            obs["spans"] = sink.drain()
        if fault_events:
            obs["faults"] = fault_events
    return status, payload, error, time.perf_counter() - start, obs


# -- the driver (parent process) --------------------------------------


def _payload_status(payload: dict) -> str:
    """Completed status a cached sizing payload replays as."""
    return "ok" if payload.get("result") is not None else "infeasible"


def probe_cache(
    job: Job, key: str | None, cache: ResultCache | None, index: int = 0
) -> JobOutcome | None:
    """Replay a job from the result cache, or None on a miss.

    A hit comes back as a completed :class:`JobOutcome` with
    ``cached=True`` and zero wall time.
    """
    if cache is None or key is None:
        return None
    payload = cache.get(key)
    if payload is None:
        return None
    return JobOutcome(
        index=index,
        job=job,
        key=key,
        status=_payload_status(payload),
        cached=True,
        wall_seconds=0.0,
        payload=payload,
    )


def store_outcome(outcome: JobOutcome, cache: ResultCache | None) -> None:
    """Store a freshly computed outcome in the result cache.

    No-op for cache misses that failed or timed out and for replayed
    (already cached) outcomes.
    """
    if (
        outcome.completed
        and not outcome.cached
        and cache is not None
        and outcome.key is not None
    ):
        cache.put(outcome.key, outcome.payload)


def campaign_keys(
    job_list: list[Job], cache: ResultCache | None
) -> list[str | None]:
    """Cache keys for a job list (None entries when caching is off).

    Keying a job builds its circuit; a job whose token cannot resolve
    gets a None key here and fails in isolation when executed, instead
    of taking the whole campaign down before it starts.  Each distinct
    circuit token is resolved and serialized once per pass no matter
    how many jobs share it (a figure-7 panel is one circuit × many
    ratios).
    """
    keys: list[str | None] = []
    digests: dict[str, str | None] = {}
    for job in job_list:
        if cache is None:
            keys.append(None)
            continue
        if job.circuit not in digests:
            try:
                digests[job.circuit] = netlist_digest(job.circuit)
            except ReproError:
                digests[job.circuit] = None
        sha = digests[job.circuit]
        keys.append(None if sha is None else job_key(job, netlist_sha=sha))
    return keys


def run_campaign(
    spec: CampaignSpec | list[Job],
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    on_outcome=None,
    keys: list[str | None] | None = None,
    trace_sink: SpanSink | None = None,
    run_dir: str | Path | None = None,
) -> CampaignResult:
    """Run a campaign; returns outcomes in job-expansion order.

    ``jobs`` is the drain-thread and worker-process count (1 = the
    calling thread; see :mod:`repro.runner.drain` for where jobs run);
    ``cache`` short-circuits jobs whose key is already stored and
    receives every newly completed payload; ``timeout`` is the per-job
    wall-time budget in seconds; ``on_outcome`` is called once per
    outcome *in completion order*, never from two threads at once (the
    JSONL streamer hooks in here); ``keys`` are precomputed
    :func:`campaign_keys` (computing a key builds the circuit, so
    callers that already did — e.g. to write the run-log header — pass
    them in rather than paying twice).  The misses go through
    ``run_dir/queue.db``, emptied first, which ``python -m repro queue
    inspect`` reads afterwards; without a ``run_dir`` the queue lives
    in a temporary directory removed on return.

    ``trace_sink`` enables tracing: every job gets its own trace id
    and a root ``job`` span; an executed job's ``queue.wait``,
    ``cache.probe`` and worker-side spans land in the sink (the run
    directory's ``trace.jsonl``) as children of that root.  Payloads,
    cache entries and the run digest are byte-identical with tracing on
    or off.

    Every executed job seeds its TILOS run from the instance's
    trajectory record in ``cache`` and stores its own back when it got
    further (payloads stay bitwise-identical to cold runs), so a
    drifting sweep warms itself up as it goes.
    """
    from repro.runner.drain import Drainer, emit_job_span
    from repro.runner.queue import WorkQueue

    if isinstance(spec, CampaignSpec):
        name = spec.name
        job_list = spec.jobs()
    else:
        name = "adhoc"
        job_list = list(spec)
    if keys is None:
        keys = campaign_keys(job_list, cache)
    slots: list[JobOutcome | None] = [None] * len(job_list)
    lock = threading.Lock()

    def finish(outcome: JobOutcome) -> None:
        with lock:
            slots[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    pending: list[int] = []
    for index, job in enumerate(job_list):
        hit = probe_cache(job, keys[index], cache, index=index)
        if hit is None:
            pending.append(index)
            continue
        if trace_sink is not None:
            trace_id, now = new_trace_id(), time.time()
            emit_job_span(
                trace_sink, trace_id, new_span_id(), now, now,
                index=index, label=job.label(), status=hit.status,
                cached=True,
            )
            hit = replace(hit, trace_id=trace_id)
        finish(hit)
    if not pending:
        return CampaignResult(name=name, outcomes=slots)

    owned = None if run_dir is not None else tempfile.mkdtemp(
        prefix="repro-campaign-"
    )
    db = Path(run_dir if run_dir is not None else owned) / "queue.db"
    for suffix in ("", "-wal", "-shm"):  # each invocation starts empty
        db.with_name(db.name + suffix).unlink(missing_ok=True)
    store = WorkQueue(db)
    try:
        rows = {
            store.create(
                job_list[index], keys[index],
                trace=(
                    format_trace_header(new_trace_id(), new_span_id())
                    if trace_sink is not None else None
                ),
            ).id: index
            for index in pending
        }
        drainer = Drainer(
            store, cache, jobs=max(1, jobs), timeout=timeout,
            trace=trace_sink is not None, trace_sink=trace_sink,
            on_finish=lambda record, outcome: finish(
                replace(outcome, index=rows[record.id])
            ),
        )
        try:
            drainer.run(lambda: store.closed or store.depth() == 0)
        finally:
            drainer.close()
        # Dead-lettered rows never come back through a drain round.
        for job_id, index in rows.items():
            if slots[index] is None:
                record = store.get(job_id)
                finish(JobOutcome(
                    index=index,
                    job=job_list[index],
                    key=keys[index],
                    status="failed",
                    cached=False,
                    wall_seconds=0.0,
                    payload=None,
                    error=record.error,
                    trace_id=record.trace_id,
                ))
    finally:
        store.close()
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)
    return CampaignResult(name=name, outcomes=slots)
