"""Campaign execution: process pool, timeouts, failure isolation.

:func:`run_campaign` drives an expanded job list to completion:

* **Cache probe first.**  Jobs whose content-addressed key already has
  a stored payload never reach the pool — a repeated campaign is pure
  cache replay.
* **Trajectory warm starts.**  An executed sizing job seeds TILOS
  from the instance's trajectory record in the same cache
  (:mod:`repro.runner.trajectory`); payloads equal cold runs.
* **Process pool.**  Remaining jobs run on a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs=1`` runs
  inline in-process, which is what the tests and the benchmarks use
  for determinism-by-construction).  Sizing is deterministic, so
  parallel and serial campaigns produce identical payloads.
* **Per-job timeout.**  Enforced *inside* the worker via
  ``SIGALRM``/``setitimer``, so a hung solve cannot wedge a pool slot
  forever and the pool itself stays healthy.
* **Failure isolation.**  A job that raises (or times out) becomes a
  ``failed``/``timeout`` outcome carrying the traceback; the rest of
  the campaign is unaffected.
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

import multiprocessing
import signal
import sqlite3
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.errors import JobTimeoutError, ReproError
from repro.faults.injector import active as active_faults
from repro.faults.injector import install_from_args, observe_faults, probe
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    SpanSink,
    current_carrier,
    current_trace,
    emit_obs,
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
    "run_one",
    "store_outcome",
]

#: Outcome statuses that represent a finished computation (and are
#: therefore cacheable); ``failed``/``timeout`` are not.
COMPLETED_STATUSES = ("ok", "infeasible")

#: Fresh-pool attempts after worker deaths before the surviving jobs
#: are failed outright — bounds a crash-looping workload (and, under
#: fault injection, caps how long an uncapped ``worker:kill`` rule can
#: stall a campaign).
MAX_POOL_RESTARTS = 8


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
    the main thread (service drain threads, embeddings).  On expiry
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
    platforms, service drain threads executing inline) the budget
    is a watchdog thread (:func:`_watchdog_timeout`), so a timeout is
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
    pool.  The campaign pool and the sizing service both submit this
    exact callable, which is what keeps their results identical.

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
    ``hang`` is bounded by the timeout), and fault events from worker
    *processes* ship home under ``obs["faults"]`` for the parent's
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
    fault_events = (
        injector.drain_events()
        if injector is not None
        # In-process (thread-pool) execution already counted the fires
        # in the shared registry; shipping them would double-count.
        and multiprocessing.parent_process() is not None
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


_UNRESOLVED = object()  # sentinel: run_one must compute the key itself


def run_one(
    job: Job,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    index: int = 0,
    key: str | None | object = _UNRESOLVED,
) -> JobOutcome:
    """Run a single job in this process: probe, execute, store.

    The one-job counterpart of :func:`run_campaign`, and the execution
    path the sizing service (:mod:`repro.service`) shares with the
    campaign loop: cache probe first, then :func:`pool_entry` (failure
    isolation + wall-time budget), then the cache write — so a service
    request and a campaign job with the same fingerprint produce (and
    reuse) the identical cache entry.

    ``key`` may be passed in by callers that already computed it (the
    service does, to log it); by default it is derived here, and a job
    whose circuit token cannot resolve simply executes uncached and
    fails in isolation, exactly like a campaign job would.  A cache hit
    reads the backend once; a miss also reads (and may write) the
    instance's TILOS trajectory record.
    """
    if key is _UNRESOLVED:
        key = campaign_keys([job], cache)[0]
    ctx = current_trace()
    hit = probe_cache(job, key, cache, index=index)
    if hit is not None:
        if ctx is not None:
            hit = replace(hit, trace_id=ctx.trace_id)
        return hit
    status, payload, error, wall, obs = pool_entry(
        job, timeout, current_carrier(), cache
    )
    emit_obs(obs)
    outcome = JobOutcome(
        index=index,
        job=job,
        key=key,
        status=status,
        cached=False,
        wall_seconds=wall,
        payload=payload,
        error=error,
        trace_id=ctx.trace_id if ctx is not None else None,
    )
    store_outcome(outcome, cache)
    return outcome


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
) -> CampaignResult:
    """Run a campaign; returns outcomes in job-expansion order.

    ``jobs`` is the worker-process count (1 = inline, no pool);
    ``cache`` short-circuits jobs whose key is already stored and
    receives every newly completed payload; ``timeout`` is the per-job
    wall-time budget in seconds; ``on_outcome`` is called once per
    outcome *in completion order* (the JSONL streamer hooks in here);
    ``keys`` are precomputed :func:`campaign_keys` (computing a key
    builds the circuit, so callers that already did — e.g. to write the
    run-log header — pass them in rather than paying twice).

    ``trace_sink`` enables tracing: every job gets its own trace id
    and a root ``job`` span; worker-side spans ship back through the
    result tuples and land in the sink (the run directory's
    ``trace.jsonl``) as children of that root.  Payloads, cache
    entries and the run digest are byte-identical with tracing on or
    off.

    Every executed job seeds its TILOS run from the instance's
    trajectory record in ``cache`` and stores its own back when it got
    further (payloads stay bitwise-identical to cold runs), so a
    drifting sweep warms itself up as it goes.
    """
    if isinstance(spec, CampaignSpec):
        name = spec.name
        job_list = spec.jobs()
    else:
        name = "adhoc"
        job_list = list(spec)
    if keys is None:
        keys = campaign_keys(job_list, cache)

    result = CampaignResult(name=name)
    slots: list[JobOutcome | None] = [None] * len(job_list)

    tracing = trace_sink is not None
    trace_ids: dict[int, tuple[str, str]] = (
        {i: (new_trace_id(), new_span_id()) for i in range(len(job_list))}
        if tracing
        else {}
    )

    def carrier_for(index: int) -> dict | None:
        if not tracing:
            return None
        trace_id, root_id = trace_ids[index]
        return {"trace_id": trace_id, "parent_id": root_id}

    def finish(outcome: JobOutcome, obs: dict | None = None) -> None:
        observe_faults(get_registry(), (obs or {}).get("faults"))
        if tracing:
            trace_id, root_id = trace_ids[outcome.index]
            outcome = replace(outcome, trace_id=trace_id)
            records = list((obs or {}).get("spans") or ())
            records.append({
                "type": "span",
                "trace": trace_id,
                "id": root_id,
                "parent": None,
                "name": "job",
                "ts": time.time() - outcome.wall_seconds,
                "duration_s": outcome.wall_seconds,
                "attrs": {
                    "index": outcome.index,
                    "label": outcome.job.label(),
                    "status": outcome.status,
                    "cached": outcome.cached,
                },
            })
            trace_sink.emit_many(records)
        slots[outcome.index] = outcome
        store_outcome(outcome, cache)
        if on_outcome is not None:
            on_outcome(outcome)

    pending: list[tuple[int, Job, str | None]] = []
    for index, job in enumerate(job_list):
        key = keys[index]
        hit = probe_cache(job, key, cache, index=index)
        if hit is not None:
            finish(hit)
        else:
            pending.append((index, job, key))

    fault_injector = active_faults()
    fault_args = (
        fault_injector.config_args() if fault_injector is not None else None
    )

    if pending and jobs <= 1:
        for index, job, key in pending:
            status, payload, error, wall, obs = pool_entry(
                job, timeout, carrier_for(index), cache
            )
            finish(JobOutcome(
                index=index,
                job=job,
                key=key,
                status=status,
                cached=False,
                wall_seconds=wall,
                payload=payload,
                error=error,
            ), obs)
    elif pending:
        cache_spec = cache.describe() if cache is not None else None
        queue_items = list(pending)
        restarts = 0
        while queue_items:
            broken: list[tuple[int, Job, str | None]] = []
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(
                        pool_entry, job, timeout, carrier_for(index),
                        cache_spec, fault_args,
                    ): (index, job, key)
                    for index, job, key in queue_items
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index, job, key = futures[future]
                        obs = None
                        try:
                            status, payload, error, wall, obs = future.result()
                        except BrokenExecutor:
                            # A worker died (SIGKILL, OOM, injected
                            # kill): every in-flight job's future breaks
                            # at once.  Collect them for a fresh pool
                            # instead of failing the campaign.
                            broken.append((index, job, key))
                            continue
                        except Exception as exc:
                            status, payload, wall = "failed", None, 0.0
                            error = f"{type(exc).__name__}: {exc}"
                        finish(JobOutcome(
                            index=index,
                            job=job,
                            key=key,
                            status=status,
                            cached=False,
                            wall_seconds=wall,
                            payload=payload,
                            error=error,
                        ), obs)
            if not broken:
                break
            # A worker killed between its cache put and returning may
            # already have stored its result — re-probe before re-running
            # so the crash-resume replays instead of recomputing.
            queue_items = []
            for index, job, key in sorted(broken):
                hit = probe_cache(job, key, cache, index=index)
                if hit is not None:
                    finish(hit)
                else:
                    queue_items.append((index, job, key))
            restarts += 1
            if queue_items and restarts >= MAX_POOL_RESTARTS:
                for index, job, key in queue_items:
                    finish(JobOutcome(
                        index=index,
                        job=job,
                        key=key,
                        status="failed",
                        cached=False,
                        wall_seconds=0.0,
                        payload=None,
                        error=(
                            f"worker process died repeatedly; gave up "
                            f"after {restarts} pool restarts"
                        ),
                    ))
                break

    result.outcomes = [slot for slot in slots if slot is not None]
    return result
