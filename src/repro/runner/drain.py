"""The one drainer every cache miss runs through.

A campaign's misses (:func:`repro.runner.executor.run_campaign`) and a
service's admitted requests (:class:`repro.service.SizingService`) are
rows in a :class:`~repro.runner.queue.WorkQueue`, and a
:class:`Drainer` works them off.  One drain round leases the oldest
runnable row, re-probes the result cache (another worker may have
finished an identical job since it was enqueued), executes a miss
through :func:`~repro.runner.executor.pool_entry`, stores a completed
payload in the cache and publishes the outcome to the queue.

Where a job runs follows from the inputs alone:

* ``jobs == 1`` and no timeout — in the draining thread itself;
* otherwise — on a process pool of ``jobs`` workers started by
  ``forkserver`` (or ``spawn``).  Drain threads make ``fork`` unsafe (a
  child forked while another thread holds a lock can deadlock), and a
  timeout needs a worker's main thread to arm ``SIGALRM``.

A worker process that dies (the OOM killer, an injected
``worker:kill``) breaks the pool.  The drainer swaps in a fresh pool
once and hands the job back to the queue with
:meth:`~repro.runner.queue.WorkQueue.release`; the queue's
``max_attempts`` then decides between another attempt and the
dead-letter state.

Tracing: a row's ``trace_id-root_span_id`` ref was allocated by
whoever enqueued it.  The drainer parents the row's ``queue.wait``,
``cache.probe`` and execution spans under that root and, once the row
is finished, emits the ``job`` root span itself (:func:`emit_job_span`).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import BrokenExecutor
from contextlib import nullcontext
from dataclasses import replace
from typing import Callable

from repro.faults.injector import active as active_faults
from repro.faults.injector import observe_faults
from repro.obs.metrics import MetricsRegistry, get_registry, observe_spans
from repro.obs.trace import (
    SpanSink,
    current_carrier,
    new_span_id,
    span,
    trace_scope,
)
from repro.runner.cache import ResultCache
from repro.runner.executor import (
    JobOutcome,
    pool_entry,
    probe_cache,
    store_outcome,
)
from repro.runner.queue import JobRecord, WorkQueue

__all__ = ["Drainer", "emit_job_span"]


def emit_job_span(
    sink: SpanSink, trace_id: str, span_id: str, start: float, end: float,
    **attrs,
) -> None:
    """Emit a job's lifecycle root span (``job``) into ``sink``.

    It covers ``start`` → ``end`` on the wall clock, clamped at zero:
    the two ends may be observed by different hosts.
    """
    sink.emit({
        "type": "span",
        "trace": trace_id,
        "id": span_id,
        "parent": None,
        "name": "job",
        "ts": start,
        "duration_s": max(0.0, end - start),
        "attrs": attrs,
    })


def _make_pool(jobs: int):
    """A ``forkserver`` (else ``spawn``) process pool of ``jobs`` workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    method = "forkserver" if "forkserver" in methods else "spawn"
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context(method)
    )


class Drainer:
    """Lease → re-probe → execute → publish over one :class:`WorkQueue`.

    ``jobs`` and ``timeout`` decide where jobs run (see the module
    docstring); ``cache`` is probed before and written after every
    execution.  With ``trace``, rows carrying a trace ref get their
    spans folded into ``metrics`` and appended to ``trace_sink``.
    ``on_finish(record, outcome)`` is called once per drained job,
    before its outcome is published to the queue — the caller's
    accounting hook.  It may be called from several drain threads at
    once.
    """

    def __init__(
        self,
        store: WorkQueue,
        cache: ResultCache | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        trace: bool = False,
        trace_sink: SpanSink | None = None,
        metrics: MetricsRegistry | None = None,
        on_finish: Callable[[JobRecord, JobOutcome], None] | None = None,
    ):
        self.store = store
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.trace = trace
        self.trace_sink = trace_sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_finish = on_finish
        self.worker_id = f"{socket.gethostname()}:{os.getpid()}"
        #: True when jobs run in the draining thread (no pool at all).
        self.in_thread = jobs == 1 and timeout is None
        self._m_pool_rebuilds = self.metrics.counter(
            "repro_pool_rebuilds_total",
            "Fresh worker pools swapped in after a worker process died.",
        )
        self._lock = threading.Lock()
        self._pool = None if self.in_thread else _make_pool(jobs)
        # The cache as pool_entry sees it: this instance in-thread, a
        # spec string that process workers reopen.
        self._job_cache = (
            cache.describe()
            if cache is not None and not self.in_thread
            else cache
        )

    def run(self, stop: Callable[[], bool]) -> None:
        """Drain until ``stop()``: in the calling thread for ``jobs=1``,
        else on ``jobs`` drain threads, all joined before returning.

        The first error of a drain thread closes the queue, which stops
        the other threads, and is re-raised here.
        """
        if self.jobs == 1:
            return self.drain(stop)
        failures: list[BaseException] = []

        def target() -> None:
            try:
                self.drain(stop)
            except BaseException as exc:  # re-raised in the caller
                failures.append(exc)
                self.store.close()

        threads = [
            threading.Thread(
                target=target, name=f"repro-drain-{i}", daemon=True
            )
            for i in range(self.jobs)
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            self.store.close()  # interrupted: stop after the current round
            for thread in threads:
                thread.join()
        if failures:
            raise failures[0]

    def drain(self, stop: Callable[[], bool]) -> None:
        """Run drain rounds until ``stop()``; a round that finds no
        claimable row sleeps on the queue's wakeups."""
        while not stop():
            seen = self.store.version
            if not self.drain_round():
                self.store.idle(seen)

    def drain_round(self) -> bool:
        """Lease one row and see it through; True when a row was claimed."""
        try:
            record = self.store.lease(self.worker_id)
        except Exception:  # noqa: BLE001 — a busy/locked DB must not
            return False  # kill the drain thread; retry next round
        if record is None:
            return False
        tid, root = self._resume_trace(record)
        scope = (
            nullcontext() if tid is None else trace_scope(
                sink=self.trace_sink, trace_id=tid, parent_id=root
            )
        )
        obs = None
        with scope:
            with span("cache.probe") as probe_span:
                outcome = probe_cache(record.job, record.key, self.cache)
                probe_span.set(hit=outcome is not None)
            if outcome is None:
                ran = self._execute(record, current_carrier() if tid else None)
                if ran is None:  # the worker died: back to the queue
                    self.store.release(record.id)
                    return True
                outcome, obs = ran
        if not outcome.cached:
            observe_faults(get_registry(), (obs or {}).get("faults"))
            store_outcome(outcome, self.cache)
            spans = (obs or {}).get("spans") or ()
            if spans:
                observe_spans(self.metrics, spans)
                if self.trace_sink is not None:
                    self.trace_sink.emit_many(spans)
        outcome = replace(outcome, trace_id=record.trace_id)
        if self.on_finish is not None:
            self.on_finish(record, outcome)
        finished = self.store.finish(record.id, outcome)
        if tid is not None and self.trace_sink is not None:
            emit_job_span(
                self.trace_sink, tid, root, record.created_at,
                finished.finished_at or time.time(),
                job=record.id, label=record.job.label(),
                status=finished.status, cached=finished.cached,
                worker=self.worker_id,
            )
        return True

    def _resume_trace(
        self, record: JobRecord
    ) -> tuple[str | None, str | None]:
        """Parse a leased row's trace ref and emit its ``queue.wait``
        span (enqueue → lease on the wall clock, clamped at zero)."""
        ref = record.trace if self.trace else None
        tid, _, root = (ref or "").partition("-")
        if not tid or not root:
            return None, None
        wait = {
            "type": "span",
            "trace": tid,
            "id": new_span_id(),
            "parent": root,
            "name": "queue.wait",
            "ts": record.created_at,
            "duration_s": max(0.0, time.time() - record.created_at),
            "attrs": {"job": record.id, "worker": self.worker_id},
        }
        observe_spans(self.metrics, [wait])
        if self.trace_sink is not None:
            self.trace_sink.emit(wait)
        return tid, root

    def _execute(
        self, record: JobRecord, carrier: dict | None
    ) -> tuple[JobOutcome, dict | None] | None:
        """Run one miss through :func:`pool_entry`; ``(outcome, obs)``,
        or None when its worker process died."""
        args = (record.job, self.timeout, carrier, self._job_cache)
        pool = self._pool
        if pool is None:
            raw = pool_entry(*args)
        else:
            # Workers started before a test's install() never saw the
            # injector's environment: hand its config over explicitly.
            injector = active_faults()
            faults = injector.config_args() if injector is not None else None
            try:
                raw = pool.submit(pool_entry, *args, faults).result()
            except BrokenExecutor:
                self._rebuild(pool)
                return None
            except Exception as exc:  # noqa: BLE001 — the pool could
                # not run the task at all; fail this job, not the drain.
                error = f"{type(exc).__name__}: {exc}"
                raw = ("failed", None, error, 0.0, None)
        status, payload, error, wall, obs = raw
        outcome = JobOutcome(
            index=0,
            job=record.job,
            key=record.key,
            status=status,
            cached=False,
            wall_seconds=wall,
            payload=payload,
            error=error,
        )
        return outcome, obs

    def _rebuild(self, broken) -> None:
        """Swap a broken pool for a fresh one (idempotent: of the
        threads that saw the same death, only the first swaps)."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = _make_pool(self.jobs)
            self._m_pool_rebuilds.inc()
        broken.shutdown(wait=False)

    def close(self) -> None:
        """Shut the worker pool down (in-flight jobs finish first)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
