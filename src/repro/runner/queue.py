"""The job store every cache miss runs through: one durable sqlite queue.

Every job that misses the result cache becomes a row in a
:class:`WorkQueue` — one SQLite database (WAL mode) that any number of
processes may open concurrently.  A campaign keeps its queue in its
run directory (or in a temporary directory without one) and starts it
empty on every ``run``/``resume``; a standalone service keeps its
queue in its run directory too, and replicas given the same
``--queue`` path share one job stream.
A submission enqueues a ``queued`` row; drain workers
(:mod:`repro.runner.drain`) claim work with :meth:`WorkQueue.lease`,
which atomically flips the oldest claimable row to ``running`` under a
**visibility timeout**: if the leasing worker dies (process crash,
power cut, restart), the lease expires and another worker re-claims
the job, so a job submitted anywhere eventually runs somewhere.  A
drainer that sees its worker process die hands the row back at once
with :meth:`WorkQueue.release` instead of waiting out the lease.
Execution is therefore *at-least-once*; results are deterministic and
content-addressed, so a double execution settles on byte-identical
cache entries and the second ``finish`` is a harmless overwrite.

Rows double as the durable job record: terminal status, summary,
error, wall time and the (JSON) result payload live in the row, which
is what lets ``GET /v1/jobs/<id>`` answer after a restart, or on any
replica for a job another replica executed — even with caching
disabled.  A cache replay is recorded as one row inserted already
finished, without the payload column: the payload lives in the cache
it was just read from.  A job claimed ``max_attempts`` times (default
:data:`MAX_ATTEMPTS`, operator-tunable via ``serve --max-attempts``)
whose last attempt also died is failed permanently rather than
crash-looping its workers; every reclaim and failure is appended to
the row's ``history`` column, so the dead-letter tooling (``python -m
repro queue inspect``) can show *why* a job went poison and ``queue
requeue`` can send it back after a fix.

Waiting is event-driven within one process: each instance notifies a
condition variable on :meth:`WorkQueue.create`,
:meth:`WorkQueue.finish`, :meth:`WorkQueue.release`,
:meth:`WorkQueue.requeue` and :meth:`WorkQueue.close`, so idle drain
workers and :meth:`WorkQueue.wait` callers wake on the transition.
Changes made by other processes are picked up by re-reading every
:data:`POLL_INTERVAL` seconds.

Queue sqlite operations run under a shared retry policy
(:mod:`repro.faults.retry`): ``database is locked`` under replica
contention — or an injected ``queue.lease:busy`` fault — is backed
off and retried instead of surfacing to the drain loop.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.faults.injector import probe
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.runner.executor import JobOutcome
from repro.runner.progress import job_summary
from repro.runner.spec import Job

__all__ = ["JOB_STATUSES", "MAX_ATTEMPTS", "JobRecord", "WorkQueue"]

#: Statuses a job can be observed in; ``queued``/``running`` are live.
JOB_STATUSES = ("queued", "running", "ok", "infeasible", "failed", "timeout")

#: Default lease claims per job before it is failed permanently — a
#: job that kills its worker three times is poison, not unlucky.
MAX_ATTEMPTS = 3

#: Seconds between re-reads of the database while waiting: the bound on
#: how late a waiter sees a change made by another process (changes
#: made through the same instance wake waiters at once).
POLL_INTERVAL = 0.05

#: Monotonic admit anchors kept per instance before the table is
#: cleared.  Jobs this process created but another replica finished
#: (or the lease reaper poison-parked) never pop their anchor; an
#: evicted anchor falls back to the outcome's own ``wall_seconds``.
MAX_ANCHORS = 4096

#: Backoff for contended/injected sqlite failures on queue operations.
_QUEUE_RETRY = RetryPolicy(
    attempts=4, base_delay=0.02, max_delay=0.5,
    retryable=(sqlite3.OperationalError,),
)

_SCHEMA = """
    CREATE TABLE IF NOT EXISTS jobs (
        seq INTEGER PRIMARY KEY AUTOINCREMENT,
        id TEXT UNIQUE NOT NULL,
        job TEXT NOT NULL,
        label TEXT,
        key TEXT,
        client TEXT,
        status TEXT NOT NULL DEFAULT 'queued',
        created_at REAL NOT NULL,
        lease_owner TEXT,
        lease_expires REAL,
        attempts INTEGER NOT NULL DEFAULT 0,
        cached INTEGER NOT NULL DEFAULT 0,
        wall_seconds REAL,
        duration_s REAL,
        summary TEXT,
        error TEXT,
        payload TEXT,
        finished_at REAL,
        trace TEXT
    )
"""

#: Columns added after the first shipped schema; existing databases
#: are migrated in place with guarded ``ALTER TABLE`` on open.
_MIGRATIONS = (
    ("duration_s", "REAL"),
    ("trace", "TEXT"),
    ("history", "TEXT"),
)


@dataclass
class JobRecord:
    """One admitted request: identity, parameters, and (later) its fate."""

    id: str
    job: Job
    key: str | None
    created_at: float
    status: str = "queued"
    cached: bool = False
    wall_seconds: float | None = None
    summary: dict | None = None
    error: str | None = None
    finished_at: float | None = None
    #: Admit-to-finish latency measured on the *monotonic* clock by the
    #: process that observed both ends (falls back to the outcome's
    #: ``wall_seconds`` when finish happened in another process, e.g. a
    #: queue-sharing replica).  Unlike ``finished_at - created_at`` it
    #: can never go negative under a wall-clock step.
    duration_s: float | None = None
    #: Trace reference (``trace_id`` or ``trace_id-root_span_id``) tying
    #: this job to its span tree in ``trace.jsonl``; None with tracing
    #: off.
    trace: str | None = None
    #: Full result payload: the row's payload column for executed jobs;
    #: for a cache replay only the admitting request holds it, and
    #: later readers re-read it from the result cache.
    payload: dict | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """True once the job reached a terminal status."""
        return self.status not in ("queued", "running")

    @property
    def trace_id(self) -> str | None:
        """The trace id part of :attr:`trace` (root span id stripped)."""
        if self.trace is None:
            return None
        return self.trace.partition("-")[0] or None

    def to_wire(self) -> dict:
        """JSON-ready public view of this record (payload excluded)."""
        return {
            "id": self.id,
            "status": self.status,
            "job": self.job.to_dict(),
            "label": self.job.label(),
            "key": self.key,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "duration_s": self.duration_s,
            "summary": self.summary,
            "error": self.error,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "trace_id": self.trace_id,
        }


def _json_or_none(value) -> str | None:
    return None if value is None else json.dumps(value)


class WorkQueue:
    """SQLite-backed durable job queue and job record store.

    ``path`` is the database file every replica opens;
    ``visibility_timeout`` is how long a lease holds before the job is
    considered abandoned and re-claimable (make it comfortably longer
    than the worst job, or pair it with a per-job ``timeout`` so jobs
    cannot outlive their lease); ``max_attempts`` is how many lease
    claims a job gets before it is failed permanently (poison).
    """

    def __init__(
        self,
        path: str | Path,
        visibility_timeout: float = 600.0,
        metrics=None,
        max_attempts: int = MAX_ATTEMPTS,
    ):
        if visibility_timeout <= 0:
            raise ServiceError(
                f"visibility_timeout must be positive, "
                f"got {visibility_timeout}", status=500,
            )
        if int(max_attempts) < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}", status=500,
            )
        self.path = Path(path)
        self.visibility_timeout = visibility_timeout
        self.max_attempts = int(max_attempts)
        self._local = threading.local()
        # Monotonic admit anchors for duration_s (this process only).
        self._anchor_lock = threading.Lock()
        self._created_mono: dict[str, float] = {}
        # In-process wakeups: ``version`` counts this instance's
        # changes, so a waiter that read it before looking at the
        # database cannot miss a change made after it looked.
        self._changed = threading.Condition()
        self.version = 0
        self.closed = False
        self._m_reclaims = self._m_poison = None
        if metrics is not None:
            self._m_reclaims = metrics.counter(
                "repro_queue_lease_reclaims_total",
                "Expired leases re-claimed from presumed-dead workers.",
            )
            self._m_poison = metrics.counter(
                "repro_queue_poison_jobs_total",
                "Jobs failed permanently after exhausting lease attempts.",
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._txn() as conn:
            conn.execute(_SCHEMA)
            conn.execute(
                "CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status)"
            )
        conn = self._connect()
        for column, decl in _MIGRATIONS:
            try:
                conn.execute(f"ALTER TABLE jobs ADD COLUMN {column} {decl}")
            except sqlite3.OperationalError:
                pass  # column already present (post-migration schema)

    # -- connection plumbing ------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=30.0)
            conn.row_factory = sqlite3.Row
            conn.isolation_level = None  # explicit transactions only
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
        return conn

    class _Txn:
        """``BEGIN IMMEDIATE`` write transaction (cross-process atomic)."""

        def __init__(self, conn: sqlite3.Connection):
            self.conn = conn

        def __enter__(self) -> sqlite3.Connection:
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type, exc, tb) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _txn(self) -> "WorkQueue._Txn":
        return WorkQueue._Txn(self._connect())

    # -- record construction ------------------------------------------

    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        """Materialize one row as the service's common JobRecord.

        Raises :class:`~repro.errors.ServiceError` (500) when the
        row's ``job`` column does not parse — a torn write from a
        crashed replica.  :meth:`lease` quarantines such rows instead
        of crash-looping on them; :meth:`list` skips them.
        """
        try:
            job = Job.from_dict(json.loads(row["job"]))
        except Exception as exc:
            raise ServiceError(
                f"job {row['id']!r} has an unreadable record "
                f"(torn write?): {exc}", status=500,
            ) from exc
        return JobRecord(
            id=row["id"],
            job=job,
            key=row["key"],
            created_at=row["created_at"],
            status=row["status"],
            cached=bool(row["cached"]),
            wall_seconds=row["wall_seconds"],
            duration_s=row["duration_s"],
            summary=json.loads(row["summary"]) if row["summary"] else None,
            error=row["error"],
            finished_at=row["finished_at"],
            trace=row["trace"],
            payload=json.loads(row["payload"]) if row["payload"] else None,
        )

    @staticmethod
    def _history(row: sqlite3.Row) -> list[dict]:
        """The row's parsed attempt history (empty when absent/torn)."""
        raw = row["history"] if "history" in row.keys() else None
        if not raw:
            return []
        try:
            history = json.loads(raw)
        except json.JSONDecodeError:
            return []
        return history if isinstance(history, list) else []

    @staticmethod
    def _append_history(
        conn: sqlite3.Connection, seq: int, row: sqlite3.Row, entry: dict,
    ) -> None:
        """Append one event to the row's history inside the caller's
        transaction (bounded: the newest 50 events are kept)."""
        history = WorkQueue._history(row)
        history.append(entry)
        conn.execute(
            "UPDATE jobs SET history = ? WHERE seq = ?",
            (json.dumps(history[-50:]), seq),
        )

    # -- in-process wakeups -------------------------------------------

    def _notify(self) -> None:
        with self._changed:
            self.version += 1
            self._changed.notify_all()

    def idle(self, since: int, timeout: float = math.inf) -> None:
        """Block while :attr:`version` is still ``since``.

        Returns on this instance's next change, on :meth:`close`, or
        after :data:`POLL_INTERVAL` (capped at ``timeout``) — the
        re-read that picks up changes made by other processes.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: self.version != since or self.closed,
                min(POLL_INTERVAL, timeout),
            )

    def close(self) -> None:
        """Wake every waiter for good and close this thread's connection.

        After close, :meth:`idle` and :meth:`wait` return at once, so
        drain workers can observe shutdown without a poll tick.
        """
        with self._changed:
            self.closed = True
            self._changed.notify_all()
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- the job record surface ---------------------------------------

    def create(
        self,
        job: Job,
        key: str | None,
        client: str | None = None,
        trace: str | None = None,
        outcome: JobOutcome | None = None,
    ) -> JobRecord:
        """Enqueue a job: insert a ``queued`` row, allocate its id.

        ``trace`` rides in the row, which is how a trace id crosses
        from the submitting replica to whichever replica drains the
        job.  With ``outcome`` (a cache replay) the row is inserted
        already finished, in the same transaction, so no drain worker
        can lease it; its payload column stays empty — the returned
        record carries the payload in memory, and later readers
        re-read it from the cache by key.
        """
        created_at = time.time()
        created_mono = time.monotonic()
        terminal = (
            {} if outcome is None else _terminal(outcome, outcome.wall_seconds)
        )
        record = JobRecord(
            id="", job=job, key=key, created_at=created_at, trace=trace,
            **terminal,
        )

        def _insert() -> str:
            probe("queue.publish")
            with self._txn() as conn:
                cursor = conn.execute(
                    "INSERT INTO jobs (id, job, label, key, client, status, "
                    "created_at, trace, cached, wall_seconds, duration_s, "
                    "summary, error, finished_at) "
                    "VALUES ('', ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        json.dumps(job.to_dict()), job.label(), key, client,
                        record.status, created_at, trace, int(record.cached),
                        record.wall_seconds, record.duration_s,
                        _json_or_none(record.summary), record.error,
                        record.finished_at,
                    ),
                )
                seq = cursor.lastrowid
                new_id = f"j{seq:06d}"
                conn.execute(
                    "UPDATE jobs SET id = ? WHERE seq = ?", (new_id, seq)
                )
            return new_id

        record.id = call_with_retry(_insert, _QUEUE_RETRY, "queue.publish")
        if outcome is not None:
            record.payload = outcome.payload
            return record
        with self._anchor_lock:
            if len(self._created_mono) >= MAX_ANCHORS:
                self._created_mono.clear()
            self._created_mono[record.id] = created_mono
        self._notify()
        return record

    def get(self, job_id: str) -> JobRecord:
        """Look a job up by id; unknown ids are a 404-grade error."""
        row = self._connect().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"no such job {job_id!r}", status=404)
        return self._record(row)

    def finish(self, job_id: str, outcome: JobOutcome) -> JobRecord:
        """Record a job's outcome; returns the stored snapshot."""
        with self._anchor_lock:
            anchor = self._created_mono.pop(job_id, None)
        # Monotonic admit-to-finish latency when this process saw both
        # ends; a queue-sharing replica that only executed falls back
        # to the outcome's own monotonic execution time.
        done = _terminal(
            outcome,
            time.monotonic() - anchor if anchor is not None
            else outcome.wall_seconds,
        )

        def _write() -> None:
            probe("queue.publish")
            with self._txn() as conn:
                conn.execute(
                    "UPDATE jobs SET status = ?, cached = ?, wall_seconds = ?, "
                    "duration_s = ?, summary = ?, error = ?, payload = ?, "
                    "finished_at = ?, lease_owner = NULL, "
                    "lease_expires = NULL WHERE id = ?",
                    (
                        done["status"],
                        int(done["cached"]),
                        done["wall_seconds"],
                        done["duration_s"],
                        _json_or_none(done["summary"]),
                        done["error"],
                        _json_or_none(outcome.payload),
                        done["finished_at"],
                        job_id,
                    ),
                )
                if outcome.status in ("failed", "timeout"):
                    row = conn.execute(
                        "SELECT * FROM jobs WHERE id = ?", (job_id,)
                    ).fetchone()
                    if row is not None:
                        self._append_history(conn, row["seq"], row, {
                            "event": outcome.status,
                            "error": outcome.error,
                            "attempt": row["attempts"],
                            "ts": time.time(),
                        })

        call_with_retry(_write, _QUEUE_RETRY, "queue.publish")
        self._notify()
        return self.get(job_id)

    def counts(self) -> dict[str, int]:
        """Job tally by status (for ``/v1/stats``), fleet-wide."""
        rows = self._connect().execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def depth(self) -> int:
        """Admitted-but-unfinished jobs (queued + running), fleet-wide."""
        return self._connect().execute(
            "SELECT COUNT(*) FROM jobs "
            "WHERE status IN ('queued', 'running')"
        ).fetchone()[0]

    def list(
        self,
        status: str | None = None,
        limit: int = 50,
        after: str | None = None,
    ) -> tuple[list[JobRecord], str | None]:
        """Page through jobs in submission order.

        ``after`` is the opaque cursor (the last job id of the previous
        page); returns ``(records, next_after)`` where ``next_after``
        is None once the listing is exhausted.
        """
        conn = self._connect()
        clauses, params = [], []
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if after is not None:
            row = conn.execute(
                "SELECT seq FROM jobs WHERE id = ?", (after,)
            ).fetchone()
            if row is None:
                raise ServiceError(f"unknown cursor {after!r}", status=400)
            clauses.append("seq > ?")
            params.append(row["seq"])
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = conn.execute(
            f"SELECT * FROM jobs {where} ORDER BY seq LIMIT ?",  # noqa: S608
            (*params, limit + 1),
        ).fetchall()
        page = rows[:limit]
        records = []
        for row in page:
            try:
                records.append(self._record(row))
            except ServiceError:
                continue  # torn row — visible via `queue inspect`, not here
        next_after = page[-1]["id"] if len(rows) > limit else None
        return records, next_after

    def wait(
        self, job_id: str, known_status: str | None, timeout: float,
    ) -> JobRecord:
        """Block until the job's status differs from ``known_status``.

        Wakes at once on this instance's own changes and re-reads every
        :data:`POLL_INTERVAL` for changes made by other processes;
        returns the latest record on a transition, on a terminal
        status, at the deadline or after :meth:`close` (the caller
        inspects ``status`` to tell which).
        """
        deadline = time.monotonic() + timeout
        while True:
            seen = self.version
            record = self.get(job_id)
            remaining = deadline - time.monotonic()
            if (
                record.status != known_status or record.done
                or remaining <= 0 or self.closed
            ):
                return record
            self.idle(seen, remaining)

    # -- the queue surface (drain workers) ----------------------------

    def _claim_one(self, owner: str):
        """One lease transaction: ``("empty"|"skip"|"claimed", row)``.

        ``skip`` means the candidate was disposed of (poisoned or
        quarantined) and the caller should look again.  The
        ``queue.lease`` fault probe fires inside the retried scope, so
        an injected ``busy`` is backed off exactly like real lock
        contention.
        """
        probe("queue.lease")
        now = time.time()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE status = 'queued' "
                "OR (status = 'running' AND lease_expires IS NOT NULL "
                "AND lease_expires < ?) ORDER BY seq LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return "empty", None
            # A released lease (expiry 0) means the worker died; any
            # other expired lease means nobody finished it in time.
            cause = (
                "its worker process died"
                if row["lease_expires"] == 0
                else f"its lease expired (visibility timeout "
                f"{self.visibility_timeout:g}s)"
            )
            if row["attempts"] >= self.max_attempts:
                error = (
                    f"job failed permanently after {row['attempts']} "
                    f"attempts; the last one ended because {cause}"
                )
                conn.execute(
                    "UPDATE jobs SET status = 'failed', error = ?, "
                    "finished_at = ?, lease_owner = NULL, "
                    "lease_expires = NULL WHERE seq = ?",
                    (error, now, row["seq"]),
                )
                self._append_history(conn, row["seq"], row, {
                    "event": "poison", "error": error,
                    "attempt": row["attempts"], "ts": now,
                })
                if self._m_poison is not None:
                    self._m_poison.inc()
                return "skip", None
            if row["status"] == "running":
                self._append_history(conn, row["seq"], row, {
                    "event": "reclaim",
                    "from_owner": row["lease_owner"],
                    "attempt": row["attempts"],
                    "cause": cause,
                    "ts": now,
                })
                if self._m_reclaims is not None:
                    self._m_reclaims.inc()
            conn.execute(
                "UPDATE jobs SET status = 'running', lease_owner = ?, "
                "lease_expires = ?, attempts = attempts + 1 "
                "WHERE seq = ?",
                (owner, now + self.visibility_timeout, row["seq"]),
            )
            claimed = conn.execute(
                "SELECT * FROM jobs WHERE seq = ?", (row["seq"],)
            ).fetchone()
        return "claimed", claimed

    def release(self, job_id: str) -> None:
        """Hand a leased job back at once: its worker process died.

        The lease is marked expired, so the next :meth:`lease` re-claims
        the row through the reclaim path (history entry, reclaim count,
        one more attempt) — or fails it permanently once it has used
        its ``max_attempts``.
        """
        def _write() -> None:
            with self._txn() as conn:
                conn.execute(
                    "UPDATE jobs SET lease_expires = 0 "
                    "WHERE id = ? AND status = 'running'", (job_id,),
                )

        call_with_retry(_write, _QUEUE_RETRY, "queue.publish")
        self._notify()

    def _quarantine_row(self, seq: int, error: str) -> None:
        """Permanently fail a row whose job column does not parse."""
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'failed', error = ?, "
                "finished_at = ?, lease_owner = NULL, lease_expires = NULL "
                "WHERE seq = ?",
                (error, time.time(), seq),
            )
        if self._m_poison is not None:
            self._m_poison.inc()

    def lease(self, owner: str) -> JobRecord | None:
        """Claim the oldest runnable job for ``owner``, or None.

        Runnable means ``queued``, or ``running`` with an expired lease
        (its worker is presumed dead).  The claim is one atomic write
        transaction, so two workers — in different processes — can
        never lease the same job twice concurrently.  A job at its
        ``max_attempts``-th claim is failed permanently instead of
        being leased again, and a row whose job spec does not parse (a
        torn write from a crashed replica) is quarantined as a
        permanent failure — visible to the dead-letter tooling, never
        crash-looping the drain workers.
        """
        while True:
            state, row = call_with_retry(
                lambda: self._claim_one(owner), _QUEUE_RETRY, "queue.lease",
            )
            if state == "empty":
                return None
            if state == "skip":
                continue
            try:
                return self._record(row)
            except ServiceError as exc:
                self._quarantine_row(row["seq"], str(exc))

    # -- dead-letter surface ------------------------------------------

    def failed_jobs(self, limit: int = 100) -> list[dict]:
        """Permanently failed jobs with their attempt history.

        Returns plain dicts (not :class:`JobRecord`) so rows whose job
        column is torn are still inspectable — the whole point of the
        dead-letter view is to show jobs that *cannot* be handled
        normally.
        """
        rows = self._connect().execute(
            "SELECT * FROM jobs WHERE status = 'failed' "
            "ORDER BY seq LIMIT ?", (limit,),
        ).fetchall()
        out = []
        for row in rows:
            out.append({
                "id": row["id"],
                "label": row["label"],
                "key": row["key"],
                "client": row["client"],
                "attempts": row["attempts"],
                "error": row["error"],
                "created_at": row["created_at"],
                "finished_at": row["finished_at"],
                "history": self._history(row),
            })
        return out

    def requeue(self, job_id: str) -> JobRecord:
        """Send a permanently failed job back to the queue.

        Resets the attempt counter (the operator presumably fixed the
        cause) and appends a ``requeue`` event to the job's history.
        Only ``failed`` jobs can be requeued.
        """
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise ServiceError(f"no such job {job_id!r}", status=404)
            if row["status"] != "failed":
                raise ServiceError(
                    f"job {job_id!r} is {row['status']!r}, not 'failed'; "
                    f"only failed jobs can be requeued", status=400,
                )
            try:
                Job.from_dict(json.loads(row["job"]))
            except Exception as exc:
                raise ServiceError(
                    f"job {job_id!r} has an unreadable record and cannot "
                    f"be requeued: {exc}", status=400,
                ) from exc
            self._append_history(conn, row["seq"], row, {
                "event": "requeue", "ts": time.time(),
            })
            conn.execute(
                "UPDATE jobs SET status = 'queued', attempts = 0, "
                "error = NULL, summary = NULL, payload = NULL, "
                "finished_at = NULL, lease_owner = NULL, "
                "lease_expires = NULL WHERE seq = ?",
                (row["seq"],),
            )
        self._notify()
        return self.get(job_id)

    def poisoned_count(self) -> int:
        """Dead-letter rows that got there by exhausting lease attempts.

        Ordinary one-shot failures (a solver error, a timeout) keep
        ``attempts`` below the poison threshold; a crash-looping job
        arrives here at ``attempts >= max_attempts``.  This is the
        queue-side degradation signal ``/v1/healthz`` reports until an
        operator inspects and requeues the parked jobs.
        """
        row = self._connect().execute(
            "SELECT COUNT(*) AS n FROM jobs "
            "WHERE status = 'failed' AND attempts >= ?",
            (self.max_attempts,),
        ).fetchone()
        return int(row["n"])

    def describe(self) -> dict:
        """Operator-facing queue configuration (for ``/v1/stats``)."""
        return {
            "path": str(self.path),
            "visibility_timeout": self.visibility_timeout,
            "max_attempts": self.max_attempts,
        }


def _terminal(outcome: JobOutcome, duration_s: float | None) -> dict:
    """The :class:`JobRecord` fields a finished job carries."""
    return {
        "status": outcome.status,
        "cached": outcome.cached,
        "wall_seconds": outcome.wall_seconds,
        "duration_s": duration_s,
        "summary": job_summary(outcome),
        "error": outcome.error,
        "finished_at": time.time(),
    }
