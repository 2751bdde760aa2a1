"""Pluggable store backends for the content-addressed result cache.

The cache key (:func:`repro.runner.cache.job_key`) names a result by
*what it is*; this module decides *where it lives*.  Every backend
implements the same four-method protocol (:class:`CacheBackend`:
``get`` / ``put`` / ``contains`` / ``scan``), so the campaign runner,
the sizing service and the benchmarks are indifferent to the storage
substrate:

* :class:`DiskBackend` — the original per-process layout, one JSON
  file per key under ``<root>/<key[:2]>/``.  Atomic writes; a corrupt
  or truncated entry is quarantined (renamed to ``*.bad``) and counts
  as a miss instead of raising into the caller.
* :class:`SqliteBackend` — one SQLite database in WAL mode, safe for
  many *processes* on one machine or a shared volume.  This is the
  fleet backend: every ``serve`` replica pointed at the same file
  shares one result store.
* :class:`TieredBackend` — read-through tiering: a fast local L1
  (typically :class:`DiskBackend`) in front of a shared L2 (typically
  :class:`SqliteBackend`).  Reads probe L1 first and promote L2 hits;
  writes go through to both, so a result computed by one replica is a
  local hit everywhere after first use.

Backends are selected on the CLI with ``--cache-backend`` using a
small spec grammar parsed by :func:`open_backend`::

    disk:PATH                       one directory, one process family
    sqlite:PATH.db                  shared store (WAL, multi-process)
    tiered:L1_DIR,SHARED_SPEC       local L1 in front of a shared L2
    PATH                            bare path = disk:PATH

"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.errors import RunnerError
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import probe
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.obs.metrics import get_registry

__all__ = [
    "CacheBackend",
    "DiskBackend",
    "SqliteBackend",
    "TieredBackend",
    "open_backend",
]

#: Per-tier probe outcomes for tiered caches, in the process-global
#: registry (see ``repro_cache_probe_total`` in
#: :mod:`repro.runner.cache` for the per-backend totals).
_TIER_PROBES = get_registry().counter(
    "repro_cache_tier_probe_total",
    "Tiered-cache probes by tier and outcome; a shared-tier hit is "
    "promoted into the local tier.",
    ("tier", "result"),
)


@runtime_checkable
class CacheBackend(Protocol):
    """The storage contract behind :class:`~repro.runner.cache.ResultCache`.

    Keys are content-addressed hex digests; payloads are JSON-ready
    dicts.  Implementations must be safe for concurrent readers and
    writers of the *same* key (last intact write wins) and must treat
    any unreadable entry as a miss, never an exception.
    """

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or None on any kind of miss."""
        ...

    def put(self, key: str, payload: dict) -> None:
        """Durably store ``payload`` under ``key`` (atomic per entry)."""
        ...

    def contains(self, key: str) -> bool:
        """True when ``key`` has a readable entry."""
        ...

    def scan(self) -> Iterator[str]:
        """Yield every stored key (order unspecified)."""
        ...

    def describe(self) -> str:
        """Human-readable location, e.g. ``disk:.repro-cache``."""
        ...


class DiskBackend:
    """One JSON file per entry under ``<root>/<key[:2]>/<key>.json``.

    Writes are atomic (temp file + rename), so a process killed
    mid-write never leaves a truncated entry and concurrent writers of
    one key settle on an intact copy.  A corrupt entry found by
    :meth:`get` is quarantined — renamed to ``<key>.json.bad`` — so the
    miss is permanent and cheap instead of re-parsed on every probe,
    and the evidence survives for inspection.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """The entry file backing ``key`` (which may not exist)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Read one entry; corrupt/truncated files are quarantined misses.

        The ``cache.get`` fault probe fires *before* the store is
        touched, so an injected I/O error propagates to the caller
        (exercising the tiered retry/breaker path) instead of being
        absorbed by the corrupt-entry handling below.
        """
        probe("cache.get")
        path = self.path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict):
            self._quarantine(path)
            return None
        return entry

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside (best-effort) so it stays a miss."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".bad"))
        except OSError:
            pass  # someone else quarantined (or removed) it first

    def put(self, key: str, payload: dict) -> None:
        """Atomically write one entry (temp file + rename)."""
        probe("cache.put")
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # One-shot ``dumps`` takes the C encoder; ``dump`` to a
                # stream would take the pure-Python one (same bytes).
                handle.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        """True when the entry parses (corrupt files quarantine to False)."""
        return self.get(key) is not None

    def scan(self) -> Iterator[str]:
        """Every key with an entry file on disk."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*/*.json"):
            yield path.stem

    def describe(self) -> str:
        """``disk:<root>``."""
        return f"disk:{self.root}"

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


class SqliteBackend:
    """All entries in one SQLite database (WAL mode) — the shared store.

    WAL journaling plus a busy timeout makes the file safe for many
    concurrent processes: N ``serve`` replicas (or campaign workers) on
    one machine or one shared volume read and write a single result
    store.  Connections are per-thread (SQLite objects must not cross
    threads) and writes upsert, so concurrent writers of one key settle
    on the last intact payload.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS entries (
            key TEXT PRIMARY KEY,
            payload TEXT NOT NULL,
            stored_at REAL NOT NULL
        )
    """

    def __init__(self, path: str | Path, timeout: float = 30.0):
        self.path = Path(path)
        self.timeout = timeout
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute(self._SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=self.timeout)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
        return conn

    def get(self, key: str) -> dict | None:
        """One entry's payload; an unparseable row is deleted (a miss)."""
        probe("cache.get")
        conn = self._connect()
        row = conn.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            entry = json.loads(row[0])
        except json.JSONDecodeError:
            with conn:  # quarantine-equivalent: drop the torn row
                conn.execute("DELETE FROM entries WHERE key = ?", (key,))
            return None
        return entry if isinstance(entry, dict) else None

    def put(self, key: str, payload: dict) -> None:
        """Upsert one entry inside a transaction."""
        probe("cache.put")
        conn = self._connect()
        with conn:
            conn.execute(
                "INSERT INTO entries (key, payload, stored_at) "
                "VALUES (?, ?, ?) ON CONFLICT(key) DO UPDATE SET "
                "payload = excluded.payload, stored_at = excluded.stored_at",
                (key, json.dumps(payload), time.time()),
            )

    def contains(self, key: str) -> bool:
        """True when a row exists for ``key``."""
        conn = self._connect()
        row = conn.execute(
            "SELECT 1 FROM entries WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def scan(self) -> Iterator[str]:
        """Every stored key."""
        conn = self._connect()
        for (key,) in conn.execute("SELECT key FROM entries"):
            yield key

    def describe(self) -> str:
        """``sqlite:<path>``."""
        return f"sqlite:{self.path}"

    def __len__(self) -> int:
        conn = self._connect()
        return conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]


#: Errors the shared tier treats as transient storage failures: worth
#: a backoff retry, and breaker strikes when retries are spent.
_STORAGE_ERRORS = (OSError, sqlite3.Error)

#: Default retry for shared-tier calls — short and bounded, because
#: the degraded path (L1-only) is always available as a fallback.
_SHARED_RETRY = RetryPolicy(
    attempts=3, base_delay=0.02, max_delay=0.5, retryable=_STORAGE_ERRORS,
)


class TieredBackend:
    """Read-through tiering: local L1 in front of a shared L2.

    ``get`` probes L1 first; an L2 hit is *promoted* (written into L1)
    so the next probe is local.  ``put`` writes through to both tiers,
    which is what makes one replica's fresh result a fleet-wide hit.
    The shared L2 is authoritative: ``scan``/``len`` enumerate it, and
    an entry present only in L1 (e.g. L2 was wiped) still serves reads.

    The shared tier is where failures actually happen in a fleet (a
    network volume, a contended SQLite file), so its calls run under a
    retry policy and a :class:`~repro.faults.breaker.CircuitBreaker`:
    transient errors are retried with backoff; persistent ones open
    the breaker and the cache *degrades to L1-only* — misses recompute
    instead of erroring, writes land locally, and a half-open timer
    re-probes the shared store until it recovers.  Correctness is
    unaffected because the cache is content-addressed: a lost shared
    write is just a future recompute, never a wrong answer.
    """

    def __init__(
        self,
        local: CacheBackend,
        shared: CacheBackend,
        breaker: CircuitBreaker | None = None,
        retry: RetryPolicy = _SHARED_RETRY,
    ):
        self.local = local
        self.shared = shared
        self.retry = retry
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            "cache.shared", failure_threshold=3, reset_timeout=5.0,
        )

    def _strike(self, exc: BaseException, attempt: int) -> None:
        self.breaker.record_failure()

    def _shared_call(self, site: str, fn) -> tuple[bool, object]:
        """Run one shared-tier op under breaker + retry.

        Returns ``(ok, result)``; ``ok`` is False when the breaker is
        open (degraded, the op never ran) or retries were exhausted.
        """
        if not self.breaker.allow():
            _TIER_PROBES.inc(tier="shared", result="degraded")
            return False, None
        try:
            result = call_with_retry(fn, self.retry, site, on_retry=self._strike)
        except _STORAGE_ERRORS:
            _TIER_PROBES.inc(tier="shared", result="error")
            return False, None
        self.breaker.record_success()
        return True, result

    def _local_get(self, key: str) -> dict | None:
        try:
            return self.local.get(key)
        except _STORAGE_ERRORS:
            return None  # L1 is best-effort; a broken read is a miss

    def _local_put(self, key: str, payload: dict) -> None:
        try:
            self.local.put(key, payload)
        except _STORAGE_ERRORS:
            pass  # losing an L1 copy costs a future shared-tier read

    def get(self, key: str) -> dict | None:
        """L1 probe, then L2 with promotion into L1 on a hit."""
        entry = self._local_get(key)
        if entry is not None:
            _TIER_PROBES.inc(tier="local", result="hit")
            return entry
        _TIER_PROBES.inc(tier="local", result="miss")
        ok, entry = self._shared_call("cache.get", lambda: self.shared.get(key))
        if not ok:
            return None
        if entry is not None:
            _TIER_PROBES.inc(tier="shared", result="hit")
            self._local_put(key, entry)
        else:
            _TIER_PROBES.inc(tier="shared", result="miss")
        return entry

    def put(self, key: str, payload: dict) -> None:
        """Write through: shared store first (authoritative), then L1.

        With the breaker open the shared write is skipped (the local
        copy still serves this replica; other replicas recompute).
        """
        self._shared_call("cache.put", lambda: self.shared.put(key, payload))
        self._local_put(key, payload)

    def contains(self, key: str) -> bool:
        """True when either tier holds the entry."""
        try:
            if self.local.contains(key):
                return True
        except _STORAGE_ERRORS:
            pass
        ok, found = self._shared_call(
            "cache.get", lambda: self.shared.contains(key)
        )
        return bool(ok and found)

    def scan(self) -> Iterator[str]:
        """Keys of the authoritative shared tier."""
        return self.shared.scan()

    def describe(self) -> str:
        """``tiered:<l1>,<l2>``."""
        return f"tiered:{self.local.describe()},{self.shared.describe()}"

    def __len__(self) -> int:
        return len(self.shared)  # type: ignore[arg-type]


def open_backend(spec: str | Path) -> CacheBackend:
    """Build a backend from a ``--cache-backend`` spec string.

    Grammar: ``disk:PATH``, ``sqlite:PATH``, ``tiered:L1_DIR,SHARED``
    (where ``SHARED`` is itself a ``disk:``/``sqlite:`` spec or a bare
    ``.db`` path), or a bare path, which means ``disk:PATH``.  Raises
    :class:`~repro.errors.RunnerError` on an unknown scheme so a typo
    like ``sqlte:`` is a usage error, not a directory named ``sqlte:``.
    """
    if isinstance(spec, Path):
        return DiskBackend(spec)
    text = spec.strip()
    if not text:
        raise RunnerError("empty cache backend spec")
    scheme, sep, rest = text.partition(":")
    if not sep:
        return DiskBackend(text)
    if scheme == "disk":
        return DiskBackend(rest)
    if scheme == "sqlite":
        return SqliteBackend(rest)
    if scheme == "tiered":
        local_part, sep, shared_part = rest.partition(",")
        if not sep or not local_part or not shared_part:
            raise RunnerError(
                f"tiered backend spec must be 'tiered:L1_DIR,SHARED_SPEC', "
                f"got {text!r}"
            )
        if ":" not in shared_part and shared_part.endswith(".db"):
            shared: CacheBackend = SqliteBackend(shared_part)
        else:
            shared = open_backend(shared_part)
        # ``describe()`` writes the L1 as ``disk:DIR``; accept that form
        # too, so a described tiered cache reopens to the same stores.
        local = DiskBackend(local_part.removeprefix("disk:"))
        return TieredBackend(local, shared)
    # Windows-style paths ("C:\cache") and unknown schemes both land
    # here; a single-letter "scheme" is a drive, everything else a typo.
    if len(scheme) == 1:
        return DiskBackend(text)
    raise RunnerError(
        f"unknown cache backend scheme {scheme!r} in {text!r} "
        f"(expected disk:, sqlite:, or tiered:)"
    )
