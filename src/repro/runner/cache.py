"""Content-addressed on-disk store for campaign job results.

A job's cache key is the SHA-256 of a canonical JSON fingerprint of
*everything that determines its outcome*:

* the exact netlist (``dumps_bench`` of the resolved circuit — tokens
  are not trusted, so editing a ``.bench`` file or changing a generator
  invalidates its entries),
* the full technology parameter set,
* the job parameters (mode, delay spec, backend, option overrides),
* the code schema versions (the sizing-result schema from
  :mod:`repro.sizing.serialize` plus this cache's own layout version).

Where entries *live* is delegated to a pluggable
:class:`~repro.runner.backends.CacheBackend` — the local per-directory
store (:class:`~repro.runner.backends.DiskBackend`, the default and
the original layout at ``<root>/<key[:2]>/<key>.json``), a shared
SQLite store safe for many processes, or a read-through tiered pair
(local L1 → shared L2).  Every backend write is atomic per entry, so a
campaign killed mid-write never leaves a truncated entry behind, and
concurrent writers of the same key settle on one intact copy.  Any
unreadable, corrupt, or version-mismatched entry is treated as a miss
— the job simply re-runs — and the disk backend quarantines corrupt
files to ``*.bad`` so they cannot poison later probes.

The same backend also holds one TILOS trajectory record per sizing
instance (:mod:`repro.runner.trajectory`) under keys of their own
(:data:`TRAJECTORY_PREFIX`); :meth:`ResultCache.get`, ``scan`` and
``len`` see result entries only.
"""

from __future__ import annotations

import hashlib
import sqlite3
from dataclasses import asdict
from pathlib import Path

from repro.circuit.bench_io import dumps_bench
from repro.obs.metrics import get_registry
from repro.runner.backends import CacheBackend, DiskBackend, open_backend
from repro.runner.spec import Job, resolve_circuit
from repro.sizing import serialize
from repro.tech import default_technology

__all__ = [
    "CACHE_LAYOUT_VERSION",
    "TRAJECTORY_PREFIX",
    "ResultCache",
    "job_key",
    "netlist_digest",
]

#: Probe outcomes per backend scheme, in the process-global registry
#: (the cache outlives any one service instance; ``/v1/metrics``
#: concatenates this registry with the service's own).
_PROBES = get_registry().counter(
    "repro_cache_probe_total",
    "Result-cache probes by backend scheme and outcome.",
    ("backend", "result"),
)

#: Key prefix of the TILOS trajectory records that share the backend
#: with result entries (:mod:`repro.runner.trajectory`); result keys
#: are bare hex digests, so the two never collide.
TRAJECTORY_PREFIX = "tilos-"

#: Version of the cache entry layout itself (bump to orphan every
#: existing entry when the payload structure changes incompatibly).
#: 2: payloads no longer carry the native flow engines' counters.
#: 3: payloads no longer carry the job kind, the flow-solver totals,
#: the per-phase wall times, TILOS's timer counters or the
#: per-iteration kernel label; spans hold the timings.
CACHE_LAYOUT_VERSION = 3


def netlist_digest(token: str) -> str:
    """SHA-256 of the resolved circuit's exact ``.bench`` text."""
    circuit = resolve_circuit(token)
    return hashlib.sha256(dumps_bench(circuit).encode()).hexdigest()


def job_fingerprint(job: Job, netlist_sha: str | None = None) -> dict:
    """JSON-ready description of everything that determines the result.

    ``netlist_sha`` lets batch callers (:func:`campaign_keys`) resolve
    and serialize each distinct circuit token once instead of once per
    job — a figure-7 panel shares one circuit across every ratio.
    """
    return {
        "cache_layout": CACHE_LAYOUT_VERSION,
        "result_schema": serialize.SCHEMA_VERSION,
        "netlist_sha256": netlist_sha or netlist_digest(job.circuit),
        "technology": asdict(default_technology()),
        "job": job.to_dict(),
    }


def job_key(job: Job, netlist_sha: str | None = None) -> str:
    """Content-addressed cache key (hex SHA-256) for a job."""
    canonical = serialize.canonical_json(job_fingerprint(job, netlist_sha))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed result store over a pluggable backend.

    Construct with a directory path (the classic local-disk layout), a
    backend spec string understood by
    :func:`~repro.runner.backends.open_backend` (``disk:…`` /
    ``sqlite:…`` / ``tiered:…``), or an already-built
    :class:`~repro.runner.backends.CacheBackend`.  The cache owns the
    entry envelope — layout and result-schema version checks — while
    the backend owns raw storage, so every backend enforces identical
    compatibility rules.
    """

    def __init__(self, store: CacheBackend | str | Path):
        if isinstance(store, Path):
            self.backend: CacheBackend = DiskBackend(store)
        elif isinstance(store, str):
            self.backend = open_backend(store)
        else:
            self.backend = store
        self._scheme = self.backend.describe().partition(":")[0]

    @property
    def root(self) -> Path | str:
        """The store's location: a directory for the classic disk
        backend (kept for callers that print or glob it), otherwise the
        backend's ``scheme:location`` description."""
        if isinstance(self.backend, DiskBackend):
            return self.backend.root
        return self.backend.describe()

    def describe(self) -> str:
        """Human-readable ``scheme:location`` of the backing store."""
        return self.backend.describe()

    def _path(self, key: str) -> Path:
        """Entry file for ``key`` (disk backends only; tests poke this)."""
        if isinstance(self.backend, DiskBackend):
            return self.backend.path(key)
        raise TypeError(
            f"{self.backend.describe()} does not store per-key files"
        )

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or None on any kind of miss.

        Storage errors (a dying disk, a locked SQLite file, an injected
        ``cache.get`` fault on a non-tiered backend) are *misses*, not
        exceptions: the job recomputes, which the content-addressed
        design makes correct by construction.  They are counted
        separately (``result="error"``) so a sick store is visible.
        """
        try:
            payload = self._get(key)
        except (OSError, sqlite3.Error):
            _PROBES.inc(backend=self._scheme, result="error")
            return None
        _PROBES.inc(
            backend=self._scheme,
            result="hit" if payload is not None else "miss",
        )
        return payload

    def _get(self, key: str) -> dict | None:
        entry = self.backend.get(key)
        if entry is None:
            return None
        if entry.get("cache_layout") != CACHE_LAYOUT_VERSION:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        result = payload.get("result")
        if result is not None and (
            serialize.payload_schema_version(result) != serialize.SCHEMA_VERSION
        ):
            # A result serialized by an older (or newer) build: unusable.
            return None
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``."""
        entry = {"cache_layout": CACHE_LAYOUT_VERSION, "payload": payload}
        try:
            self.backend.put(key, entry)
        except (OSError, sqlite3.Error):
            # A lost write is a future recompute, never a wrong answer;
            # swallowing it keeps a sick store from failing good jobs.
            _PROBES.inc(backend=self._scheme, result="error")

    def scan(self) -> "list[str]":
        """Every stored result key (trajectory records are skipped)."""
        return [
            key for key in self.backend.scan()
            if not key.startswith(TRAJECTORY_PREFIX)
        ]

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.scan())
