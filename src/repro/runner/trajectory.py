"""TILOS trajectory records: warm starts for repeated sizing instances.

TILOS seeds the W/D iteration (paper section 2.4, step 1), and its bump
choice depends only on the current sizes: the delay target merely
decides where the greedy loop stops.  Every run on one instance
therefore walks one trajectory, and a run at a looser target is a
prefix of a run at a tighter one.  This module keeps the longest
trajectory seen per instance in the job's own result cache and seeds
the next TILOS run on that instance from it;
:func:`repro.sizing.tilos.tilos_size` replays the recorded bumps with
the cold loop's own arithmetic and checks the replayed delay bitwise,
so a seeded result equals a cold one.

The record's key hashes the instance's structural digest
(:func:`~repro.sizing.fingerprint.dag_digest`), the TILOS option vector
and :data:`TRAJECTORY_VERSION` under
:data:`~repro.runner.cache.TRAJECTORY_PREFIX`, in the same backend as
the result entries (``disk:``, ``sqlite:`` or ``tiered:``).

A record that is missing, unreadable, of another version, failing its
checksum, refused by the replay gate or diverging during replay counts
as absent: the job runs cold and writes its own trajectory back.  A
seeded run writes back only when it got further than the record it
read, so the stored trajectory only grows.  Writes that fail are
swallowed like :meth:`~repro.runner.cache.ResultCache.put`'s: a lost
record costs a later cold start, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import sqlite3
from dataclasses import asdict

from repro.dag.circuit_dag import SizingDag
from repro.runner.cache import TRAJECTORY_PREFIX, ResultCache
from repro.sizing.fingerprint import dag_digest
from repro.sizing.serialize import canonical_json
from repro.sizing.tilos import TilosOptions, TilosResult, tilos_size

__all__ = [
    "TRAJECTORY_VERSION",
    "record_checksum",
    "seeded_tilos",
    "trajectory_key",
]

#: Layout version of a trajectory record.  It is part of the key, and a
#: record that carries any other version counts as absent.
TRAJECTORY_VERSION = 1

#: Trajectories longer than this are not stored; such instances stay
#: cold.
_MAX_RECORDED_BUMPS = 100_000

_STORAGE_ERRORS = (OSError, sqlite3.Error)


def trajectory_key(dag: SizingDag, options: TilosOptions) -> str:
    """The cache key of ``dag``'s trajectory record under ``options``."""
    identity = canonical_json({
        "version": TRAJECTORY_VERSION,
        "dag_sha": dag_digest(dag),
        "options": asdict(options),
    })
    return TRAJECTORY_PREFIX + hashlib.sha256(identity.encode()).hexdigest()


def record_checksum(record: dict) -> str:
    """Checksum of a trajectory record (over everything but itself)."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]


def _read(cache: ResultCache, key: str) -> tuple[dict | None, str | None]:
    """The usable record under ``key``, or None with why one was refused.

    A missing record, and any storage error (including an open shared
    tier breaker, which reads as missing), is None with no reason.
    """
    try:
        record = cache.backend.get(key)
    except _STORAGE_ERRORS:
        return None, None
    if record is None:
        return None, None
    if record.get("version") != TRAJECTORY_VERSION:
        return None, f"record version {record.get('version')!r}"
    if record.get("checksum") != record_checksum(record):
        return None, "checksum mismatch"
    return record, None


def _write(
    cache: ResultCache, key: str, dag: SizingDag, options: TilosOptions,
    seed: TilosResult,
) -> None:
    record = {
        "version": TRAJECTORY_VERSION,
        "kind": "sizing",
        "dag_sha": dag_digest(dag),
        "options": asdict(options),
        "data": {
            "bumps": seed.bumps,
            "trace": [float(cp) for cp in seed.trace],
        },
    }
    record["checksum"] = record_checksum(record)
    try:
        cache.backend.put(key, record)
    except _STORAGE_ERRORS:
        pass  # a lost record costs a later cold start, never a result


def seeded_tilos(
    dag: SizingDag, target: float, cache: ResultCache | None,
) -> tuple[TilosResult, str | None]:
    """Default-option TILOS on ``dag``, seeded from its stored trajectory.

    Returns the result and, when a stored record was refused, the
    reason.  With ``cache=None`` the run is cold and nothing is stored.
    The result is bitwise what a cold :func:`tilos_size` returns; only
    ``iterations - warm["replayed"]`` bumps paid a sensitivity scan.
    """
    options = TilosOptions()
    if cache is None:
        return tilos_size(dag, target, options), None
    key = trajectory_key(dag, options)
    record, rejected = _read(cache, key)
    seed = tilos_size(dag, target, options, keep_trace=True, warm=record)
    seeded = seed.warm is not None and seed.warm["result"] == "seeded"
    if record is not None and not seeded:
        rejected = seed.warm["reason"]
    stored = len(record["data"]["bumps"]) if seeded else -1
    if stored < len(seed.bumps) <= _MAX_RECORDED_BUMPS:
        _write(cache, key, dag, options, seed)
    return seed, rejected
