"""Tests for pluggable cache backends (repro.runner.backends)."""

import json
import sqlite3

import pytest

from repro.errors import RunnerError
from repro.runner import Job, run_campaign
from repro.runner.backends import (
    CacheBackend,
    DiskBackend,
    SqliteBackend,
    TieredBackend,
    open_backend,
)
from repro.runner.cache import CACHE_LAYOUT_VERSION, ResultCache, job_key

KEY_A = "a" * 64
KEY_B = "b" * 64


def _backends(tmp_path):
    """One instance of every backend kind, rooted under ``tmp_path``."""
    return [
        DiskBackend(tmp_path / "disk"),
        SqliteBackend(tmp_path / "store.db"),
        TieredBackend(
            DiskBackend(tmp_path / "l1"), SqliteBackend(tmp_path / "l2.db")
        ),
    ]


class TestBackendContract:
    """Every backend satisfies the same protocol and semantics."""

    def test_roundtrip_contains_scan(self, tmp_path):
        for backend in _backends(tmp_path):
            assert isinstance(backend, CacheBackend)
            assert backend.get(KEY_A) is None
            assert not backend.contains(KEY_A)
            backend.put(KEY_A, {"n": 1})
            backend.put(KEY_B, {"n": 2})
            assert backend.get(KEY_A) == {"n": 1}
            assert backend.contains(KEY_B)
            assert sorted(backend.scan()) == [KEY_A, KEY_B]

    def test_overwrite_last_write_wins(self, tmp_path):
        for backend in _backends(tmp_path):
            backend.put(KEY_A, {"v": "old"})
            backend.put(KEY_A, {"v": "new"})
            assert backend.get(KEY_A) == {"v": "new"}
            assert sorted(backend.scan()) == [KEY_A]

    def test_describe_names_scheme_and_location(self, tmp_path):
        disk, sqlite_b, tiered = _backends(tmp_path)
        assert disk.describe() == f"disk:{tmp_path / 'disk'}"
        assert sqlite_b.describe() == f"sqlite:{tmp_path / 'store.db'}"
        assert tiered.describe().startswith("tiered:disk:")
        # Process-pool workers reopen the job's cache from its
        # description, so every description must round-trip.
        for backend in (disk, sqlite_b, tiered):
            reopened = open_backend(backend.describe())
            assert reopened.describe() == backend.describe()


class TestDiskQuarantine:
    """Corrupt entries are misses, quarantined to ``*.bad``, never raised."""

    @pytest.mark.parametrize("garbage", [
        b"{ torn off mid-wri",      # truncated JSON
        b"\xff\xfe not even text",  # undecodable bytes
        b"[1, 2, 3]",               # parses, but not an entry object
    ])
    def test_corrupt_entry_is_quarantined_miss(self, tmp_path, garbage):
        backend = DiskBackend(tmp_path)
        backend.put(KEY_A, {"ok": True})
        path = backend.path(KEY_A)
        path.write_bytes(garbage)
        assert backend.get(KEY_A) is None
        assert not path.exists()
        assert path.with_suffix(".json.bad").exists()
        # Permanently a miss — and the key no longer scans.
        assert backend.get(KEY_A) is None
        assert list(backend.scan()) == []

    def test_sqlite_drops_torn_row(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store.db")
        backend.put(KEY_A, {"ok": True})
        with sqlite3.connect(tmp_path / "store.db") as conn:
            conn.execute(
                "UPDATE entries SET payload = '{ torn' WHERE key = ?",
                (KEY_A,),
            )
        assert backend.get(KEY_A) is None
        assert list(backend.scan()) == []


class TestTiering:
    def test_l2_hit_promotes_into_l1(self, tmp_path):
        l1 = DiskBackend(tmp_path / "l1")
        l2 = SqliteBackend(tmp_path / "l2.db")
        tiered = TieredBackend(l1, l2)
        l2.put(KEY_A, {"from": "another replica"})
        assert l1.get(KEY_A) is None
        assert tiered.get(KEY_A) == {"from": "another replica"}
        # Promotion: the next probe is local.
        assert l1.get(KEY_A) == {"from": "another replica"}

    def test_put_writes_through_both_tiers(self, tmp_path):
        l1 = DiskBackend(tmp_path / "l1")
        l2 = SqliteBackend(tmp_path / "l2.db")
        TieredBackend(l1, l2).put(KEY_A, {"n": 1})
        assert l1.get(KEY_A) == {"n": 1}
        assert l2.get(KEY_A) == {"n": 1}

    def test_shared_tier_is_authoritative_for_scan(self, tmp_path):
        l1 = DiskBackend(tmp_path / "l1")
        l2 = SqliteBackend(tmp_path / "l2.db")
        tiered = TieredBackend(l1, l2)
        l1.put(KEY_A, {"local": True})
        l2.put(KEY_B, {"shared": True})
        assert list(tiered.scan()) == [KEY_B]
        assert len(tiered) == 1
        # ... but an L1-only entry still serves reads.
        assert tiered.get(KEY_A) == {"local": True}

    def test_two_instances_share_one_sqlite_store(self, tmp_path):
        """The multi-process story, minus the processes: two backend
        instances (separate connections) on one database file."""
        writer = SqliteBackend(tmp_path / "shared.db")
        reader = SqliteBackend(tmp_path / "shared.db")
        writer.put(KEY_A, {"n": 1})
        assert reader.get(KEY_A) == {"n": 1}
        assert reader.contains(KEY_A)


class TestOpenBackend:
    def test_spec_grammar(self, tmp_path):
        assert isinstance(
            open_backend(f"disk:{tmp_path / 'd'}"), DiskBackend
        )
        assert isinstance(
            open_backend(f"sqlite:{tmp_path / 's.db'}"), SqliteBackend
        )
        bare = open_backend(str(tmp_path / "bare"))
        assert isinstance(bare, DiskBackend)
        tiered = open_backend(
            f"tiered:{tmp_path / 'l1'},{tmp_path / 'l2.db'}"
        )
        assert isinstance(tiered, TieredBackend)
        assert isinstance(tiered.shared, SqliteBackend)
        nested = open_backend(
            f"tiered:{tmp_path / 'l1'},disk:{tmp_path / 'l2'}"
        )
        assert isinstance(nested.shared, DiskBackend)

    @pytest.mark.parametrize("spec", [
        "", "sqlte:typo.db", "tiered:only-one-part", "tiered:,x",
    ])
    def test_bad_specs_are_usage_errors(self, spec):
        with pytest.raises(RunnerError):
            open_backend(spec)

    def test_single_letter_scheme_is_a_drive_path(self, tmp_path):
        backend = open_backend("C:\\cache")
        assert isinstance(backend, DiskBackend)


class TestResultCacheOverBackends:
    def _specs(self, tmp_path):
        return [
            str(tmp_path / "plain-dir"),
            f"sqlite:{tmp_path / 'cache.db'}",
            f"tiered:{tmp_path / 'l1'},{tmp_path / 'l2.db'}",
        ]

    def test_envelope_roundtrip_on_every_backend(self, tmp_path):
        for spec in self._specs(tmp_path):
            cache = ResultCache(spec)
            cache.put(KEY_A, {"result": None, "n": 7})
            assert cache.get(KEY_A) == {"result": None, "n": 7}
            assert KEY_A in cache
            assert len(cache) == 1 and cache.scan() == [KEY_A]

    def test_layout_version_mismatch_is_a_miss(self, tmp_path):
        # Layout 1 payloads carry the retired native flow engines'
        # counters; replaying one would return telemetry no solve makes.
        layout_1 = {
            "kind": "sizing",
            "result": None,
            "flow_stats": {"ssp": {"backend": "ssp", "augmentations": 12}},
        }
        # Layout 2 payloads carry the job kind, the process-global
        # flow-solver totals and the retired wall-time telemetry.
        layout_2 = {
            "kind": "sizing",
            "seed": {"feasible": True, "timing_stats": {"updates": 3}},
            "result": None,
            "flow_stats": {"networkx": {"backend": "networkx", "solves": 5,
                                        "wall_time_s": 0.01}},
        }
        assert CACHE_LAYOUT_VERSION == 3
        for spec in self._specs(tmp_path):
            cache = ResultCache(spec)
            cache.backend.put(KEY_A, {
                "cache_layout": CACHE_LAYOUT_VERSION + 1,
                "payload": {"stale": True},
            })
            assert cache.get(KEY_A) is None
            cache.backend.put(KEY_A, {"cache_layout": 1, "payload": layout_1})
            assert cache.get(KEY_A) is None
            cache.backend.put(KEY_A, {"cache_layout": 2, "payload": layout_2})
            assert cache.get(KEY_A) is None
            cache.put(KEY_A, {"result": None})
            assert cache.get(KEY_A) == {"result": None}

    def test_corrupt_disk_entry_through_result_cache(self, tmp_path):
        """The service-facing guarantee: a truncated cache file can
        never raise out of ``ResultCache.get`` — it quarantines."""
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY_A, {"fine": True})
        path = cache._path(KEY_A)
        path.write_text(json.dumps({"cache_layout": 1})[:9])
        assert cache.get(KEY_A) is None
        assert path.with_suffix(".json.bad").exists()

    def test_campaign_replay_through_sqlite_backend(self, tmp_path):
        """A sizing stored via the sqlite backend replays as a hit."""
        cache = ResultCache(f"sqlite:{tmp_path / 'cache.db'}")
        job = Job(circuit="c17", delay_spec=0.6)
        first = run_campaign([job], cache=cache).outcomes[0]
        assert first.status == "ok" and not first.cached
        again = run_campaign([job], cache=ResultCache(
            f"sqlite:{tmp_path / 'cache.db'}"
        )).outcomes[0]
        assert again.cached
        assert again.payload == first.payload

    def test_key_is_backend_independent(self, tmp_path):
        """The content address names the result, not the storage."""
        job = Job(circuit="c17", delay_spec=0.6)
        assert job_key(job) == job_key(job)
