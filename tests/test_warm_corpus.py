"""Differential tests for the warm-start corpus (PR 9 tentpole).

The contract under test is absolute: with the corpus on, every job's
payload is byte-identical (modulo volatile wall-clock keys) to a cold
run — seeding only changes how much work the solver does, never what
it returns.  The suite drives the real executors end to end:

* seeded-vs-cold parity over drifting-spec sweeps (plus a tier-preset
  circuit at its paper spec),
* forced divergence: a poisoned donor trajectory (valid checksum,
  wrong bumps) must fall back to a bitwise cold result,
* corrupt / version-mismatched warm records are quarantined like PR 6
  cache entries — stripped, counted, payload untouched,
* parallel ``jobs=N`` equals serial byte-for-byte with warm on.
"""

import json

import pytest

from repro.dag import build_sizing_dag
from repro.runner.cache import ResultCache
from repro.runner.corpus import (
    WarmCorpus,
    WarmSession,
    record_checksum,
)
from repro.runner.executor import run_campaign, run_one
from repro.runner.spec import Job, resolve_circuit, tier_preset
from repro.sizing.serialize import canonical_json, comparable_payload
from repro.tech import default_technology


def _comparable(outcome) -> str:
    assert outcome.status in ("ok", "infeasible"), outcome.error
    return canonical_json(comparable_payload(outcome.payload))


def _rewrite_warm(cache: ResultCache, key: str, record) -> None:
    """Replace the warm record of ``key`` without touching the payload
    (and without the checksum hygiene of the normal write path)."""
    entry = cache.backend.get(key)
    entry["warm"] = record
    cache.backend.put(key, entry)


# Drifting-target sweeps: earlier jobs populate the corpus the later
# ones retrieve from.  Specs stay < 1.0 — a spec >= 1.0 is met at
# minimum sizes with zero iterations, which would test nothing.
_SWEEPS = {
    "sizing-drift": [Job("rca:8", s) for s in (0.95, 0.90, 0.85)],
    "sizing-mixed": [
        Job("rca:6", 0.92),
        Job("rca:8", 0.92),
        Job("rca:8", 0.88),
    ],
}


class TestSeededColdParity:
    @pytest.mark.parametrize("sweep", sorted(_SWEEPS))
    def test_drifting_sweep_matches_cold(self, tmp_path, sweep):
        jobs = _SWEEPS[sweep]
        cold = [run_one(job, cache=None) for job in jobs]
        cache = ResultCache(tmp_path / "corpus")
        spec = f"disk:{tmp_path / 'corpus'}"
        warm = [run_one(job, cache, warm=spec) for job in jobs]
        for cold_out, warm_out in zip(cold, warm):
            assert _comparable(warm_out) == _comparable(cold_out)
        # The sweep genuinely exercised seeding (not vacuous parity):
        # the first job is a cold miss, every later one finds a donor.
        assert not warm[0].warm_hit
        assert all(out.warm_hit for out in warm[1:])
        assert any(out.warm_seeded for out in warm[1:])

    @pytest.mark.slow
    def test_tier_preset_circuit_matches_cold(self, tmp_path):
        """A real Table-1 circuit at its paper delay spec: re-running a
        drifted target against the first run's corpus record stays
        bitwise cold."""
        base = tier_preset("smoke").jobs()[0]
        jobs = [base, Job(base.circuit, base.delay_spec * 0.95)]
        cold = [run_one(job, cache=None) for job in jobs]
        cache = ResultCache(tmp_path / "corpus")
        warm = [
            run_one(job, cache, warm=f"disk:{tmp_path / 'corpus'}")
            for job in jobs
        ]
        for cold_out, warm_out in zip(cold, warm):
            assert _comparable(warm_out) == _comparable(cold_out)
        assert warm[1].warm_hit


class TestDivergenceFallback:
    def test_poisoned_trajectory_falls_back_to_cold(self, tmp_path):
        donor = Job("rca:8", 0.92)
        target = Job("rca:8", 0.88)
        cache = ResultCache(tmp_path / "corpus")
        spec = f"disk:{tmp_path / 'corpus'}"
        donor_out = run_one(donor, cache, warm=spec)
        record = cache.get_warm(donor_out.key)
        assert record is not None and record["data"]["bumps"]
        # Redirect the first bump to a different vertex but recompute
        # the checksum: the record passes verification and reaches the
        # replay monitor, which must catch the diverging delay trace.
        first = record["data"]["bumps"][0]
        record["data"]["bumps"][0] = [1 if first[0] == 0 else 0]
        record["checksum"] = record_checksum(record)
        _rewrite_warm(cache, donor_out.key, record)

        cold = run_one(target, cache=None)
        warm = run_one(target, cache, warm=spec)
        assert warm.warm_hit and warm.warm_fallback and not warm.warm_seeded
        assert _comparable(warm) == _comparable(cold)


class TestQuarantine:
    def _seed_corpus(self, cache, spec):
        """Two donor entries with staged warm records; returns keys."""
        outs = [
            run_one(Job("rca:6", 0.92), cache, warm=spec),
            run_one(Job("rca:6", 0.88), cache, warm=spec),
        ]
        return [out.key for out in outs]

    def _query_for(self, job: Job) -> dict:
        from dataclasses import asdict

        from repro.sizing import TilosOptions

        dag = build_sizing_dag(
            resolve_circuit(job.circuit), default_technology(), mode=job.mode
        )
        return WarmSession(None)._build_query(
            "sizing",
            dag=dag,
            tech=default_technology(),
            mode=job.mode,
            options=asdict(TilosOptions()),
            delay_spec=job.delay_spec,
            target=1.0,
        )

    def test_corrupt_rows_quarantined_payload_survives(self, tmp_path):
        cache = ResultCache(tmp_path / "corpus")
        spec = f"disk:{tmp_path / 'corpus'}"
        k1, k2 = self._seed_corpus(cache, spec)
        payloads = {k: cache.get(k) for k in (k1, k2)}

        # k1: version-mismatched row — rejected at index time.
        r1 = cache.get_warm(k1)
        r1["version"] = 99
        _rewrite_warm(cache, k1, r1)
        # k2: tampered data under a stale checksum — passes the cheap
        # index-time validation, fails full verification at fetch time.
        r2 = cache.get_warm(k2)
        r2["data"]["trace"][0] += 1.0
        _rewrite_warm(cache, k2, r2)

        corpus = WarmCorpus(ResultCache(tmp_path / "corpus"))
        record, info = corpus.probe(self._query_for(Job("rca:6", 0.9)))
        assert record is None
        assert info["quarantined"] == 2
        # Quarantine strips the warm record but never the payload —
        # exactly how PR 6 treats corrupt cache entries.
        for key in (k1, k2):
            assert cache.get_warm(key) is None
            assert cache.get(key) == payloads[key]

    def test_parent_records_stripped_by_refresh(self, tmp_path):
        """Records written before the W-phase kind and the TILOS
        engine/kernel options went away — a ``wphase`` seed and a
        version-1 sizing record whose options carry ``engine`` and
        ``kernel`` — are stripped when the index first sees them; the
        payloads they rode with stay intact."""
        cache = ResultCache(tmp_path / "corpus")
        spec = f"disk:{tmp_path / 'corpus'}"
        k1, k2 = self._seed_corpus(cache, spec)
        payloads = {k: cache.get(k) for k in (k1, k2)}

        sizing = cache.get_warm(k1)
        wphase = {
            key: sizing[key]
            for key in ("fingerprint", "mode", "tech", "netlist_sha256",
                        "dag_sha", "features")
        }
        n = len(payloads[k1]["result"]["x"])
        wphase.update(
            version=1, kind="wphase", options={"engine": "vectorized"},
            delay_spec=0.92, target=None,
            data={"x": [1.0] * n, "budgets": [50.0] * n},
        )
        wphase["checksum"] = record_checksum(wphase)
        _rewrite_warm(cache, k1, wphase)
        old_sizing = cache.get_warm(k2)
        old_sizing["version"] = 1
        old_sizing["options"] = dict(
            old_sizing["options"], engine="incremental", kernel="vectorized"
        )
        old_sizing["checksum"] = record_checksum(old_sizing)
        _rewrite_warm(cache, k2, old_sizing)

        corpus = WarmCorpus(ResultCache(tmp_path / "corpus"))
        corpus.refresh()
        assert len(corpus) == 0
        for key in (k1, k2):
            assert cache.get_warm(key) is None
            assert cache.get(key) == payloads[key]

    def test_non_dict_warm_record_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "corpus")
        spec = f"disk:{tmp_path / 'corpus'}"
        (k1, _) = self._seed_corpus(cache, spec)
        _rewrite_warm(cache, k1, json.loads('["not", "a", "record"]'))
        corpus = WarmCorpus(ResultCache(tmp_path / "corpus"))
        record, info = corpus.probe(self._query_for(Job("rca:6", 0.9)))
        # The intact sibling record still wins the probe.
        assert record is not None
        assert info["quarantined"] >= 0  # non-dict warm reads as absent
        assert cache.get(k1) is not None


class TestParallelSerialParity:
    @pytest.mark.slow
    def test_parallel_equals_serial_with_warm_on(self, tmp_path):
        jobs = [
            Job("rca:6", 0.95),
            Job("rca:6", 0.90),
            Job("rca:8", 0.92),
            Job("rca:8", 0.85),
        ]
        serial_cache = ResultCache(tmp_path / "serial")
        serial = run_campaign(
            jobs,
            jobs=1,
            cache=serial_cache,
            warm_corpus=f"disk:{tmp_path / 'serial'}",
        )
        parallel_cache = ResultCache(tmp_path / "parallel")
        parallel = run_campaign(
            jobs,
            jobs=2,
            cache=parallel_cache,
            warm_corpus=f"disk:{tmp_path / 'parallel'}",
        )
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert _comparable(a) == _comparable(b)
        # Both runs cached identical entries under identical keys.
        assert sorted(serial_cache.scan()) == sorted(parallel_cache.scan())
        for key in serial_cache.scan():
            assert canonical_json(comparable_payload(serial_cache.get(key))) \
                == canonical_json(comparable_payload(parallel_cache.get(key)))
