"""Differential tests for TILOS warm starts from trajectory records.

Every executed sizing job that has a result cache seeds TILOS from its
instance's trajectory record (:mod:`repro.runner.trajectory`) and
writes its own trajectory back when it got further.  The contract is
absolute: every payload is byte-identical (modulo volatile wall-clock
keys) to a cold run — seeding only changes how much work TILOS does,
never what it returns.  The suite drives the real executors end to end:

* seeded-vs-cold parity over drifting-spec sweeps (plus a tier-preset
  circuit at its paper spec), on every cache backend,
* the drift sweep's exact TILOS iteration and replay counts,
* forced divergence: a tampered record (valid checksum, redirected
  bump) must fall back to a bitwise cold result,
* records that cannot seed (another version, a failed checksum, not a
  mapping, an unreadable store) count as absent and are replaced by
  the job's own trajectory, while result entries stay intact,
* the hit path: one backend read, entries without a trajectory, and
  entries written with the retired embedded ``warm`` record still hit,
* the timer counters of a seeded run live on its ``tilos.seed`` span,
  never in the payload,
* parallel ``jobs=N`` equals serial byte-for-byte.
"""

import json

import numpy as np
import pytest

from repro.dag import build_sizing_dag
from repro.faults.injector import install, uninstall
from repro.obs.trace import SpanSink
from repro.runner import CampaignSpec, run
from repro.runner.cache import CACHE_LAYOUT_VERSION, ResultCache
from repro.runner.executor import run_campaign
from repro.runner.spec import Job, resolve_circuit, tier_preset
from repro.runner.trajectory import (
    TRAJECTORY_VERSION,
    record_checksum,
    seeded_tilos,
    trajectory_key,
)
from repro.sizing import TilosOptions, tilos_size
from repro.sizing.serialize import canonical_json, comparable_payload
from repro.tech import default_technology
from repro.timing import GraphTimer


def _comparable(outcome) -> str:
    assert outcome.status in ("ok", "infeasible"), outcome.error
    return canonical_json(comparable_payload(outcome.payload))


def _dag(job: Job):
    return build_sizing_dag(
        resolve_circuit(job.circuit), default_technology(), mode=job.mode
    )


def _key(job: Job) -> str:
    return trajectory_key(_dag(job), TilosOptions())


def _run(job: Job, cache=None):
    """One job as a one-job campaign; returns its outcome."""
    return run_campaign([job], cache=cache).outcomes[0]


def _traced(job: Job, cache) -> tuple:
    """A traced one-job campaign; returns the outcome and the attrs of
    its ``tilos.seed`` span."""
    sink = SpanSink()
    outcome = run_campaign([job], cache=cache, trace_sink=sink).outcomes[0]
    seeds = [r["attrs"] for r in sink.drain() if r["name"] == "tilos.seed"]
    assert len(seeds) == (0 if outcome.cached else 1)
    return outcome, (seeds[0] if seeds else None)


# Drifting-target sweeps: earlier jobs store the trajectory the later
# ones replay.  Specs stay < 1.0 — a spec >= 1.0 is met at minimum
# sizes with zero iterations, which would test nothing.
_SWEEPS = {
    "sizing-drift": [Job("rca:8", s) for s in (0.95, 0.90, 0.85)],
    "sizing-mixed": [
        Job("rca:6", 0.92),
        Job("rca:8", 0.92),
        Job("rca:8", 0.88),
    ],
}


def _backend_spec(tmp_path, scheme: str) -> str:
    if scheme == "disk":
        return f"disk:{tmp_path / 'cache'}"
    if scheme == "sqlite":
        return f"sqlite:{tmp_path / 'cache.db'}"
    return f"tiered:{tmp_path / 'l1'},sqlite:{tmp_path / 'l2.db'}"


class TestSeededColdParity:
    @pytest.mark.parametrize("sweep", sorted(_SWEEPS))
    def test_drifting_sweep_matches_cold(self, tmp_path, sweep):
        jobs = _SWEEPS[sweep]
        cold = [_run(job, cache=None) for job in jobs]
        cache = ResultCache(tmp_path / "cache")
        warm = [_traced(job, cache) for job in jobs]
        for cold_out, (warm_out, _) in zip(cold, warm):
            assert _comparable(warm_out) == _comparable(cold_out)
        # The sweep genuinely exercised seeding (not vacuous parity):
        # the first job of each instance runs cold, every later one
        # replays the trajectory its predecessor stored.
        seen: set[str] = set()
        for job, (_, seed) in zip(jobs, warm):
            if job.circuit in seen:
                assert seed["replayed"] > 0
            else:
                assert seed["replayed"] == 0
            assert "rejected" not in seed
            seen.add(job.circuit)

    @pytest.mark.parametrize("scheme", ["disk", "sqlite", "tiered"])
    def test_default_run_seeds_on_every_backend(self, tmp_path, scheme):
        """``repro.runner.run`` with a cache and no flag seeds: the
        second of two same-circuit jobs replays on its ``tilos.seed``
        span, and its payload equals a ``cache=None`` run's."""
        spec = _backend_spec(tmp_path, scheme)
        jobs = [Job("rca:8", 0.9), Job("rca:8", 0.8)]
        outcomes = []
        for index, job in enumerate(jobs):
            campaign = CampaignSpec(
                name=f"j{index}", circuits=(job.circuit,),
                delay_specs=(job.delay_spec,),
            )
            result = run(campaign, cache=spec, run_dir=tmp_path / f"r{index}")
            outcomes += result.outcomes
        spans = [
            json.loads(line)
            for line in (tmp_path / "r1" / "trace.jsonl").read_text().splitlines()
        ]
        seeds = [s["attrs"] for s in spans if s["name"] == "tilos.seed"]
        assert len(seeds) == 1 and seeds[0]["replayed"] > 0
        for job, outcome in zip(jobs, outcomes):
            assert _comparable(outcome) == _comparable(_run(job, cache=None))
        # Results only: the trajectory record shares the backend but
        # not the result cache's key space.
        assert len(ResultCache(spec)) == 2

    @pytest.mark.slow
    def test_tier_preset_circuit_matches_cold(self, tmp_path):
        """A real Table-1 circuit at its paper delay spec: a drifted
        target seeded from the first run's trajectory stays bitwise
        cold."""
        base = tier_preset("smoke").jobs()[0]
        jobs = [base, Job(base.circuit, base.delay_spec * 0.95)]
        cold = [_run(job, cache=None) for job in jobs]
        cache = ResultCache(tmp_path / "cache")
        warm = [_traced(job, cache) for job in jobs]
        for cold_out, (warm_out, _) in zip(cold, warm):
            assert _comparable(warm_out) == _comparable(cold_out)
        assert warm[1][1]["replayed"] > 0


class TestDriftSweepCounts:
    """The drift sweep through one store, at TILOS level: exact
    iteration and replay counts, sizes bitwise equal to cold runs."""

    SPECS = (0.96, 0.94, 0.92, 0.90, 0.88)

    @pytest.mark.parametrize("circuit, iterations, replayed", [
        ("c432eq", [7, 11, 15, 23, 31], [0, 7, 11, 15, 23]),
        ("c499eq", [23, 89, 130, 175, 253], [0, 23, 89, 130, 175]),
        ("rca:64", [59, 91, 125, 167, 210], [0, 59, 91, 125, 167]),
    ])
    def test_counts_and_parity(self, tmp_path, circuit, iterations, replayed):
        dag = _dag(Job(circuit, 0.9))
        d_min = GraphTimer(dag).analyze(
            dag.delays(dag.min_sizes())
        ).critical_path_delay
        cache = ResultCache(tmp_path / "cache")
        runs = []
        for spec in self.SPECS:
            seed, rejected = seeded_tilos(dag, spec * d_min, cache)
            assert rejected is None
            cold = tilos_size(dag, spec * d_min, keep_trace=True)
            assert np.array_equal(seed.x, cold.x)
            assert seed.trace == cold.trace and seed.bumps == cold.bumps
            runs.append(seed)
        assert [run.iterations for run in runs] == iterations
        assert [(run.warm or {}).get("replayed", 0) for run in runs] \
            == replayed


class TestDivergenceFallback:
    def test_poisoned_trajectory_falls_back_to_cold(self, tmp_path):
        donor = Job("rca:8", 0.92)
        target = Job("rca:8", 0.88)
        cache = ResultCache(tmp_path / "cache")
        _run(donor, cache)
        key = _key(donor)
        record = cache.backend.get(key)
        assert record is not None and record["data"]["bumps"]
        # Redirect the first bump to a different vertex but recompute
        # the checksum: the record passes the store's checks and
        # reaches the replay monitor, which must catch the diverging
        # delay trace.
        first = record["data"]["bumps"][0]
        record["data"]["bumps"][0] = [1 if first[0] == 0 else 0]
        record["checksum"] = record_checksum(record)
        cache.backend.put(key, record)

        cold = _run(target, cache=None)
        warm, seed = _traced(target, cache)
        assert seed["replayed"] == 0
        assert seed["rejected"] == "replayed delay trace diverged"
        assert _comparable(warm) == _comparable(cold)
        # The job's own trajectory replaced the tampered record.
        assert cache.backend.get(key)["data"]["bumps"][0] == first


class TestQuarantine:
    """Records that cannot seed count as absent: the job runs cold and
    its own trajectory replaces them; result entries stay intact."""

    def test_corrupt_rows_quarantined_payload_survives(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        donors = [Job("rca:6", 0.92), Job("rca:8", 0.92)]
        payloads = {}
        for job in donors:
            out = _run(job, cache)
            payloads[out.key] = out.payload
        k6, k8 = _key(donors[0]), _key(donors[1])
        # rca:6: a record of another version (checksum recomputed).
        r6 = cache.backend.get(k6)
        r6["version"] = 99
        r6["checksum"] = record_checksum(r6)
        cache.backend.put(k6, r6)
        # rca:8: tampered data under a stale checksum.
        r8 = cache.backend.get(k8)
        r8["data"]["trace"][0] += 1.0
        cache.backend.put(k8, r8)

        for job, reason in (
            (Job("rca:6", 0.88), "record version 99"),
            (Job("rca:8", 0.88), "checksum mismatch"),
        ):
            warm, seed = _traced(job, cache)
            assert (seed["replayed"], seed["rejected"]) == (0, reason)
            assert _comparable(warm) == _comparable(_run(job, cache=None))
        for key in (k6, k8):
            record = cache.backend.get(key)
            assert record["version"] == TRAJECTORY_VERSION
            assert record["checksum"] == record_checksum(record)
        for key, payload in payloads.items():
            assert cache.get(key) == payload

    def test_non_dict_warm_record_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = Job("rca:6", 0.9)
        key = _key(job)
        cache.backend.put(key, json.loads('["not", "a", "record"]'))
        warm, seed = _traced(job, cache)
        assert seed["replayed"] == 0 and "rejected" not in seed
        assert _comparable(warm) == _comparable(_run(job, cache=None))
        assert cache.backend.get(key)["version"] == TRAJECTORY_VERSION

    def test_unreadable_record_runs_cold(self, tmp_path):
        """An injected ``cache.get`` I/O error on the trajectory read
        leaves the job cold and ``ok``; its trajectory is written."""
        cache = ResultCache(tmp_path / "cache")
        donor, job = Job("rca:8", 0.92), Job("rca:8", 0.88)
        _run(donor, cache)
        key = _key(job)
        stored = len(cache.backend.get(key)["data"]["bumps"])
        install("cache.get:io_error@1", propagate=False)
        try:
            warm, seed = _traced(job, cache)
        finally:
            uninstall()
        assert warm.status == "ok" and not warm.cached
        assert seed["replayed"] == 0 and "rejected" not in seed
        assert _comparable(warm) == _comparable(_run(job, cache=None))
        assert len(cache.backend.get(key)["data"]["bumps"]) > stored

    def test_parent_warm_entries_still_hit(self, tmp_path):
        """A cache entry written with an embedded ``warm`` corpus record
        (the retired layout) still hits with the same payload."""
        cache = ResultCache(tmp_path / "cache")
        job = Job("rca:6", 0.9)
        first = _run(job, cache)
        entry = cache.backend.get(first.key)
        entry["warm"] = {
            "version": 2, "fingerprint": 1, "kind": "sizing", "mode": "gate",
            "dag_sha": "0" * 64, "features": {"n": 1},
            "data": {"d_min": 1.0, "bumps": [[0]], "trace": [2.0, 1.0]},
            "checksum": "0" * 16,
        }
        cache.backend.put(first.key, entry)
        replay = _run(job, ResultCache(tmp_path / "cache"))
        assert replay.cached
        assert replay.payload == first.payload


class TestHitPath:
    def test_hit_reads_backend_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = Job("rca:6", 0.9)
        _run(job, cache)
        reads = []
        get = cache.backend.get
        cache.backend.get = lambda key: reads.append(key) or get(key)
        assert _run(job, cache).cached
        assert len(reads) == 1

    def test_seeded_entry_has_no_warm_field(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _run(Job("rca:6", 0.92), cache)
        seeded, seed = _traced(Job("rca:6", 0.88), cache)
        assert seed["replayed"] > 0
        entry = cache.backend.get(seeded.key)
        assert set(entry) == {"cache_layout", "payload"}
        assert entry["cache_layout"] == CACHE_LAYOUT_VERSION


class TestSeedTelemetry:
    def test_seed_counters_live_on_the_span(self, tmp_path):
        """A seeded run times only the bumps after its replay, so its
        timer counters describe the execution, not the result: they
        ride on the ``tilos.seed`` span, and the stored payload is the
        same whatever the cache held."""
        cache = ResultCache(tmp_path / "cache")
        first, _ = _traced(Job("c432eq", 0.45), cache)
        seeded, seeded_span = _traced(Job("c432eq", 0.42), cache)
        cold, cold_span = _traced(Job("c432eq", 0.42), None)
        assert seeded_span["replayed"] > 0
        assert seeded_span["iterations"] == cold_span["iterations"]
        assert (seeded_span["updates"] + seeded_span["replayed"]
                == seeded_span["iterations"])
        assert cold_span["replayed"] == 0
        assert cold_span["updates"] == cold_span["iterations"]
        for span_attrs in (seeded_span, cold_span):
            assert span_attrs["repropagated_vertices"] > 0
            assert 0.0 < span_attrs["cone_fraction"] < 0.5
        for outcome in (first, seeded, cold):
            assert "timing_stats" not in outcome.payload["seed"]
        assert _comparable(seeded) == _comparable(cold)


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
        serial = run_campaign(jobs, jobs=1, cache=serial_cache)
        parallel_cache = ResultCache(tmp_path / "parallel")
        parallel = run_campaign(jobs, jobs=2, cache=parallel_cache)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert _comparable(a) == _comparable(b)
        # Both runs cached identical entries under identical keys, and
        # the process-pool workers stored trajectories too.
        assert sorted(serial_cache.scan()) == sorted(parallel_cache.scan())
        for key in serial_cache.scan():
            assert canonical_json(comparable_payload(serial_cache.get(key))) \
                == canonical_json(comparable_payload(parallel_cache.get(key)))
        for job in jobs:
            assert parallel_cache.backend.get(_key(job)) is not None
