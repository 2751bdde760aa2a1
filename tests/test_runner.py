"""Tests for the parallel sizing-campaign subsystem (repro.runner)."""

import json

import pytest

from repro import runner
from repro.errors import RunnerError
from repro.flow.duality import (
    SolveStats,
    record_stats,
    reset_solver_statistics,
    solver_statistics,
    stats_scope,
)
from repro.runner import (
    CampaignSpec,
    Job,
    ResultCache,
    job_key,
    load_run,
    run_campaign,
)
from repro.runner.executor import _EXECUTORS
from repro.runner.spec import normalize_options, resolve_circuit, tier_preset
from repro.sizing import serialize


def small_spec(name="small", specs=(0.6, 0.8)):
    return CampaignSpec(name=name, circuits=("c17",), delay_specs=specs)


def sizes_of(result):
    return [o.payload["result"]["x"] for o in result.outcomes]


class TestSpec:
    def test_expansion_is_deterministic_product(self):
        spec = CampaignSpec(
            name="m",
            circuits=("c17", "c432eq"),
            delay_specs=(0.5, 0.6),
            flow_backends=("networkx", "auto"),
        )
        jobs = spec.jobs()
        assert len(jobs) == 8
        assert jobs == spec.jobs()  # stable across expansions
        assert jobs[0].circuit == "c17" and jobs[0].flow_backend == "networkx"
        assert jobs[-1].circuit == "c432eq" and jobs[-1].delay_spec == 0.6

    def test_empty_delay_specs_use_suite_defaults(self):
        spec = CampaignSpec(name="t", circuits=("c432eq",))
        assert spec.jobs()[0].delay_spec == pytest.approx(0.4)

    def test_suite_default_unknown_circuit(self):
        with pytest.raises(RunnerError, match="delay spec"):
            CampaignSpec(name="t", circuits=("rca:8",)).jobs()

    def test_bad_job_parameters(self):
        with pytest.raises(RunnerError, match="positive"):
            Job(circuit="c17", delay_spec=0.0)
        with pytest.raises(RunnerError, match="kind"):
            Job(circuit="c17", delay_spec=0.5, kind="quantum")

    @pytest.mark.parametrize("name", ["ssp", "ssp-legacy", "cplex"])
    def test_unknown_flow_backend_rejected_at_build(self, name):
        with pytest.raises(RunnerError, match="unknown flow backend"):
            Job(circuit="c17", delay_spec=0.6, flow_backend=name)
        with pytest.raises(RunnerError, match="unknown flow backend"):
            CampaignSpec(
                name="t", circuits=("c17",), flow_backends=("auto", name)
            )

    def test_spec_round_trips_through_dict(self):
        spec = CampaignSpec(
            name="rt",
            circuits=("c17",),
            delay_specs=(0.7,),
            options=normalize_options({"balancing": "alap"}),
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        job = spec.jobs()[0]
        assert Job.from_dict(job.to_dict()) == job

    def test_wphase_kind_rejected(self):
        """The batched ``wphase`` kind is gone from jobs and specs."""
        from repro.runner.spec import JOB_KINDS

        assert JOB_KINDS == ("sizing", "phases")
        with pytest.raises(RunnerError, match="unknown job kind 'wphase'"):
            Job(circuit="c17", delay_spec=0.6, kind="wphase")
        with pytest.raises(RunnerError, match="unknown job kind 'wphase'"):
            CampaignSpec(name="w", circuits=("c17",), kind="wphase")

    def test_normalize_options_rejects_unknown(self):
        with pytest.raises(RunnerError, match="unknown MinfloOptions"):
            normalize_options({"not_a_knob": 1})

    def test_options_reach_minflo(self):
        job = Job(
            circuit="c17",
            delay_spec=0.5,
            options=normalize_options({"balancing": "alap", "alpha": 0.1}),
        )
        options = job.minflo_options()
        assert options.balancing == "alap"
        assert options.alpha == pytest.approx(0.1)

    def test_tier_preset_matches_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIER", "smoke")
        assert tier_preset().circuits == tier_preset("smoke").circuits
        assert len(tier_preset("paper").circuits) > len(
            tier_preset("smoke").circuits
        )
        with pytest.raises(RunnerError, match="tier"):
            tier_preset("galaxy")

    def test_resolve_rca_token(self):
        circuit = resolve_circuit("rca:4")
        assert circuit.n_gates > 0
        with pytest.raises(RunnerError, match="WIDTH"):
            resolve_circuit("rca:four")


class TestCache:
    def test_key_depends_on_content(self):
        j1 = Job(circuit="c17", delay_spec=0.6)
        assert job_key(j1) == job_key(Job(circuit="c17", delay_spec=0.6))
        assert job_key(j1) != job_key(Job(circuit="c17", delay_spec=0.7))
        assert job_key(j1) != job_key(
            Job(circuit="c17", delay_spec=0.6, flow_backend="networkx")
        )

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"kind": "sizing", "result": None})
        assert cache.get(key) == {"kind": "sizing", "result": None}
        assert key in cache and len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, {"kind": "sizing", "result": None})
        path = cache._path(key)
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        payload = {
            "kind": "sizing",
            "result": {"schema_version": serialize.SCHEMA_VERSION + 1},
        }
        cache.put(key, payload)
        assert cache.get(key) is None
        payload["result"]["schema_version"] = serialize.SCHEMA_VERSION
        cache.put(key, payload)
        assert cache.get(key) is not None


class TestExecutor:
    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec()
        serial = runner.run(spec, jobs=1, cache=None)
        parallel = runner.run(spec, jobs=2, cache=None)
        assert [o.status for o in serial.outcomes] == ["ok", "ok"]
        assert sizes_of(parallel) == sizes_of(serial)

    def test_cache_hit_skips_sizing(self, tmp_path, monkeypatch):
        spec = small_spec()
        first = runner.run(spec, jobs=1, cache=tmp_path / "cache")

        def boom(job):
            raise AssertionError("cache hit must not re-run the job")

        monkeypatch.setitem(_EXECUTORS, "sizing", boom)
        second = runner.run(spec, jobs=1, cache=tmp_path / "cache")
        assert second.n_cached == len(second.outcomes) == 2
        assert sizes_of(second) == sizes_of(first)

    def test_no_cache_reruns(self, tmp_path, monkeypatch):
        spec = small_spec()
        runner.run(spec, jobs=1, cache=tmp_path / "cache")
        calls = []
        real = _EXECUTORS["sizing"]
        monkeypatch.setitem(
            _EXECUTORS, "sizing",
            lambda job: calls.append(job) or real(job),
        )
        result = runner.run(spec, jobs=1, cache=None)
        assert result.n_cached == 0
        assert len(calls) == 2

    def test_failure_is_isolated(self):
        jobs = [
            Job(circuit="c17", delay_spec=0.8),
            Job(circuit="definitely-not-a-circuit", delay_spec=0.5),
        ]
        result = run_campaign(jobs, jobs=1)
        assert [o.status for o in result.outcomes] == ["ok", "failed"]
        assert "definitely-not-a-circuit" in result.outcomes[1].error
        assert result.n_failed == 1

    def test_bad_token_with_cache_fails_in_isolation(self, tmp_path):
        spec = CampaignSpec(
            name="bad",
            circuits=("c17", "definitely-not-a-circuit"),
            delay_specs=(0.8,),
        )
        result = runner.run(spec, jobs=1, cache=tmp_path / "cache")
        assert [o.status for o in result.outcomes] == ["ok", "failed"]

    def test_timeout_marks_job(self):
        result = run_campaign(
            [Job(circuit="c432eq", delay_spec=0.4)], jobs=1, timeout=0.05
        )
        assert result.outcomes[0].status == "timeout"
        assert "budget" in result.outcomes[0].error

    # The swallowed alarm is the scenario itself, not a test leak.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_timeout_inside_finalizer_is_not_lost(self):
        """An alarm that lands inside ``__del__`` has its exception
        swallowed ("Exception ignored"), so ``fn`` runs on to a normal
        return; the job still overran its budget and must time out."""
        import time

        from repro.errors import JobTimeoutError
        from repro.runner.executor import _with_timeout

        class SlowFinalizer:
            def __del__(self):
                end = time.perf_counter() + 0.2
                while time.perf_counter() < end:
                    pass

        def fn():
            SlowFinalizer()  # finalized at once: the alarm fires inside
            return "finished"

        with pytest.raises(JobTimeoutError, match="budget"):
            _with_timeout(fn, 0.05)
        assert _with_timeout(fn, 5.0) == "finished"

    def test_infeasible_target_is_a_completed_outcome(self, tmp_path):
        spec = small_spec(name="floor", specs=(0.01,))
        result = runner.run(spec, jobs=1, cache=tmp_path / "cache")
        assert result.outcomes[0].status == "infeasible"
        assert result.outcomes[0].payload["result"] is None
        again = runner.run(spec, jobs=1, cache=tmp_path / "cache")
        assert again.outcomes[0].cached
        assert again.outcomes[0].status == "infeasible"

    def test_no_batched_execution_surface(self, tmp_path):
        """Campaigns run one job per worker call: no ``batch`` argument,
        and no batch fields on outcomes, run-log records or digests."""
        import dataclasses

        from repro.runner import JobOutcome, campaign_to_dict

        spec = small_spec(specs=(0.7,))
        for call in (
            lambda: run_campaign(spec, batch=True),
            lambda: runner.run(spec, cache=None, batch=True),
            lambda: runner.resume(tmp_path / "run", cache=None, batch=True),
        ):
            with pytest.raises(TypeError, match="batch"):
                call()
        fields = {f.name for f in dataclasses.fields(JobOutcome)}
        assert not {"batch_size", "batched_seconds"} & fields
        result = runner.run(spec, cache=None, run_dir=tmp_path / "run")
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "campaign.jsonl").open()
        ]
        jobs = [r for r in records if r["type"] == "job"]
        assert len(jobs) == 1 and jobs[0]["status"] == "ok"
        assert not any("batch" in key for r in jobs for key in r)
        assert not any(
            "batch" in key for j in campaign_to_dict(result)["jobs"]
            for key in j
        )

    def test_per_job_flow_stats_are_isolated(self):
        spec = small_spec()
        result = runner.run(spec, jobs=1, cache=None)
        for outcome in result.outcomes:
            flow = outcome.payload["flow_stats"]
            assert flow, "sizing jobs must record their flow solves"
            iters = len(outcome.payload["result"]["iterations"])
            assert sum(s["solves"] for s in flow.values()) == iters


class TestRunOne:
    def test_run_one_executes_and_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = Job(circuit="c17", delay_spec=0.7)
        outcome = runner.run_one(job, cache=cache)
        assert outcome.status == "ok" and not outcome.cached
        assert outcome.key in cache

    def test_run_one_replays_from_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        job = Job(circuit="c17", delay_spec=0.7)
        first = runner.run_one(job, cache=cache)
        monkeypatch.setitem(_EXECUTORS, "sizing", lambda j: (
            (_ for _ in ()).throw(AssertionError("must replay"))
        ))
        second = runner.run_one(job, cache=cache)
        assert second.cached
        assert second.payload == first.payload

    def test_run_one_matches_campaign_payload(self, tmp_path):
        """One shared execution path: run_one == the campaign loop."""
        spec = small_spec(name="one", specs=(0.7,))
        campaign = runner.run(spec, jobs=1, cache=None)
        single = runner.run_one(spec.jobs()[0], cache=None)
        assert single.payload["result"]["x"] == (
            campaign.outcomes[0].payload["result"]["x"]
        )

    def test_run_one_isolates_failures(self):
        outcome = runner.run_one(
            Job(circuit="definitely-not-a-circuit", delay_spec=0.5)
        )
        assert outcome.status == "failed"
        assert "definitely-not-a-circuit" in outcome.error


class TestResume:
    def test_interrupt_then_resume_identical(self, tmp_path, monkeypatch):
        spec = small_spec(name="resumable")
        clean = runner.run(spec, jobs=1, cache=None)

        real = _EXECUTORS["sizing"]
        seen = []

        def interrupt_second(job):
            seen.append(job)
            if len(seen) == 2:
                raise KeyboardInterrupt
            return real(job)

        monkeypatch.setitem(_EXECUTORS, "sizing", interrupt_second)
        with pytest.raises(KeyboardInterrupt):
            runner.run(
                spec, jobs=1,
                cache=tmp_path / "cache", run_dir=tmp_path / "run",
            )
        monkeypatch.setitem(_EXECUTORS, "sizing", real)

        state = load_run(tmp_path / "run")
        assert state.counts() == {"ok": 1, "pending": 1}

        resumed = runner.resume(
            tmp_path / "run", jobs=1, cache=tmp_path / "cache"
        )
        assert [o.cached for o in resumed.outcomes] == [True, False]
        assert sizes_of(resumed) == sizes_of(clean)
        assert load_run(tmp_path / "run").counts() == {"ok": 2}

    def test_resume_without_log_errors(self, tmp_path):
        with pytest.raises(RunnerError, match="no campaign log"):
            runner.resume(tmp_path / "empty")

    def test_jsonl_records_are_replayable(self, tmp_path):
        spec = small_spec(name="logged")
        runner.run(
            spec, jobs=1, cache=tmp_path / "cache", run_dir=tmp_path / "run"
        )
        lines = [
            json.loads(line)
            for line in (tmp_path / "run" / "campaign.jsonl")
            .read_text().splitlines()
        ]
        assert lines[0]["type"] == "campaign"
        assert lines[0]["n_jobs"] == 2
        job_lines = [rec for rec in lines if rec["type"] == "job"]
        assert {rec["index"] for rec in job_lines} == {0, 1}
        assert all(rec["summary"]["area"] > 0 for rec in job_lines)
        state = load_run(tmp_path / "run")
        assert state.spec == spec

    def test_torn_tail_line_is_ignored(self, tmp_path):
        spec = small_spec(name="torn")
        runner.run(
            spec, jobs=1, cache=tmp_path / "cache", run_dir=tmp_path / "run"
        )
        path = tmp_path / "run" / "campaign.jsonl"
        path.write_text(path.read_text() + '{"type": "job", "ind')
        state = load_run(tmp_path / "run")
        assert state.counts() == {"ok": 2}


class TestStatsScope:
    @pytest.fixture(autouse=True)
    def _clean_totals(self):
        reset_solver_statistics()
        yield
        reset_solver_statistics()

    def test_scope_isolates_and_restores(self):
        record_stats(SolveStats(backend="outer", solves=3))
        with stats_scope() as scoped:
            record_stats(SolveStats(backend="inner", solves=5))
        assert set(scoped) == {"inner"}
        assert scoped["inner"].solves == 5
        totals = solver_statistics()
        assert totals["outer"].solves == 3
        assert totals["inner"].solves == 5

    def test_nested_scopes(self):
        with stats_scope() as outer:
            record_stats(SolveStats(backend="a", solves=1))
            with stats_scope() as inner:
                record_stats(SolveStats(backend="a", solves=9))
            assert inner["a"].solves == 9
        assert outer["a"].solves == 10


class TestCampaignCli:
    def test_run_status_resume(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "--circuits", "c17", "--specs", "0.6,0.8",
            "--jobs", "2", "--run-dir", "run", "--cache-dir", "cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "c17@0.6" in out and "0/2 cached" in out

        code = main([
            "campaign", "run", "--circuits", "c17", "--specs", "0.6,0.8",
            "--run-dir", "run2", "--cache-dir", "cache", "--json",
        ])
        assert code == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["n_cached"] == 2
        assert digest["counts"] == {"ok": 2}

        assert main(["campaign", "status", "run", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] == status["n_jobs"] == 2

        assert main([
            "campaign", "resume", "run", "--cache-dir", "cache",
        ]) == 0
        assert "2/2 cached" in capsys.readouterr().out

    def test_bad_specs_exit_2(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "--circuits", "c17", "--specs", "0,-1",
        ])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_malformed_specs_exit_2(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "--circuits", "c17", "--specs", "0.5,oops",
        ])
        assert code == 2
        assert "comma-separated numbers" in capsys.readouterr().err

    def test_missing_bench_fails_in_isolation(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        # With the cache enabled (the default), the unreadable netlist
        # must become a failed job — not a parent-process traceback.
        code = main([
            "campaign", "run", "--circuits", "c17,missing.bench",
            "--specs", "0.8", "--run-dir", "run",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out and "missing.bench" in out

    def test_table1_spec_is_the_tier_preset(self):
        from repro.experiments.table1 import campaign_spec

        assert campaign_spec("smoke") == tier_preset("smoke")
        assert campaign_spec("paper", "scipy") == tier_preset(
            "paper", flow_backend="scipy"
        )

    def test_figure7_panel_replays_from_cache(self, tmp_path, monkeypatch):
        from repro.experiments.figure7 import run_panel

        first = run_panel("c17", [0.7, 0.9], cache=tmp_path / "cache")
        monkeypatch.setitem(
            _EXECUTORS, "sizing",
            lambda job: (_ for _ in ()).throw(
                AssertionError("cached point must not re-run")
            ),
        )
        again = run_panel("c17", [0.7, 0.9], cache=tmp_path / "cache")
        assert [p.minflo_area_ratio for p in again.points] == [
            p.minflo_area_ratio for p in first.points
        ]

    def test_status_missing_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "status", "nowhere"]) == 2
        assert "no campaign log" in capsys.readouterr().err

    def test_status_and_resume_empty_log_exit_2(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "campaign.jsonl").write_text("")
        assert main(["campaign", "status", "run"]) == 2
        assert "no campaign header" in capsys.readouterr().err
        assert main(["campaign", "resume", "run"]) == 2
        assert "no campaign header" in capsys.readouterr().err

    def test_status_and_resume_truncated_header_exit_2(self, tmp_path,
                                                       capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "run").mkdir()
        # A header record missing n_jobs/labels (e.g. hand-edited or
        # written by a dead version) must be a diagnostic, not a
        # KeyError traceback.
        (tmp_path / "run" / "campaign.jsonl").write_text(
            json.dumps({"type": "campaign", "name": "x"}) + "\n"
        )
        assert main(["campaign", "status", "run"]) == 2
        assert "malformed campaign header" in capsys.readouterr().err
        assert main(["campaign", "resume", "run"]) == 2
        assert "malformed campaign header" in capsys.readouterr().err

    def test_load_run_malformed_job_records_are_skipped(self, tmp_path):
        spec = small_spec(name="glitch")
        runner.run(
            spec, jobs=1, cache=tmp_path / "cache", run_dir=tmp_path / "run"
        )
        path = tmp_path / "run" / "campaign.jsonl"
        path.write_text(
            path.read_text()
            + json.dumps({"type": "job", "status": "ok"}) + "\n"
            + json.dumps({"type": "job", "index": "NaN"}) + "\n"
        )
        state = load_run(tmp_path / "run")
        assert state.counts() == {"ok": 2}
