"""Tests for the sizing service (repro.service): HTTP API, cache, queue."""

import json
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro import runner
from repro.__main__ import main
from repro.errors import ServiceError
from repro.runner import CampaignSpec, Job, execute_job, executor
from repro.service import ServiceClient, SizingService, WorkQueue, make_server
from repro.sizing.serialize import canonical_json, comparable_payload

INLINE_BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"


class _LiveService:
    """One in-process service + HTTP server + client, torn down cleanly."""

    def __init__(self, tmp_path, jobs=1, cache="cache", run_dir="run",
                 timeout=None):
        self.service = SizingService(
            jobs=jobs,
            cache=None if cache is None else tmp_path / cache,
            run_dir=None if run_dir is None else tmp_path / run_dir,
            timeout=timeout,
        )
        self.server = make_server(self.service, quiet=True)
        host, port = self.server.server_address[:2]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.client = ServiceClient(f"http://{host}:{port}")

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


@pytest.fixture()
def live(tmp_path):
    box = _LiveService(tmp_path)
    yield box
    box.stop()


class TestSizeEndpoint:
    def test_sync_result_matches_direct_execution(self, live):
        reply = live.client.size(circuit="c17", delay_spec=0.6)
        assert reply["status"] == "ok" and not reply["cached"]
        _, payload = execute_job(Job(circuit="c17", delay_spec=0.6))
        assert reply["payload"]["result"]["x"] == payload["result"]["x"]
        assert reply["payload"]["result"]["area"] == (
            payload["result"]["area"]
        )

    def test_repeat_is_byte_identical_cache_hit(self, live):
        first = live.client.size(circuit="c17", delay_spec=0.7)
        second = live.client.size(circuit="c17", delay_spec=0.7)
        assert second["cached"] and not first["cached"]
        assert canonical_json(second["payload"]) == (
            canonical_json(first["payload"])
        )

    def test_cache_hit_skips_sizing(self, live, monkeypatch):
        live.client.size(circuit="c17", delay_spec=0.8)

        def boom(job, cache=None):
            raise AssertionError("cache hit must not re-run the job")

        monkeypatch.setattr(executor, "_execute_sizing", boom)
        reply = live.client.size(circuit="c17", delay_spec=0.8)
        assert reply["status"] == "ok" and reply["cached"]

    def test_service_cache_is_the_campaign_cache(self, live, tmp_path):
        """A service answer replays for free on the CLI campaign path."""
        live.client.size(circuit="c17", delay_spec=0.6)
        live.client.size(circuit="c17", delay_spec=0.8)
        spec = CampaignSpec(
            name="xcheck", circuits=("c17",), delay_specs=(0.6, 0.8)
        )
        result = runner.run(spec, jobs=1, cache=tmp_path / "cache")
        assert result.n_cached == len(result.outcomes) == 2

    def test_async_job_lifecycle(self, live):
        ticket = live.client.size(circuit="c17", delay_spec=0.9, wait=False)
        assert ticket["status"] in ("queued", "running")
        done = live.client.wait_for(ticket["id"], timeout=60)
        assert done["status"] == "ok"
        assert done["payload"]["result"]["area"] > 0
        assert live.client.job(ticket["id"])["status"] == "ok"

    def test_inline_bench_roundtrip_and_cache(self, live):
        first = live.client.size(bench=INLINE_BENCH, delay_spec=0.7)
        assert first["status"] == "ok" and not first["cached"]
        again = live.client.size(bench=INLINE_BENCH, delay_spec=0.7)
        assert again["cached"]
        assert again["payload"] == first["payload"]


class TestTransport:
    def test_keepalive_survives_error_with_unread_body(self, live):
        """A POST body left unread by an error path must not corrupt
        the next request on the same persistent connection."""
        import http.client

        host, port = live.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            # 405 route that never reads the body it was sent.
            conn.request(
                "POST", "/v1/circuits", body=json.dumps({"circuit": "c17"}),
                headers={"Content-Type": "application/json"},
            )
            error = conn.getresponse()
            assert error.status == 405
            error.read()
            # Same connection: must parse as a fresh request, not as
            # the stale body bytes.
            conn.request("GET", "/v1/healthz")
            follow_up = conn.getresponse()
            assert follow_up.status == 200
            assert json.loads(follow_up.read())["data"]["status"] == "ok"
        finally:
            conn.close()

    def test_timeout_is_enforced_in_a_worker_process(self):
        """jobs=1 with a timeout runs jobs on a worker process, whose
        main thread arms the SIGALRM budget: a stalled solve ends as
        ``timeout`` at about its budget, and stats report the pool."""
        from repro.faults.injector import install, uninstall

        service = SizingService(
            jobs=1, cache=None, run_dir=None, timeout=0.5
        )
        install("solver:delay=5@1", propagate=False)
        try:
            start = time.monotonic()
            record = service.size_sync({"circuit": "c17", "delay_spec": 0.6})
            elapsed = time.monotonic() - start
            kind = service.stats()["executor"]["kind"]
        finally:
            uninstall()
            service.close()
        assert record.status == "timeout", record.error
        assert "budget" in record.error
        assert elapsed < 4.5
        assert kind == "process"

    def test_ephemeral_netlist_spool_is_removed_on_close(self):
        service = SizingService(jobs=1, cache=None, run_dir=None)
        spool = service._netlist_dir
        service.size_sync({"bench": INLINE_BENCH, "delay_spec": 0.8})
        assert spool.exists()
        service.close()
        assert not spool.exists()


@pytest.mark.slow
class TestConcurrency:
    @pytest.fixture()
    def pooled(self, tmp_path):
        box = _LiveService(tmp_path, jobs=2)
        yield box
        box.stop()

    def test_concurrent_requests_match_cli_path(self, pooled):
        specs = [0.6, 0.7, 0.8, 0.9]
        with ThreadPoolExecutor(max_workers=4) as pool:
            replies = list(pool.map(
                lambda s: pooled.client.size(circuit="c17", delay_spec=s),
                specs,
            ))
        assert [r["status"] for r in replies] == ["ok"] * 4
        assert not any(r["cached"] for r in replies)
        for spec, reply in zip(specs, replies):
            _, payload = execute_job(Job(circuit="c17", delay_spec=spec))
            assert reply["payload"]["result"]["x"] == payload["result"]["x"]

        # The identical burst again: all hits, byte-identical payloads.
        with ThreadPoolExecutor(max_workers=4) as pool:
            again = list(pool.map(
                lambda s: pooled.client.size(circuit="c17", delay_spec=s),
                specs,
            ))
        assert all(r["cached"] for r in again)
        assert [canonical_json(r["payload"]) for r in again] == [
            canonical_json(r["payload"]) for r in replies
        ]


class TestRestart:
    def test_job_log_survives_restart(self, tmp_path):
        box = _LiveService(tmp_path)
        reply = box.client.size(circuit="c17", delay_spec=0.6)
        job_id = reply["id"]
        box.stop()

        reborn = _LiveService(tmp_path)
        try:
            replay = reborn.client.job(job_id)
            assert replay["status"] == "ok"
            assert replay["summary"]["area"] == reply["summary"]["area"]
            # Full payload re-served from the content-addressed cache.
            assert replay["payload"]["result"]["x"] == (
                reply["payload"]["result"]["x"]
            )
            # Id allocation continues past replayed history.
            fresh = reborn.client.size(circuit="c17", delay_spec=0.8)
            assert fresh["id"] != job_id
        finally:
            reborn.stop()

    def test_inflight_jobs_rerun_after_restart(self, tmp_path):
        """Rows a dead service left in its run-dir queue are drained by
        the next service: a ``queued`` row runs, and a ``running`` row
        is re-claimed once its lease expires (at-least-once)."""
        cache = runner.ResultCache(tmp_path / "cache")
        queued_job = Job(circuit="c17", delay_spec=0.6)
        running_job = Job(circuit="c17", delay_spec=0.8)
        queued_key, running_key = runner.campaign_keys(
            [queued_job, running_job], cache
        )
        db = tmp_path / "run" / "queue.db"
        dead = WorkQueue(db, visibility_timeout=0.2)
        running = dead.create(running_job, running_key)
        assert dead.lease("dead-replica").id == running.id
        queued = dead.create(queued_job, queued_key)
        dead.close()

        service = SizingService(jobs=1, cache=cache, run_dir=tmp_path / "run")
        try:
            settled = {}
            for record in (queued, running):
                deadline = time.monotonic() + 60.0
                while not record.done and time.monotonic() < deadline:
                    record = service.store.wait(record.id, record.status, 5.0)
                settled[record.id] = service.get_job(record.id)
        finally:
            service.close()

        for job, record in ((queued_job, queued), (running_job, running)):
            found, payload = settled[record.id]
            assert found.status == "ok" and not found.cached
            _, fresh = execute_job(job)
            assert canonical_json(comparable_payload(payload)) == (
                canonical_json(comparable_payload(fresh))
            )
        with closing(sqlite3.connect(db)) as conn:
            attempts = dict(conn.execute("SELECT id, attempts FROM jobs"))
        assert attempts == {running.id: 2, queued.id: 1}


class TestJobQueue:
    """Every request goes through the service's one job store."""

    def test_default_service_keeps_its_queue_in_the_run_dir(
        self, tmp_path, monkeypatch, capsys,
    ):
        def boom(job, cache=None):
            raise RuntimeError("sizing blew up")

        monkeypatch.setattr(executor, "_execute_sizing", boom)
        service = SizingService(jobs=1, cache=None, run_dir=tmp_path / "run")
        try:
            record = service.size_sync({"circuit": "c17", "delay_spec": 0.6})
        finally:
            service.close()
        assert record.status == "failed"
        db = tmp_path / "run" / "queue.db"
        assert main(["queue", "inspect", str(db), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [job["id"] for job in listed["failed"]] == [record.id]
        assert "sizing blew up" in listed["failed"][0]["error"]

    def test_cache_hit_is_one_finished_row(self, live, tmp_path):
        first = live.client.size(circuit="c17", delay_spec=0.65)
        hit = live.client.size(circuit="c17", delay_spec=0.65)
        assert hit["cached"] and not first["cached"]
        with closing(sqlite3.connect(tmp_path / "run" / "queue.db")) as conn:
            rows = conn.execute(
                "SELECT id, status, attempts, cached, payload FROM jobs "
                "ORDER BY seq"
            ).fetchall()
        assert [row[0] for row in rows] == [first["id"], hit["id"]]
        # Inserted finished: never leased, no payload column — the
        # payload lives in the cache it was just read from.
        assert rows[1][1:] == ("ok", 0, 1, None)
        replay = live.client.job(hit["id"])
        assert replay["cached"]
        assert canonical_json(replay["payload"]) == (
            canonical_json(first["payload"])
        )

    def test_sync_misses_wake_without_poll_ticks(self, tmp_path, monkeypatch):
        """With the cross-process poll pushed to 30 s, only in-process
        wakeups can carry a sync miss through the queue in time; a lost
        wakeup would stall its request for a whole poll interval."""
        monkeypatch.setattr("repro.runner.queue.POLL_INTERVAL", 30.0)
        # sync_wait bounds a stalled request: it degrades to "queued".
        service = SizingService(
            jobs=1, cache=None, run_dir=tmp_path / "run", sync_wait=20.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            start = time.monotonic()
            with ThreadPoolExecutor(max_workers=8) as pool:
                records = list(pool.map(
                    lambda i: service.size_sync(
                        {"circuit": "c17", "delay_spec": 0.6 + i / 50}
                    ),
                    range(8),
                ))
            elapsed = time.monotonic() - start
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert [record.status for record in records] == ["ok"] * 8
        assert elapsed < 10.0


class TestRemovedKind:
    def test_parent_wphase_row_is_quarantined(self, tmp_path, capsys):
        """A ``wphase`` row left in a queue written before that kind was
        removed parks in the dead-letter state (visible to ``queue
        inspect``), and the same drain thread goes on to finish the
        sizing job queued behind it."""
        db = tmp_path / "run" / "queue.db"
        old = WorkQueue(db)
        stale = old.create(Job(circuit="rca:4", delay_spec=0.9), None)
        with closing(sqlite3.connect(db)) as conn, conn:
            conn.execute(
                "UPDATE jobs SET job = ?, label = ? WHERE id = ?",
                (json.dumps({
                    "circuit": "rca:4", "delay_spec": 0.9, "kind": "wphase",
                    "mode": "gate", "flow_backend": "auto", "options": [],
                }), "rca:4@0.9 [wphase]", stale.id),
            )
        sizing = old.create(Job(circuit="c17", delay_spec=0.6), None)
        old.close()

        service = SizingService(jobs=1, cache=None, run_dir=tmp_path / "run")
        try:
            record = sizing
            deadline = time.monotonic() + 60.0
            while not record.done and time.monotonic() < deadline:
                record = service.store.wait(record.id, record.status, 5.0)
            assert len(service._drainers) == 1
        finally:
            service.close()
        assert record.status == "ok"
        assert main(["queue", "inspect", str(db), "--json"]) == 0
        failed = json.loads(capsys.readouterr().out)["failed"]
        assert [job["id"] for job in failed] == [stale.id]
        assert "unknown job kind 'wphase'" in failed[0]["error"]

    def test_parent_queue_with_warm_column_drains(self, tmp_path):
        """A ``queue.db`` whose rows carry the retired ``warm`` column
        opens: its finished row still reads, its queued job drains, and
        no record reports ``warm`` any more."""
        db = tmp_path / "run" / "queue.db"
        old = WorkQueue(db)
        finished = old.create(Job(circuit="rca:4", delay_spec=0.9), None)
        queued = old.create(Job(circuit="c17", delay_spec=0.6), None)
        old.close()
        with closing(sqlite3.connect(db)) as conn, conn:
            conn.execute("ALTER TABLE jobs ADD COLUMN warm TEXT")
            conn.execute(
                "UPDATE jobs SET status = 'ok', finished_at = created_at, "
                "warm = ? WHERE id = ?",
                (json.dumps({"hit": True, "seeded": True, "fallback": False}),
                 finished.id),
            )

        service = SizingService(jobs=1, cache=None, run_dir=tmp_path / "run")
        try:
            record = queued
            deadline = time.monotonic() + 60.0
            while not record.done and time.monotonic() < deadline:
                record = service.store.wait(record.id, record.status, 5.0)
            earlier = service.store.get(finished.id)
        finally:
            service.close()
        assert record.status == "ok" and earlier.status == "ok"
        assert "warm" not in record.to_wire()
        assert "warm" not in earlier.to_wire()

    def test_client_takes_no_kind(self, live):
        """The client has no ``kind=``: the service runs sizing jobs
        only.  The server still validates a request body's ``kind``
        (``TestErrors``)."""
        for call in (live.client.size, live.client.submit):
            with pytest.raises(TypeError, match="kind"):
                call(circuit="c17", delay_spec=0.6, kind="sizing")

    def test_no_batch_drain_surface(self, live, tmp_path):
        """The service drains one record per round: no ``batch_drain``
        knob, no batch series in ``/v1/metrics`` or fields in
        ``/v1/stats``."""
        with pytest.raises(TypeError, match="batch_drain"):
            SizingService(cache=None, run_dir=tmp_path / "b", batch_drain=2)
        live.client.size(circuit="c17", delay_spec=0.6)
        stats = live.client.stats()
        assert "batched_jobs" not in stats
        assert "batch_drain" not in stats["executor"]
        assert "repro_batch" not in live.client.metrics()


class TestErrors:
    @pytest.mark.parametrize("body, fragment", [
        ({}, "exactly one of"),
        ({"circuit": "c17", "bench": INLINE_BENCH}, "exactly one of"),
        ({"circuit": "c17", "delay_spec": -0.5}, "positive"),
        ({"circuit": "c17", "delay_spec": "fast"}, "positive"),
        ({"circuit": "c17", "mode": "quantum"}, "mode"),
        ({"circuit": "c17", "flow_backend": "gurobi"}, "unknown flow"),
        ({"circuit": "c17", "options": {"not_a_knob": 1}},
         "unknown MinfloOptions"),
        ({"circuit": "c17", "dela_spec": 0.5}, "unknown request field"),
        ({"circuit": "no-such-circuit"}, "cannot resolve circuit"),
        ({"bench": "y = FROB(a)\n"}, "invalid 'bench'"),
        ({"circuit": "c17", "flow_backend": "ssp"}, "unknown flow"),
        ({"circuit": "c17", "flow_backend": "ssp-legacy"}, "unknown flow"),
        ({"circuit": "c17", "flow_backend": "cplex"}, "unknown flow"),
        ({"circuit": "c17", "kind": "wphase"}, "'kind' must be one of"),
        ({"circuit": "c17", "options": {"kernel": "scalar"}},
         "unknown MinfloOptions"),
    ])
    def test_malformed_bodies_get_400(self, live, body, fragment):
        with pytest.raises(ServiceError) as err:
            live.client._request("POST", "/v1/size", body)
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_invalid_json_gets_400(self, live):
        import urllib.request

        request = urllib.request.Request(
            live.client.base_url + "/v1/size",
            data=b"{ not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        detail = json.loads(err.value.read())
        assert detail["error"]["status"] == 400
        assert "not valid JSON" in detail["error"]["message"]

    def test_unknown_job_gets_404(self, live):
        with pytest.raises(ServiceError) as err:
            live.client.job("j999999")
        assert err.value.status == 404

    def test_unknown_endpoint_gets_404(self, live):
        with pytest.raises(ServiceError) as err:
            live.client._request("GET", "/v1/frobnicate")
        assert err.value.status == 404

    def test_wrong_method_gets_405(self, live):
        with pytest.raises(ServiceError) as err:
            live.client._request("GET", "/v1/size")
        assert err.value.status == 405


class TestDiscovery:
    def test_healthz(self, live):
        assert live.client.healthz()["status"] == "ok"

    def test_circuits_lists_the_suite(self, live):
        from repro.generators.iscas import SUITE

        body = live.client.circuits()
        assert [c["name"] for c in body["circuits"]] == [
            spec.name for spec in SUITE
        ]

    def test_backends_reflect_the_registry(self, live):
        from repro.flow.duality import (
            BACKENDS,
            NETWORK_SIMPLEX_MAX_CONSTRAINTS,
        )

        body = live.client.backends()
        assert [b["name"] for b in body["backends"]] == list(BACKENDS)
        assert body["auto_network_simplex_max_constraints"] == (
            NETWORK_SIMPLEX_MAX_CONSTRAINTS
        )

    def test_stats_account_for_work(self, live):
        live.client.size(circuit="c17", delay_spec=0.6)
        live.client.size(circuit="c17", delay_spec=0.6)
        stats = live.client.stats()
        assert stats["jobs"].get("ok") == 2
        assert stats["cache_hits"] == 1 and stats["executed"] == 1
        assert stats["executor"]["kind"] == "thread"
        # D-phase work is a view over the executed job's spans: one
        # minflo.d_phase span per W/D iteration of its payload.
        assert "flow" not in stats
        payload = live.client.size(circuit="c17", delay_spec=0.6)["payload"]
        calls = [
            line for line in live.client.metrics().splitlines()
            if line.startswith(
                'repro_phase_calls_total{phase="minflo.d_phase"}'
            )
        ]
        assert [float(line.rsplit(" ", 1)[1]) for line in calls] == [
            float(len(payload["result"]["iterations"]))
        ]
