"""Tests for the observability layer: trace contexts and spans,
the metrics registry + Prometheus exposition, and the waterfall tool."""

import json
import multiprocessing
import re
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    observe_spans,
)
from repro.obs.trace import (
    SpanSink,
    current_carrier,
    current_trace,
    format_trace_header,
    parse_trace_header,
    span,
    trace_scope,
)
from repro.obs.waterfall import (
    build_tree,
    critical_path,
    render_waterfall,
    trace_report,
)
from repro.runner.executor import pool_entry
from repro.runner.spec import Job


class TestTraceHeader:
    def test_round_trip(self):
        assert parse_trace_header(format_trace_header("abc123")) == (
            "abc123", None,
        )
        assert parse_trace_header(
            format_trace_header("abc123", "def456")
        ) == ("abc123", "def456")
        # A trailing dash is tolerated as "no parent".
        assert parse_trace_header("abc123-") == ("abc123", None)

    @pytest.mark.parametrize("bad", [
        None, "", "   ", "-", "a b", "abc-d f", "x" * 200,
        "abc;rm -rf", "-abcdef",
    ])
    def test_malformed_headers_never_raise(self, bad):
        assert parse_trace_header(bad) == (None, None)


class TestSpans:
    def test_no_context_still_measures_duration(self):
        assert current_trace() is None
        with span("phase") as sp:
            pass
        assert sp.duration_s >= 0.0
        assert current_carrier() is None

    def test_nesting_parents_and_sink_records(self):
        sink = SpanSink()
        with trace_scope(sink=sink) as ctx:
            with span("outer", kind="test") as outer:
                with span("inner"):
                    pass
                outer.set(extra=1)
        records = sink.drain()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["trace"] == outer["trace"] == ctx.trace_id
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "test", "extra": 1}
        assert inner["duration_s"] <= outer["duration_s"]

    def test_exception_emits_error_attr_and_restores_parent(self):
        sink = SpanSink()
        with trace_scope(sink=sink) as ctx:
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("no")
            assert ctx.span_id is None  # parent restored after unwind
        (record,) = sink.drain()
        assert record["attrs"]["error"] == "ValueError"

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        sink = SpanSink(path)
        with trace_scope(sink=sink, trace_id="t1"):
            with span("a"):
                pass
        with trace_scope(sink=sink, trace_id="t2"):
            with span("b"):
                pass
        sink.close()
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [(r["trace"], r["name"]) for r in lines] == [
            ("t1", "a"), ("t2", "b"),
        ]

    def test_carrier_snapshots_the_active_parent(self):
        with trace_scope(trace_id="tid0", parent_id="p0"):
            assert current_carrier() == {
                "trace_id": "tid0", "parent_id": "p0",
            }
            with span("mid"):
                carrier = current_carrier()
                assert carrier["trace_id"] == "tid0"
                assert carrier["parent_id"] not in (None, "p0")


class TestPoolBoundary:
    """Span parentage survives the pickled process-pool boundary."""

    def test_pool_entry_ships_spans_back_with_parentage(self):
        methods = multiprocessing.get_all_start_methods()
        method = "forkserver" if "forkserver" in methods else "spawn"
        job = Job(circuit="rca:4", delay_spec=1.5)
        carrier = {"trace_id": "cafe0123cafe0123", "parent_id": "root0001"}
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context(method),
        ) as pool:
            status, _payload, error, wall, obs = pool.submit(
                pool_entry, job, None, carrier
            ).result()
        assert status == "ok", error
        spans = obs["spans"]
        assert spans, "worker shipped no spans back"
        assert {s["trace"] for s in spans} == {"cafe0123cafe0123"}
        execute = [s for s in spans if s["name"] == "job.execute"]
        assert len(execute) == 1
        # The worker-side root parents under the carrier's parent id…
        assert execute[0]["parent"] == "root0001"
        assert execute[0]["duration_s"] <= wall
        # …and every other span chains up to it within the bundle.
        ids = {s["id"] for s in spans}
        for s in spans:
            if s is not execute[0]:
                assert s["parent"] in ids

    def test_pool_entry_without_carrier_ships_nothing(self):
        job = Job(circuit="rca:4", delay_spec=1.5)
        status, _payload, _error, _wall, obs = pool_entry(job, None, None)
        assert status == "ok"
        assert obs is None


_SERIES = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9+.eE-]+(Inf)?$"
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_values(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits", "h", ("tier",))
        hits.inc(tier="l1")
        hits.inc(2.0, tier="l2")
        assert hits.value(tier="l1") == 1.0
        assert hits.total() == 3.0
        depth = reg.gauge("depth", "d")
        depth.set(7)
        depth.add(-2)
        assert depth.value() == 5.0
        lat = reg.histogram("lat", "l", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            lat.observe(v)
        snap = lat.value()
        assert snap["count"] == 3 and snap["sum"] == 5.55
        assert snap["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_counter_rejects_decrease_and_label_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "c", ("a",))
        with pytest.raises(ValueError):
            c.inc(-1.0, a="x")
        with pytest.raises(ValueError):
            c.inc(b="x")

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        first = reg.counter("n", "help", ("l",))
        assert reg.counter("n", "other help", ("l",)) is first
        with pytest.raises(ValueError):
            reg.gauge("n", "now a gauge", ("l",))
        with pytest.raises(ValueError):
            reg.counter("n", "different labels", ("other",))

    def test_exposition_is_valid_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "Jobs.", ("status",)).inc(status="ok")
        reg.gauge("depth", "Depth.").set(3)
        h = reg.histogram("secs", "Seconds.", buckets=(0.5,))
        h.observe(0.2)
        text = reg.expose()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE ")), line
            else:
                assert _SERIES.fullmatch(line), line
        # Counter naming convention + cumulative histogram series.
        assert 'jobs_total{status="ok"} 1' in text
        assert 'secs_bucket{le="0.5"} 1' in text
        assert 'secs_bucket{le="+Inf"} 1' in text
        assert "secs_count 1" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "c", ("v",))
        c.inc(v='quo"te\nnew')
        assert 'v="quo\\"te\\nnew"' in reg.expose()

    def test_locked_counters_survive_a_thread_hammer(self):
        reg = MetricsRegistry()
        c = reg.counter("hammer_total", "h", ("t",))

        def work():
            for _ in range(2000):
                c.inc(t="x")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(t="x") == 16000.0

    def test_observe_spans_folds_durations(self):
        reg = MetricsRegistry()
        observe_spans(reg, [
            {"name": "d_phase", "duration_s": 0.5},
            {"name": "d_phase", "duration_s": 0.25},
            {"name": "w_phase", "duration_s": 0.125},
        ])
        text = reg.expose()
        assert 'repro_phase_seconds_total{phase="d_phase"} 0.75' in text
        assert 'repro_phase_calls_total{phase="w_phase"} 1' in text

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


def _spans(*triples):
    return [
        {
            "type": "span", "trace": "t", "id": sid, "parent": parent,
            "name": name, "ts": float(i), "duration_s": 1.0 / (i + 1),
        }
        for i, (sid, parent, name) in enumerate(triples)
    ]


class TestWaterfall:
    def test_build_tree_and_critical_path(self):
        spans = _spans(
            ("r", None, "job"),
            ("a", "r", "fast"),
            ("b", "r", "slow"),
            ("c", "b", "leaf"),
        )
        spans[2]["duration_s"] = 0.9
        forest = build_tree(spans)
        assert len(forest) == 1
        root = forest[0]
        assert [n["span"]["id"] for n in root["children"]] == ["a", "b"]
        assert [n["span"]["name"] for n in critical_path(root)] == [
            "job", "slow", "leaf",
        ]

    def test_orphans_become_roots(self):
        forest = build_tree(_spans(("x", "missing-parent", "orphan")))
        assert len(forest) == 1
        assert forest[0]["span"]["name"] == "orphan"

    def test_render_includes_tree_and_critical_path(self):
        out = render_waterfall("t", _spans(
            ("r", None, "job"), ("a", "r", "step"),
        ))
        assert "trace t" in out
        assert "└─ step" in out
        assert "critical path:" in out

    def test_trace_report_from_file_and_by_id(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = _spans(("r", None, "job"), ("a", "r", "step"))
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        by_file = trace_report(str(path))
        assert "job" in by_file
        by_id = trace_report("t", files=(str(path),))
        assert "step" in by_id
        as_json = json.loads(trace_report("t", files=(path,), json_out=True))
        assert as_json["trace"] == "t" and as_json["n_spans"] == 2

    def test_trace_report_errors_are_structured(self, tmp_path):
        with pytest.raises(ReproError):
            trace_report(str(tmp_path / "absent.jsonl"))
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_spans(("r", None, "job"))[0]) + "\n")
        with pytest.raises(ReproError):
            trace_report("unknown-trace-id", files=(path,))


_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def _exposed_series(text: str, family: str) -> dict[tuple, float]:
    """Parse one metric family's series out of a Prometheus exposition:
    ``{sorted (label, value) pairs: sample value}``."""
    out: dict[tuple, float] = {}
    for line in text.splitlines():
        if not line.startswith(family + "{"):
            continue
        labels_part, value = line.rsplit(" ", 1)
        labels = tuple(sorted(_LABEL.findall(labels_part)))
        out[labels] = float(value)
    return out


class TestStatsMetricsConsistency:
    """``/v1/stats`` is a *view* over the same registry cells the
    ``/v1/metrics`` exposition serializes — the two endpoints can never
    disagree.  Pinned here for the per-backend flow stats and the
    warm-start corpus totals."""

    def test_flow_and_warmstart_views_match_exposition(self, tmp_path):
        from repro.runner.corpus import warmstart_counts
        from repro.service import SizingService

        before = warmstart_counts()
        service = SizingService(
            jobs=1,
            cache=tmp_path / "cache",
            run_dir=None,
            warm_corpus=f"disk:{tmp_path / 'cache'}",
        )
        try:
            # Two drifting targets: the first is a corpus miss, the
            # second probes the first's record.
            service.size_sync({"circuit": "rca:6", "delay_spec": 0.9})
            service.size_sync({"circuit": "rca:6", "delay_spec": 0.85})
            stats = service.stats()
            text = service.metrics_text()
        finally:
            service.close()

        flow = stats["flow"]
        assert flow, "sizing jobs recorded no flow stats"
        for fields in flow.values():
            # Every numeric SolveStats field is surfaced.
            assert set(fields) == {"n_nodes", "n_arcs", "wall_time_s", "solves"}
        exposed_flow = _exposed_series(text, "repro_flow_stat")
        stats_flow = {
            (("backend", backend), ("field", field_name)): float(value)
            for backend, fields in flow.items()
            for field_name, value in fields.items()
        }
        assert stats_flow == exposed_flow

        warm = stats["warmstart"]
        delta = {
            key: warm.get(key, 0) - before.get(key, 0) for key in warm
        }
        assert delta.get("miss", 0) >= 1  # first job probed an empty corpus
        assert delta.get("seeded", 0) + delta.get("fallback", 0) >= 1
        exposed_warm = _exposed_series(text, "repro_warmstart_total")
        stats_warm = {
            (("result", result),): float(count)
            for result, count in warm.items()
        }
        assert stats_warm == exposed_warm
