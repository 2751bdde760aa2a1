"""Driver of the sizing-sweep workload (see ``sweep_worker.py``)."""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import ledger
from common import BENCH, OWN_MODULES, PYTHON, SETUP_SAMPLES, Child, Outcome, percentile
from workloads import sweep_jobs

WORKER = BENCH / "sweep_worker.py"

#: The work counters that must repeat exactly across two sweeps of one
#: seed.
EXACT_COUNTERS = (
    "flow.solves", "flow.lp_rows", "tilos.bumps", "minflo.iterations",
    "wphase.sweeps", "cache.puts",
)


def _worker(work: Path, name: str, *extra: str, importtime: bool = False) -> Child:
    out = work / name
    out.mkdir()
    argv = [PYTHON]
    if importtime:
        argv += ["-X", "importtime"]
    argv += [str(WORKER), str(work / "jobs.json"), str(out), *extra]
    return Child(argv, work / f"{name}.stderr")


def _campaign(work: Path, name: str, deadline: float, *extra: str,
              importtime: bool = False) -> tuple[dict, float, float]:
    """Run one campaign worker; returns its results, set-up time and
    peak RSS."""
    child = _worker(work, name, *extra, importtime=importtime)
    if child.readline(60) != "ready":
        raise RuntimeError(f"{name}: unexpected readiness line")
    setup = time.perf_counter() - child.started
    code, rss = child.reap(max(1.0, deadline - time.monotonic()))
    if code != 0:
        raise RuntimeError(f"{name} exited with {code}; see {child.stderr_path}")
    return json.loads((work / name / "result.json").read_text()), setup, rss


def _check(outcome: Outcome, sweeps: list[dict], reference: dict) -> None:
    """Output checks of every job and replay; ``reference`` maps each
    job to the comparable-payload digest all runs must reproduce."""
    for sweep in sweeps:
        cold = {}
        for job in sweep["outcomes"]:
            label = f"{job['circuit']}@{job['delay_spec']:g}"
            cold[label] = job["payload"]
            expected = reference.setdefault(label, job["comparable"])
            problem = None
            if job["status"] != "ok" or job["cached"] or job["area"] is None:
                problem = f"{label}: status {job['status']}, cached {job['cached']}"
            elif job["delay"] > job["target"] * (1 + 1e-9):
                problem = f"{label}: delay {job['delay']:.6g} > target {job['target']:.6g}"
            elif job["area"] > job["tilos_area"]:
                problem = f"{label}: MINFLO area above TILOS area"
            elif job["comparable"] != expected:
                problem = f"{label}: payload differs from another run of this seed"
            outcome.record(problem)
        for replay in sweep["replays"]:
            label = f"{replay['circuit']}@{replay['delay_spec']:g}"
            problem = None
            if not replay["cached"]:
                problem = f"replay {label}: not served from the cache"
            elif replay["payload"] != cold.get(label):
                problem = f"replay {label}: payload bytes differ from the first reply"
            outcome.record(problem)


def _op_seconds(sweep: dict) -> float:
    return sum(sweep["campaign_walls"]) + sum(r["wall_s"] for r in sweep["replays"])


def measure(seed: int, seconds: float, work: Path, deadline: float) -> Outcome:
    """The untraced run: every end-to-end metric."""
    outcome = Outcome()
    jobs = sweep_jobs(seed)
    (work / "jobs.json").write_text(json.dumps(jobs))
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        child = _worker(work, f"setup-{index}", "--setup-only")
        ready = child.readline(60) == "ready"
        setups.append(time.perf_counter() - child.started)
        code, _ = child.reap(30)
        outcome.record(None if ready and code == 0 else f"set-up run {index} failed")
    result, setup, rss = _campaign(work, "main", deadline, "--seconds", str(seconds))
    setups.append(setup)
    sweeps = result["sweeps"]
    _check(outcome, sweeps, {})

    misses = [job["wall_s"] * 1e3 for s in sweeps for job in s["outcomes"]]
    hits = [r["wall_s"] * 1e3 for s in sweeps for r in s["replays"]]
    first = sweeps[0]["outcomes"]
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": (
            sum(len(s["outcomes"]) for s in sweeps)
            / sum(sum(s["campaign_walls"]) for s in sweeps)
        ),
        "area_saving_pct": statistics.fmean(
            100.0 * (1.0 - job["area"] / job["tilos_area"])
            for job in first if job["area"] is not None
        ),
        "hit_p50_ms": percentile(hits, 50),
        "hit_p95_ms": percentile(hits, 95),
        "miss_p50_ms": percentile(misses, 50),
        "miss_p90_ms": percentile(misses, 90),
        "peak_rss_mb": rss,
    }
    outcome.notes.append(
        f"{len(sweeps)} sweep(s) of {len(jobs)} jobs, "
        f"{len(hits)} cache-hit replays"
    )
    return outcome


def trace(seed: int, seconds: float, work: Path, deadline: float) -> Outcome:
    """The traced run: one untraced sweep for reference, then two traced
    sweeps in one ``-X importtime`` process; per-layer metrics come from
    the first traced sweep, the second checks the exact counters."""
    outcome = Outcome()
    jobs = sweep_jobs(seed)
    (work / "jobs.json").write_text(json.dumps(jobs))
    plain, _, _ = _campaign(work, "untraced", deadline, "--sweeps", "1")
    started = time.process_time(), time.perf_counter()
    traced, _, _ = _campaign(
        work, "traced", deadline, "--sweeps", "2",
        "--ledger", str(work / "ledger.json"), importtime=True,
    )
    cpu_share = (time.process_time() - started[0]) / (time.perf_counter() - started[1])
    reference: dict = {}
    _check(outcome, plain["sweeps"], reference)
    _check(outcome, traced["sweeps"], reference)

    phases = json.loads((work / "ledger.json").read_text())
    first, second = (ledger.layer_metrics(phases.get(p, {})) for p in ("rep1", "rep2"))
    for name in EXACT_COUNTERS:
        outcome.record(
            None if first.get(name) == second.get(name)
            else f"counter {name} differs across two sweeps: "
                 f"{first.get(name)} vs {second.get(name)}"
        )
    wall = _op_seconds(traced["sweeps"][0])
    metrics = dict(first)
    metrics.update(ledger.import_ledger(
        (work / "traced.stderr").read_text(), OWN_MODULES
    ))
    metrics.update({
        "http.residual_ms": 0.0,
        "http.refused": 0,
        "client.retries": 0,
        "loadgen.cpu_share": cpu_share,
        "ledger.unattributed_share": (
            1.0 - ledger.attributed_seconds(phases.get("rep1", {})) / wall
        ),
        "ledger.trace_overhead": wall / _op_seconds(plain["sweeps"][0]),
    })
    outcome.metrics = metrics
    outcome.notes.append(
        f"traced sweep {wall:.2f}s vs untraced {_op_seconds(plain['sweeps'][0]):.2f}s; "
        f"flow solves by backend: scipy {first['flow.solves.scipy']}, "
        f"ssp {first['flow.solves.ssp']} of {first['flow.solves']}"
    )
    return outcome
