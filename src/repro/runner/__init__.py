"""Parallel sizing-campaign subsystem.

The paper's evidence is a sweep — many circuits × delay targets ×
solver configurations.  This package turns such sweeps into declarative
campaigns that run on a process pool, replay from a content-addressed
result cache, and resume after interruption:

* :mod:`repro.runner.spec` — :class:`CampaignSpec` → hashable
  :class:`Job` expansion (tier presets mirror ``REPRO_BENCH_TIER``);
* :mod:`repro.runner.cache` — on-disk store keyed on netlist + tech +
  options + schema versions;
* :mod:`repro.runner.executor` — pool execution with per-job timeout,
  failure isolation and deterministic result ordering;
* :mod:`repro.runner.progress` / :mod:`repro.runner.report` — JSONL
  run records, resume, status rendering.

The experiment harnesses (`repro.experiments.table1` / `figure7` /
`scaling`) and the ``python -m repro campaign`` CLI all run on top of
:func:`run` / :func:`resume` below.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import RunnerError
from repro.runner.backends import (
    CacheBackend,
    DiskBackend,
    SqliteBackend,
    TieredBackend,
    open_backend,
)
from repro.runner.cache import ResultCache, job_key
from repro.runner.executor import (
    CampaignResult,
    JobOutcome,
    campaign_keys,
    execute_job,
    pool_entry,
    probe_cache,
    run_campaign,
    run_one,
    store_outcome,
)
from repro.runner.progress import RunLog, RunState, load_run
from repro.runner.report import (
    campaign_to_dict,
    format_campaign,
    format_status,
    status_dict,
)
from repro.runner.spec import (
    CampaignSpec,
    Job,
    normalize_options,
    resolve_circuit,
    tier_preset,
)

__all__ = [
    "CacheBackend",
    "CampaignResult",
    "CampaignSpec",
    "DiskBackend",
    "Job",
    "JobOutcome",
    "ResultCache",
    "RunLog",
    "RunState",
    "SqliteBackend",
    "TieredBackend",
    "campaign_keys",
    "campaign_to_dict",
    "execute_job",
    "format_campaign",
    "format_status",
    "job_key",
    "load_run",
    "normalize_options",
    "open_backend",
    "pool_entry",
    "probe_cache",
    "resolve_circuit",
    "resume",
    "run",
    "run_campaign",
    "run_one",
    "status_dict",
    "store_outcome",
    "tier_preset",
]

#: Default cache directory (relative to the working directory) shared
#: by every campaign unless ``--cache-dir`` overrides it.
DEFAULT_CACHE_DIR = ".repro-cache"


def run(
    spec: CampaignSpec,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = DEFAULT_CACHE_DIR,
    run_dir: str | Path | None = None,
    timeout: float | None = None,
    append_log: bool = False,
    trace: bool = True,
    warm_corpus: str | None = None,
) -> CampaignResult:
    """Run a campaign end to end: cache probe, pool, JSONL streaming.

    ``cache`` may be a :class:`ResultCache`, a directory path, or None
    to disable caching entirely; ``run_dir`` (optional) receives the
    ``campaign.jsonl`` run log that makes the campaign resumable plus
    (with ``trace=True``) a ``trace.jsonl`` of per-job span trees
    readable by ``python -m repro trace``; ``warm_corpus`` (a cache
    backend spec string) turns on corpus warm starts — cache misses
    probe prior solutions for a seed, with a divergence monitor
    guaranteeing results bitwise identical to a cold run (see
    :mod:`repro.runner.corpus`).
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    job_list = spec.jobs()
    keys = campaign_keys(job_list, cache)
    log = None
    trace_sink = None
    if run_dir is not None:
        log = RunLog(run_dir, append=append_log)
        log.write_header(spec, job_list, keys)
        if trace:
            from repro.obs.trace import SpanSink

            trace_sink = SpanSink(Path(run_dir) / "trace.jsonl")
    try:
        return run_campaign(
            spec,
            jobs=jobs,
            cache=cache,
            timeout=timeout,
            on_outcome=log.record if log is not None else None,
            keys=keys,
            trace_sink=trace_sink,
            warm_corpus=warm_corpus,
        )
    finally:
        if trace_sink is not None:
            trace_sink.close()


def resume(
    run_dir: str | Path,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = DEFAULT_CACHE_DIR,
    timeout: float | None = None,
    warm_corpus: str | None = None,
) -> CampaignResult:
    """Resume an interrupted campaign from its run directory.

    Re-expands the spec recorded in the JSONL header and re-runs the
    campaign against the same cache: jobs that completed before the
    interruption replay from the store for free (their results are
    byte-identical by construction), the rest execute normally, and the
    log is appended to — never truncated.
    """
    state = load_run(run_dir)
    try:
        spec = state.spec
    except (KeyError, TypeError) as exc:
        raise RunnerError(
            f"run log in {run_dir} has no usable campaign spec: {exc}"
        ) from exc
    return run(
        spec,
        jobs=jobs,
        cache=cache,
        run_dir=run_dir,
        timeout=timeout,
        append_log=True,
        warm_corpus=warm_corpus,
    )
