"""JSONL run records: streaming progress and resumable campaigns.

A campaign run directory holds one append-only ``campaign.jsonl``:

* line 1 — a ``campaign`` header: the full :class:`CampaignSpec`
  (enough to re-expand the identical job list), the per-job cache keys
  and labels;
* then one ``job`` record per finished job, *in completion order*,
  carrying the job index, status, wall time, a compact result summary
  (area, delay, iterations, per-backend flow totals) and any error.

Resuming reads the log back, re-expands the spec, and re-runs the
campaign against the same cache: completed sizing jobs replay from the
content-addressed store for free, anything lost mid-flight re-runs.
Appending a fresh header on resume keeps the file self-describing even
across schema-compatible code updates (the last header wins).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import RunnerError
from repro.runner.executor import JobOutcome
from repro.runner.spec import CampaignSpec, Job

__all__ = ["RunLog", "RunState", "job_summary", "load_run"]

RUN_LOG_NAME = "campaign.jsonl"


def job_summary(outcome: JobOutcome) -> dict:
    """Compact, table-ready digest of one outcome's payload."""
    payload = outcome.payload or {}
    summary: dict = {"name": payload.get("name")}
    if payload.get("kind") == "sizing":
        seed = payload.get("seed") or {}
        summary["seed_area"] = seed.get("area")
        summary["tilos_seconds"] = seed.get("runtime_seconds")
        result = payload.get("result")
        if result is not None:
            summary.update(
                area=result["area"],
                critical_path_delay=result["critical_path_delay"],
                target=result["target"],
                iterations=len(result["iterations"]),
                minflo_seconds=result["runtime_seconds"],
            )
            if seed.get("area"):
                summary["saving_percent"] = 100.0 * (
                    1.0 - result["area"] / seed["area"]
                )
        flow = payload.get("flow_stats") or {}
        summary["flow_solves"] = sum(s["solves"] for s in flow.values())
        summary["flow_wall_s"] = sum(s["wall_time_s"] for s in flow.values())
    elif payload.get("kind") == "phases":
        for key in (
            "width",
            "n_vertices",
            "sta_seconds",
            "balance_seconds",
            "w_phase_seconds",
            "d_phase_seconds",
        ):
            summary[key] = payload.get(key)
    return summary


class RunLog:
    """Append-only JSONL writer for one campaign run directory."""

    def __init__(self, run_dir: str | Path, append: bool = False):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / RUN_LOG_NAME
        if not append and self.path.exists():
            self.path.unlink()

    def _append(self, record: dict) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()

    def write_header(
        self, spec: CampaignSpec, jobs: list[Job], keys: list[str | None]
    ) -> None:
        """Write the campaign header record (spec, labels, cache keys)."""
        self._append({
            "type": "campaign",
            "name": spec.name,
            "spec": spec.to_dict(),
            "n_jobs": len(jobs),
            "labels": [job.label() for job in jobs],
            "keys": keys,
            "written_at": time.time(),
        })

    def record(self, outcome: JobOutcome) -> None:
        """Stream one finished job (called in completion order)."""
        record = {
            "type": "job",
            "index": outcome.index,
            "label": outcome.job.label(),
            "key": outcome.key,
            "status": outcome.status,
            "cached": outcome.cached,
            "wall_seconds": outcome.wall_seconds,
            "duration_s": outcome.duration_s,
            "summary": job_summary(outcome),
            "error": outcome.error,
        }
        if outcome.trace_id is not None:
            record["trace_id"] = outcome.trace_id
        warm = outcome.warm_summary()
        if warm is not None:
            record["warm"] = warm
        self._append(record)


@dataclass
class RunState:
    """Parsed view of a run log: the spec plus per-job latest records."""

    header: dict
    #: Latest record per job index (a resumed run overwrites earlier
    #: records for the same index).
    records: dict[int, dict] = field(default_factory=dict)

    @property
    def spec(self) -> CampaignSpec:
        """The campaign spec re-expanded from the header record."""
        return CampaignSpec.from_dict(self.header["spec"])

    @property
    def n_jobs(self) -> int:
        """Total jobs the campaign expands to (finished or not)."""
        return int(self.header["n_jobs"])

    def counts(self) -> dict[str, int]:
        """Status tally including ``pending`` for unfinished jobs."""
        out: dict[str, int] = {}
        for record in self.records.values():
            out[record["status"]] = out.get(record["status"], 0) + 1
        pending = self.n_jobs - len(self.records)
        if pending:
            out["pending"] = pending
        return out


def _check_header(header: dict, path: Path) -> dict:
    """Validate a campaign header record; RunnerError on malformed logs.

    Every field the status/resume paths dereference later is checked
    here, so a truncated or hand-edited header becomes one clean
    diagnostic (CLI exit 2) instead of a KeyError traceback deep in
    :func:`repro.runner.report.status_dict`.
    """
    spec = header.get("spec")
    n_jobs = header.get("n_jobs")
    labels = header.get("labels")
    if (
        not isinstance(spec, dict)
        or not isinstance(n_jobs, int)
        or not isinstance(labels, list)
        or len(labels) != n_jobs
    ):
        raise RunnerError(
            f"{path} has a malformed campaign header (expected spec, "
            f"n_jobs and one label per job); delete the run directory "
            f"or restore the log to continue"
        )
    return header


def load_run(run_dir: str | Path) -> RunState:
    """Read a run directory's JSONL back into a :class:`RunState`."""
    path = Path(run_dir) / RUN_LOG_NAME
    if not path.is_file():
        raise RunnerError(f"no campaign log at {path}")
    header: dict | None = None
    records: dict[int, dict] = {}
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line from an interrupted run
                if record.get("type") == "campaign":
                    header = record
                elif record.get("type") == "job":
                    try:
                        records[int(record["index"])] = record
                    except (KeyError, TypeError, ValueError):
                        continue  # malformed job record: skip, don't crash
    except OSError as exc:
        raise RunnerError(f"cannot read campaign log {path}: {exc}") from exc
    if header is None:
        raise RunnerError(f"{path} has no campaign header record")
    return RunState(header=_check_header(header, path), records=records)
