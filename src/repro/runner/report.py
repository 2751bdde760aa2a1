"""Human-readable (and JSON) views of campaign runs.

``format_campaign`` renders a finished :class:`CampaignResult` as the
usual monospace table; ``format_status``/``status_dict`` summarize a
run directory's JSONL for the ``campaign status`` CLI — including a
campaign still in flight (pending jobs show as such).
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.runner.executor import CampaignResult
from repro.runner.progress import RunState, job_summary

__all__ = [
    "format_campaign",
    "format_status",
    "status_dict",
    "campaign_to_dict",
]


def _fmt(value, spec: str = ".2f", missing: str = "--") -> str:
    if value is None:
        return missing
    return format(value, spec)


def format_campaign(result: CampaignResult) -> str:
    """One row per job: status, provenance, headline numbers."""
    rows = []
    for outcome in result.outcomes:
        summary = job_summary(outcome)
        rows.append([
            outcome.job.label(),
            outcome.status,
            "hit" if outcome.cached else "run",
            f"{outcome.wall_seconds:.2f}s",
            _fmt(summary.get("area"), ".1f"),
            _fmt(summary.get("saving_percent"), ".1f"),
            _fmt(summary.get("iterations"), "d"),
        ])
    counts = ", ".join(
        f"{status}: {n}" for status, n in sorted(result.counts().items())
    )
    table = format_table(
        ["job", "status", "cache", "wall", "area", "saving%", "iters"],
        rows,
        title=f"campaign {result.name} — {counts}, "
              f"{result.n_cached}/{len(result.outcomes)} cached",
    )
    failures = [
        f"{o.job.label()}: {o.error.splitlines()[0]}"
        for o in result.outcomes
        if o.error
    ]
    if failures:
        table += "\n\nfailures:\n" + "\n".join(f"  {f}" for f in failures)
    return table


def campaign_to_dict(result: CampaignResult) -> dict:
    """JSON-ready digest of a finished campaign (no size vectors)."""
    return {
        "name": result.name,
        "n_jobs": len(result.outcomes),
        "n_cached": result.n_cached,
        "counts": result.counts(),
        "jobs": [
            {
                "index": o.index,
                "label": o.job.label(),
                "status": o.status,
                "cached": o.cached,
                "wall_seconds": o.wall_seconds,
                "summary": job_summary(o),
                "error": o.error,
            }
            for o in result.outcomes
        ],
    }


def status_dict(state: RunState) -> dict:
    """JSON-ready status of a run directory (possibly mid-flight)."""
    counts = state.counts()
    return {
        "name": state.header.get("name"),
        "n_jobs": state.n_jobs,
        "counts": counts,
        "done": state.n_jobs - counts.get("pending", 0),
        "cached": sum(
            1 for record in state.records.values() if record.get("cached")
        ),
        "wall_seconds": sum(
            record.get("wall_seconds", 0.0)
            for record in state.records.values()
        ),
        "jobs": [
            state.records.get(index)
            or {"index": index, "status": "pending",
                "label": state.header["labels"][index]}
            for index in range(state.n_jobs)
        ],
    }


def format_status(state: RunState) -> str:
    """Monospace status table for one run directory."""
    info = status_dict(state)
    rows = []
    for record in info["jobs"]:
        summary = record.get("summary") or {}
        rows.append([
            record.get("label", str(record["index"])),
            record["status"],
            "hit" if record.get("cached") else "--",
            _fmt(record.get("wall_seconds"), ".2f"),
            _fmt(summary.get("area"), ".1f"),
            _fmt(summary.get("saving_percent"), ".1f"),
        ])
    counts = ", ".join(f"{k}: {n}" for k, n in sorted(info["counts"].items()))
    return format_table(
        ["job", "status", "cache", "wall s", "area", "saving%"],
        rows,
        title=f"campaign {info['name']} — {info['done']}/{info['n_jobs']} "
              f"done ({counts})",
    )
