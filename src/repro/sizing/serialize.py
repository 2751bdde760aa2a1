"""JSON persistence for sizing results.

Downstream flows (placement, simulation, report diffing) need the size
assignment out of process; this module writes/reads a stable JSON
schema carrying the per-vertex sizes, the run metadata and the
iteration history.

Payloads carry an explicit integer ``schema_version``; the loader
rejects any version other than :data:`SCHEMA_VERSION`, and the campaign
result cache (:mod:`repro.runner.cache`) treats a mismatch as a cache
miss, so stale on-disk results can never masquerade as current ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.dag.circuit_dag import SizingDag
from repro.errors import SizingError
from repro.sizing.result import IterationRecord, SizingResult

__all__ = [
    "SCHEMA_VERSION",
    "VOLATILE_PAYLOAD_KEYS",
    "canonical_json",
    "comparable_payload",
    "payload_schema_version",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]

#: Version of the persisted result schema.  Bump whenever the payload
#: layout (or the meaning of a field) changes; loaders refuse other
#: versions and cached campaign results keyed on an old version simply
#: re-run.  Version 2 added the explicit ``schema_version`` field.
SCHEMA_VERSION = 2

_SCHEMA_FAMILY = "repro.sizing-result"
_SCHEMA = f"{_SCHEMA_FAMILY}/{SCHEMA_VERSION}"


def canonical_json(payload: object) -> str:
    """Canonical JSON text: sorted keys, compact separators.

    The single serialization used wherever JSON must be *comparable or
    hashable* — the content-addressed cache fingerprint
    (:func:`repro.runner.cache.job_key`) and the service's
    byte-identity guarantee (two requests with the same fingerprint
    serve the same canonical bytes) both depend on identical payloads
    producing identical text.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Keys that carry wall-clock measurements.  Everything else in a job
#: payload is a deterministic function of (netlist, technology, job
#: parameters), so two executions of the same job — serial vs
#: parallel, cold vs warm-started, replica A vs replica B — must agree
#: on the payload after these keys are stripped.
VOLATILE_PAYLOAD_KEYS = frozenset({
    # The TILOS and MINFLOTRANSIT CPU times (Table 1's columns).
    "runtime_seconds",
    # Job records around a payload (outcomes, run logs, queue rows).
    "wall_seconds",
    # Observability fields (repro.obs): trace/span identity and
    # monotonic durations are per-execution telemetry, never content.
    "trace_id",
    "span_id",
    "parent_id",
    "spans",
    "duration_s",
})


def comparable_payload(payload):
    """A payload with every wall-clock field recursively removed.

    The byte-identity assertions (the chaos suite, the service's
    cross-replica replays, warm-vs-cold parity) compare
    ``canonical_json(comparable_payload(a)) ==
    canonical_json(comparable_payload(b))``: deterministic content must
    match exactly, while timing telemetry — which legitimately differs
    between two executions of the same job — is excluded.
    """
    if isinstance(payload, dict):
        return {
            key: comparable_payload(value)
            for key, value in payload.items()
            if key not in VOLATILE_PAYLOAD_KEYS
        }
    if isinstance(payload, list):
        return [comparable_payload(value) for value in payload]
    return payload


def result_to_dict(result: SizingResult, dag: SizingDag | None = None) -> dict:
    """JSON-ready dictionary; includes vertex labels when a DAG is given."""
    payload = {
        "schema": _SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": result.name,
        "mode": result.mode,
        "x": [float(v) for v in result.x],
        "area": result.area,
        "critical_path_delay": result.critical_path_delay,
        "target": result.target,
        "converged": result.converged,
        "runtime_seconds": result.runtime_seconds,
        "initial_area": result.initial_area,
        "iterations": [
            {
                "iteration": rec.iteration,
                "area": rec.area,
                "critical_path_delay": rec.critical_path_delay,
                "predicted_gain": rec.predicted_gain,
                "alpha": rec.alpha,
                "accepted": rec.accepted,
                "backend": rec.backend,
                "repropagated_vertices": rec.repropagated_vertices,
                "cone_fraction": rec.cone_fraction,
                "w_sweeps": rec.w_sweeps,
            }
            for rec in result.iterations
        ],
    }
    if dag is not None:
        if dag.n != len(result.x):
            raise SizingError(
                f"DAG has {dag.n} vertices, result has {len(result.x)}"
            )
        payload["labels"] = dag.labels()
    return payload


def payload_schema_version(payload: dict) -> int | None:
    """Schema version of a payload, or None when unrecognizable.

    Understands both the explicit ``schema_version`` field (v2+) and
    the version suffix of the ``schema`` family string (v1 documents).
    """
    version = payload.get("schema_version")
    if isinstance(version, int):
        return version
    schema = payload.get("schema")
    if isinstance(schema, str):
        family, _, suffix = schema.rpartition("/")
        if family == _SCHEMA_FAMILY and suffix.isdigit():
            return int(suffix)
    return None


def result_from_dict(payload: dict) -> SizingResult:
    """Rebuild a :class:`SizingResult`; rejects unknown schema versions."""
    version = payload_schema_version(payload)
    if version != SCHEMA_VERSION:
        raise SizingError(
            f"unsupported sizing-result schema version {version!r} "
            f"(schema {payload.get('schema')!r}; this build reads only "
            f"version {SCHEMA_VERSION})"
        )
    return SizingResult(
        name=payload["name"],
        mode=payload["mode"],
        x=np.array(payload["x"], dtype=float),
        area=float(payload["area"]),
        critical_path_delay=float(payload["critical_path_delay"]),
        target=float(payload["target"]),
        converged=bool(payload["converged"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        initial_area=float(payload["initial_area"]),
        # Older v2 documents also carry a per-phase wall-time map and
        # a per-iteration kernel label; both are ignored.
        iterations=[
            IterationRecord(
                iteration=rec["iteration"],
                area=rec["area"],
                critical_path_delay=rec["critical_path_delay"],
                predicted_gain=rec["predicted_gain"],
                alpha=rec["alpha"],
                accepted=rec["accepted"],
                backend=rec["backend"],
                # Telemetry fields postdate schema v1 documents.
                repropagated_vertices=rec.get("repropagated_vertices", 0),
                cone_fraction=rec.get("cone_fraction", 1.0),
                w_sweeps=rec.get("w_sweeps", 0),
            )
            for rec in payload["iterations"]
        ],
    )


def save_result(
    result: SizingResult, path: str | Path, dag: SizingDag | None = None
) -> Path:
    """Write a result to ``path`` as schema-versioned JSON."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(result_to_dict(result, dag), handle, indent=1)
    return path


def load_result(path: str | Path) -> SizingResult:
    """Read a result written by :func:`save_result`."""
    with open(path) as handle:
        return result_from_dict(json.load(handle))
