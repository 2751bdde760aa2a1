"""Campaign specifications: declarative sweeps expanded into jobs.

A :class:`CampaignSpec` declares a sweep — circuits × delay-target
fractions × flow-backend/option matrix — and expands deterministically
into an ordered list of hashable :class:`Job` records.  Jobs are plain
frozen dataclasses of primitives, so they pickle across the process
pool, hash into cache keys, and round-trip through the JSONL run log.

Circuit tokens accepted everywhere in the subsystem (and by the CLI):

* a suite name from :data:`repro.generators.iscas.SUITE` (or ``c17``),
* ``rca:N`` — a NAND-style ripple-carry adder of width ``N`` (the
  scaling study's family),
* a path to an ISCAS ``.bench`` file (pruned and fanout-buffered
  exactly like the ``size`` command).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from repro.circuit.netlist import Circuit
from repro.errors import FlowError, RunnerError
from repro.flow.duality import check_backend
from repro.generators.iscas import SUITE, build_circuit
from repro.sizing.minflo import MinfloOptions

__all__ = [
    "Job",
    "CampaignSpec",
    "normalize_options",
    "resolve_circuit",
    "tier_preset",
]

_SUITE_SPECS = {spec.name: spec.delay_spec for spec in SUITE}

#: MinfloOptions fields a campaign may override (scalars only — nested
#: TilosOptions stay at their defaults so job fingerprints remain flat).
_OPTION_FIELDS = frozenset(
    f.name for f in fields(MinfloOptions) if f.name != "tilos"
)


def _check_backend(name: str) -> None:
    try:
        check_backend(name)
    except FlowError as exc:
        raise RunnerError(str(exc)) from None


def _check_stored_kind(payload: dict) -> None:
    """Refuse a stored job or spec of a retired kind.

    Records written before jobs lost their ``kind`` field carry
    ``"kind": "sizing"``, which every job is; any other kind (``phases``,
    ``wphase``) names work this build no longer runs.
    """
    kind = payload.get("kind", "sizing")
    if kind != "sizing":
        raise RunnerError(
            f"unknown job kind {kind!r}; every job is a sizing job"
        )


def normalize_options(overrides: dict | None) -> tuple[tuple[str, object], ...]:
    """Canonicalize MinfloOptions overrides into a hashable tuple.

    Keys are validated against the dataclass fields and sorted, so two
    dicts with the same content always produce the same tuple (and the
    same cache key).
    """
    if not overrides:
        return ()
    unknown = sorted(set(overrides) - _OPTION_FIELDS)
    if unknown:
        raise RunnerError(
            f"unknown MinfloOptions override(s) {unknown}; "
            f"valid: {sorted(_OPTION_FIELDS)}"
        )
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True)
class Job:
    """One unit of campaign work: size one circuit at one delay target
    with one solver configuration."""

    circuit: str
    delay_spec: float
    mode: str = "gate"
    flow_backend: str = "auto"
    #: Sorted ``(field, value)`` MinfloOptions overrides (see
    #: :func:`normalize_options`).
    options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.delay_spec:
            raise RunnerError(
                f"delay spec must be a positive fraction of Dmin, "
                f"got {self.delay_spec!r}"
            )
        _check_backend(self.flow_backend)

    def minflo_options(self) -> MinfloOptions:
        """Concrete options for this job (overrides applied)."""
        return MinfloOptions(
            flow_backend=self.flow_backend, **dict(self.options)
        )

    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        text = f"{self.circuit}@{self.delay_spec:g}"
        if self.flow_backend != "auto":
            text += f"/{self.flow_backend}"
        return text

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "circuit": self.circuit,
            "delay_spec": self.delay_spec,
            "mode": self.mode,
            "flow_backend": self.flow_backend,
            "options": [list(kv) for kv in self.options],
        }

    @staticmethod
    def from_dict(payload: dict) -> "Job":
        """Rebuild a job from its :meth:`to_dict` form."""
        _check_stored_kind(payload)
        return Job(
            circuit=payload["circuit"],
            delay_spec=float(payload["delay_spec"]),
            mode=payload.get("mode", "gate"),
            flow_backend=payload.get("flow_backend", "auto"),
            options=tuple(
                (key, value) for key, value in payload.get("options", [])
            ),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: circuits × delay specs × backends.

    ``delay_specs=()`` means "each circuit's own Table 1 delay
    specification" (only meaningful for suite circuits).  Expansion
    order is deterministic: circuits outermost, then delay specs, then
    backends — so job indices are stable across runs and resumes.
    """

    name: str
    circuits: tuple[str, ...]
    delay_specs: tuple[float, ...] = ()
    flow_backends: tuple[str, ...] = ("auto",)
    mode: str = "gate"
    options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.circuits:
            raise RunnerError("campaign needs at least one circuit")
        if not self.flow_backends:
            raise RunnerError("campaign needs at least one flow backend")
        for backend in self.flow_backends:
            _check_backend(backend)

    def _specs_for(self, circuit: str) -> tuple[float, ...]:
        if self.delay_specs:
            return self.delay_specs
        spec = _SUITE_SPECS.get(circuit)
        if spec is None:
            raise RunnerError(
                f"no default delay spec for {circuit!r}: pass explicit "
                "delay_specs for circuits outside the Table 1 suite"
            )
        return (spec,)

    def jobs(self) -> list[Job]:
        """Deterministic expansion into the campaign's job list."""
        out = []
        for circuit in self.circuits:
            for delay_spec in self._specs_for(circuit):
                for backend in self.flow_backends:
                    out.append(
                        Job(
                            circuit=circuit,
                            delay_spec=delay_spec,
                            mode=self.mode,
                            flow_backend=backend,
                            options=self.options,
                        )
                    )
        return out

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "circuits": list(self.circuits),
            "delay_specs": list(self.delay_specs),
            "flow_backends": list(self.flow_backends),
            "mode": self.mode,
            "options": [list(kv) for kv in self.options],
        }

    @staticmethod
    def from_dict(payload: dict) -> "CampaignSpec":
        """Rebuild a spec from its :meth:`to_dict` form (JSONL header)."""
        _check_stored_kind(payload)
        return CampaignSpec(
            name=payload["name"],
            circuits=tuple(payload["circuits"]),
            delay_specs=tuple(float(s) for s in payload["delay_specs"]),
            flow_backends=tuple(payload.get("flow_backends", ["auto"])),
            mode=payload.get("mode", "gate"),
            options=tuple(
                (key, value) for key, value in payload.get("options", [])
            ),
        )


def tier_preset(tier: str | None = None, flow_backend: str = "auto") -> CampaignSpec:
    """The Table 1 sweep for a benchmark tier.

    Mirrors ``REPRO_BENCH_TIER``: the ``smoke`` preset covers the small
    suite rows, ``paper`` all of them; every circuit runs at its own
    paper delay specification.
    """
    tier = tier or os.environ.get("REPRO_BENCH_TIER", "smoke")
    if tier == "paper":
        names = tuple(spec.name for spec in SUITE)
    elif tier == "smoke":
        names = tuple(spec.name for spec in SUITE if spec.tier == "smoke")
    else:
        raise RunnerError(
            f"unknown tier {tier!r} (use 'smoke' or 'paper')"
        )
    return CampaignSpec(
        name=f"table1-{tier}",
        circuits=names,
        flow_backends=(flow_backend,),
    )


def resolve_circuit(token: str) -> Circuit:
    """Build the circuit a job token names (see module docstring)."""
    if token.startswith("rca:"):
        try:
            width = int(token.split(":", 1)[1])
        except ValueError:
            raise RunnerError(
                f"bad ripple-carry token {token!r} (use 'rca:WIDTH')"
            ) from None
        if width < 1:
            raise RunnerError(f"ripple-carry width must be >= 1, got {width}")
        from repro.generators import ripple_carry_adder

        return ripple_carry_adder(width, style="nand")
    path = Path(token)
    if path.suffix == ".bench" or path.exists():
        from repro.circuit import load_bench, prune_dangling
        from repro.circuit.transform import buffer_high_fanout

        try:
            circuit = load_bench(path)
        except OSError as exc:
            raise RunnerError(f"cannot read netlist {token!r}: {exc}") from exc
        circuit = prune_dangling(circuit)
        return buffer_high_fanout(circuit, max_fanout=12)
    return build_circuit(token)
