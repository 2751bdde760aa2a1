"""TILOS-like sensitivity-based greedy sizing (references [1], [15]).

The baseline of the paper's Table 1 and the initial solution of
MINFLOTRANSIT (section 2.4, step 1).  Starting from minimum sizes, the
most *sensitive* vertex on the critical path — the one whose unit area
increase buys the largest path-delay decrease — is bumped by a constant
factor (1.1 in the paper) until the delay target is met.

The sensitivity of bumping vertex ``v`` on the critical path accounts
for both local effects of the resize:

* ``v`` itself speeds up (its drive resistance drops), and
* the critical predecessor of ``v`` slows down (its load grows by
  ``a_pv * dx``).

Greedy and without convergence guarantees — exactly the drawback the
paper's Example 1 illustrates and the D/W iteration repairs.

Timing is incremental: a bump re-propagates arrival times only through
the cone it disturbs (see :class:`repro.timing.IncrementalTimer`).
The sensitivity scan scores the whole critical path at once and the
post-bump delay refresh is one gathered segment sum, both through the
cached array plan of :mod:`repro.sizing.kernels`.  The tests hold this
loop to an identical bump sequence against a per-candidate reference
that re-times the whole circuit after every bump
(``reference_tilos`` in ``tests/conftest.py``).
``TilosResult.timing_stats`` records how much of the circuit the
timer actually touched.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.dag.circuit_dag import SizingDag
from repro.errors import InfeasibleTimingError, SizingError
from repro.sizing.fingerprint import dag_digest
from repro.sizing.kernels import get_tilos_plan
from repro.timing.incremental import IncrementalTimer

__all__ = ["TilosOptions", "TilosResult", "require_feasible", "tilos_size"]


@dataclass(frozen=True)
class TilosOptions:
    """Knobs of the greedy sizer."""

    bump: float = 1.1
    max_iterations: int = 500_000
    #: Bump up to this many distinct critical vertices per pass (1 is
    #: the classic algorithm; larger values are an ablation knob).
    batch: int = 1

    def __post_init__(self) -> None:
        if self.bump <= 1.0:
            raise SizingError(f"bump factor must exceed 1, got {self.bump}")
        if self.batch < 1:
            raise SizingError(f"batch must be >= 1, got {self.batch}")


@dataclass
class TilosResult:
    """Outcome of the greedy TILOS baseline (the W/D loop's seed)."""

    x: np.ndarray
    area: float
    critical_path_delay: float
    target: float
    iterations: int
    feasible: bool
    runtime_seconds: float
    #: Critical path delay after every bump (diagnostic trace).
    trace: list[float] = field(default_factory=list)
    #: Timing work telemetry: ``repropagated_vertices`` (total
    #: vertices the incremental timer touched across all bumps),
    #: ``full_pass_equivalent`` (what a from-scratch pass would have
    #: touched: ``2 * n`` per bump) and their ratio ``cone_fraction``.
    #: ``updates`` counts the bumps this call timed, so a seeded run
    #: leaves out the ``warm["replayed"]`` bumps it fast-forwarded.
    timing_stats: dict = field(default_factory=dict)
    #: Vertices bumped at each iteration, recorded alongside ``trace``
    #: when ``keep_trace`` is on — the trajectory
    #: :mod:`repro.runner.trajectory` stores and :func:`tilos_size` can
    #: replay.
    bumps: list[list[int]] | None = None
    #: Replay outcome, set only when a trajectory record was offered:
    #: ``result`` ("seeded" or "fallback"), ``replayed`` (bumps
    #: fast-forwarded) and, on fallback, the ``reason``.
    warm: dict | None = None


def tilos_size(
    dag: SizingDag,
    target: float,
    options: TilosOptions | None = None,
    x0: np.ndarray | None = None,
    keep_trace: bool = False,
    warm: dict | None = None,
) -> TilosResult:
    """Size ``dag`` to meet ``target`` with the TILOS greedy heuristic.

    Returns an infeasible result (``feasible=False``) when the target
    cannot be reached — callers that require success should check or
    use :func:`require_feasible`.

    ``warm`` optionally carries a trajectory record (see
    :mod:`repro.runner.trajectory`) previously recorded for the *same*
    instance at a possibly different target.  The greedy
    bump choice depends only on the current state — the target merely
    decides where the loop stops — so a recorded trajectory can be
    fast-forwarded exactly: replay the recorded bumps up to the first
    point whose recorded delay meets the new target, using the
    identical arithmetic as the cold loop, then resume the loop from
    there.  A structural digest gate, exact option match and a bitwise
    check of the replayed critical-path delay guard the shortcut; any
    mismatch restarts cold, so the returned sizes are bitwise-identical
    to a cold run either way.
    """
    options = options or TilosOptions()
    model = dag.model
    upper = dag.upper
    plan = get_tilos_plan(dag)

    def bump(chosen: np.ndarray) -> np.ndarray:
        """Resize ``chosen`` and refresh every delay that reads them;
        returns the vertices whose delay was recomputed."""
        x[chosen] = np.minimum(x[chosen] * options.bump, upper[chosen])
        changed = np.unique(np.concatenate(
            [chosen] + [plan.dependents(int(v)) for v in chosen]
        ))
        plan.refresh_delays(model, changed, x, delays)
        return changed

    start = time.perf_counter()
    x = dag.min_sizes() if x0 is None else np.array(x0, dtype=float)
    delays = model.delays(x)
    trace: list[float] = []
    bumps: list[list[int]] = []
    iterations = 0
    warm_info: dict | None = None
    if warm is not None:
        warm_info = {"result": "fallback", "replayed": 0}
        reason = _warm_gate(warm, dag, options, x0)
        warm_bumps: list = []
        warm_trace: list = []
        j = 0
        attempted = False
        if reason is None:
            attempted = True
            warm_bumps = warm["data"]["bumps"]
            warm_trace = warm["data"]["trace"]
            # First recorded point that already meets the new target —
            # replay exactly that many bumps (the recorded run's own
            # stopping point when no recorded delay is small enough),
            # bounded by the iteration cap the cold loop would hit first.
            j = len(warm_bumps)
            for i, cp_i in enumerate(warm_trace):
                if cp_i <= target:
                    j = i
                    break
            j = min(j, options.max_iterations)
            try:
                for step in warm_bumps[:j]:
                    # The cold loop's own bump + refresh: bitwise
                    # equality by construction.
                    bump(np.asarray(step, dtype=np.int64))
            except Exception:  # noqa: BLE001 — any replay error → cold
                reason = "replay failed"
        if reason is None:
            timer = IncrementalTimer(dag, delays)
            if timer.critical_path_delay == warm_trace[j]:
                iterations = j
                if keep_trace:
                    trace = [float(cp_i) for cp_i in warm_trace[:j]]
                    bumps = [
                        [int(v) for v in step] for step in warm_bumps[:j]
                    ]
                warm_info["result"] = "seeded"
                warm_info["replayed"] = j
            else:
                reason = "replayed delay trace diverged"
        if reason is not None:
            warm_info["reason"] = reason
            if attempted:
                # Cold restart: rebuild every piece of replay-touched
                # state (the gate admits only x0=None runs, so minimum
                # sizes are the cold starting point by definition).
                x = dag.min_sizes()
                delays = model.delays(x)
                trace = []
                bumps = []
                iterations = 0
            timer = IncrementalTimer(dag, delays)
    else:
        timer = IncrementalTimer(dag, delays)

    def finish(cp: float, feasible: bool) -> TilosResult:
        # Work summary vs a full forward+backward pass per update (2n).
        full_equiv = 2 * dag.n * timer.total_updates
        return TilosResult(
            x=x,
            area=dag.area(x),
            critical_path_delay=cp,
            target=target,
            iterations=iterations,
            feasible=feasible,
            runtime_seconds=time.perf_counter() - start,
            trace=trace,
            timing_stats={
                "updates": timer.total_updates,
                "repropagated_vertices": timer.total_repropagated,
                "full_pass_equivalent": full_equiv,
                "cone_fraction": (
                    timer.total_repropagated / full_equiv
                    if full_equiv else 0.0
                ),
            },
            bumps=bumps if keep_trace else None,
            warm=warm_info,
        )

    while True:
        cp = timer.critical_path_delay
        if keep_trace:
            trace.append(cp)
        if cp <= target:
            return finish(cp, True)
        if iterations >= options.max_iterations:
            return finish(cp, False)

        path = timer.critical_path()
        sensitivities, verts = plan.score_path(dag, x, path, options.bump)
        if verts.size == 0 or sensitivities[0] <= 0:
            # No critical-path resize helps: greedy is stuck.
            return finish(cp, False)

        chosen = verts[: options.batch]
        changed = bump(chosen)
        if keep_trace:
            bumps.append([int(v) for v in chosen])
        timer.update_delays(changed, delays)
        iterations += 1


def require_feasible(result: TilosResult) -> TilosResult:
    """Raise :class:`InfeasibleTimingError` unless the target was met."""
    if not result.feasible:
        raise InfeasibleTimingError(
            f"TILOS could not reach target {result.target:.6g} "
            f"(stopped at {result.critical_path_delay:.6g} after "
            f"{result.iterations} bumps)"
        )
    return result


def _warm_gate(
    warm: object,
    dag: SizingDag,
    options: TilosOptions,
    x0: np.ndarray | None,
) -> str | None:
    """Why a warm record may NOT be replayed (None when it may).

    Replay is bitwise-equal to a cold run only when the instance
    (structural digest) and the full option vector match exactly and
    the run starts from minimum sizes — anything else falls back.
    """
    if x0 is not None:
        return "explicit x0 seed"
    if not isinstance(warm, dict):
        return "not a record"
    if warm.get("kind") != "sizing":
        return "wrong record kind"
    if warm.get("options") != asdict(options):
        return "option vector mismatch"
    data = warm.get("data")
    if not isinstance(data, dict):
        return "missing data"
    bumps, trace = data.get("bumps"), data.get("trace")
    if not isinstance(bumps, list) or not isinstance(trace, list):
        return "missing trajectory"
    if len(trace) != len(bumps) + 1:
        return "trace/bump length mismatch"
    n = dag.n
    for step in bumps:
        if not isinstance(step, list) or not step:
            return "malformed bump step"
        for v in step:
            if (not isinstance(v, int) or isinstance(v, bool)
                    or not 0 <= v < n):
                return "bump vertex out of range"
    for cp in trace:
        if not isinstance(cp, (int, float)) or isinstance(cp, bool):
            return "malformed delay trace"
    if warm.get("dag_sha") != dag_digest(dag):
        return "instance mismatch"
    return None

