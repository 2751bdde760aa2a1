"""MINFLOTRANSIT: the alternating D/W iteration (paper section 2.4).

    1. Size the circuit to meet the delay target with TILOS.
    2. Alternate the D-phase (min-cost-flow delay-budget redistribution)
       and the W-phase (SMP minimal sizing for those budgets).
    3. Stop when the area improvement after a W-phase is negligible.

The per-vertex delay-change window ``[MIN_ΔD, MAX_ΔD]`` implements the
ε-ball of the paper's Theorem 3 as a trust region: ``±α`` times the
current loading delay, with ``α`` halved whenever a step fails (upper
size bound clamping made the budgets unreachable, or the area went up)
and cautiously re-expanded after successes.  Every accepted iterate is
verified safe (``CP <= target``), so the final answer always meets
timing whenever the TILOS seed does.

**Incremental timing** exploits how little each W/D round actually
changes (exactly — it never alters the iterates): one
:class:`repro.timing.IncrementalTimer` lives across the whole
alternation; each round feeds it only the vertices whose delay moved,
so the per-iteration timing cost scales with the perturbed cone
instead of |E|.  Its reports drive both the delay balancing and the
safety check.

Within each iteration the W-phase runs on the level-blocked kernel of
:mod:`repro.sizing.kernels`.  The tests hold it to a per-vertex
reference loop: the same sweep count and clamped set, with sizes
within 1e-10 (the two sum row dot products in different orders, so
they agree to ulps, not bitwise).

Per-iteration telemetry (cone size, D-phase solver, SMP sweep counts)
lands in each
:class:`~repro.sizing.result.IterationRecord`; cumulative per-phase
wall times land in :attr:`~repro.sizing.result.SizingResult.phase_seconds`,
measured by the :func:`repro.obs.trace.span` context managers around
each phase — when the caller runs inside a trace scope, the same
measurements double as ``minflo.*`` spans in ``trace.jsonl``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.balancing.fsdu import balance
from repro.dag.circuit_dag import SizingDag
from repro.errors import InfeasibleTimingError, SizingError
from repro.flow.duality import check_backend
from repro.obs.trace import span
from repro.sizing.dphase import d_phase
from repro.sizing.result import IterationRecord, SizingResult
from repro.sizing.tilos import TilosOptions, tilos_size
from repro.sizing.wphase import w_phase
from repro.timing.incremental import IncrementalTimer
from repro.timing.sta import GraphTimer

__all__ = ["MinfloOptions", "minflotransit"]


def _sync(inc: IncrementalTimer, delays: np.ndarray) -> int:
    """Bring the incremental engine to ``delays``; returns updates done.

    No-op (and no update counted) when nothing changed, which happens
    whenever a rejected iteration left the sizes untouched.  The work
    performed (including the lazy required-time flush the next report
    triggers) lands in the engine's cumulative counters.
    """
    changed = np.flatnonzero(delays != inc.delay)
    if changed.size == 0:
        return 0
    inc.update_delays(changed, delays)
    return 1


@dataclass(frozen=True)
class MinfloOptions:
    """Knobs of the MINFLOTRANSIT iteration."""

    #: Initial trust-region fraction of the loading delay.
    alpha: float = 0.25
    alpha_min: float = 1e-3
    alpha_max: float = 0.5
    alpha_shrink: float = 0.5
    alpha_grow: float = 1.2
    #: Convergence: relative area improvement below this for
    #: ``patience`` consecutive accepted iterations stops the loop.
    area_tolerance: float = 1e-4
    patience: int = 2
    max_iterations: int = 60
    #: Delay-balancing configuration fed to the D-phase.
    balancing: str = "asap"
    #: D-phase LP solver, one of
    #: :data:`repro.flow.duality.BACKEND_CHOICES`: "networkx" (network
    #: simplex), "scipy" (HiGHS) or "auto" (picks by LP size).
    flow_backend: str = "auto"
    tilos: TilosOptions = TilosOptions()
    #: Warm-start corpus to probe for the TILOS seed: a cache backend
    #: spec (``disk:…`` / ``sqlite:…`` / ``tiered:…``) or directory
    #: path (see :mod:`repro.runner.corpus`).  Execution strategy, not
    #: result identity — it never enters cache keys, and seeded runs
    #: return bitwise-identical sizes to cold ones.
    warm_corpus: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= self.alpha_max:
            raise SizingError(
                f"alpha must lie in (0, {self.alpha_max}], got {self.alpha}"
            )
        if self.max_iterations < 1:
            raise SizingError("max_iterations must be positive")
        check_backend(self.flow_backend)


def minflotransit(
    dag: SizingDag,
    target: float,
    options: MinfloOptions | None = None,
    x0: np.ndarray | None = None,
    warm: dict | None = None,
) -> SizingResult:
    """Size ``dag`` to meet ``target`` with minimum area.

    ``x0`` overrides the TILOS seed (it must already meet the target).
    Raises :class:`InfeasibleTimingError` when no feasible start exists.

    ``warm`` optionally carries a corpus record for the TILOS seed
    (forwarded to :func:`~repro.sizing.tilos.tilos_size`, which owns
    the divergence-safe replay); when it is absent but
    ``options.warm_corpus`` names a corpus, the record is retrieved
    here.  Either way the seed — and therefore the W/D iteration and
    the final sizes — is bitwise-identical to a cold run.
    """
    options = options or MinfloOptions()
    timer = GraphTimer(dag)
    start = time.perf_counter()

    if x0 is None:
        if warm is None and options.warm_corpus is not None:
            # Imported lazily: runner.spec imports this module at load
            # time, and the corpus lives on the runner side.
            from repro.runner.corpus import WarmSession
            from repro.tech import default_technology

            session = WarmSession.open(options.warm_corpus)
            if session is not None:
                with span("warmstart.probe", circuit=dag.name) as probe:
                    warm = session.probe_sizing(
                        dag=dag,
                        tech=default_technology(),
                        mode=dag.mode,
                        options=options.tilos,
                        delay_spec=None,
                        target=target,
                    )
                    probe.set(hit=warm is not None)
        seed = tilos_size(dag, target, options.tilos, warm=warm)
        if not seed.feasible:
            raise InfeasibleTimingError(
                f"target {target:.6g} unreachable: TILOS stalled at "
                f"{seed.critical_path_delay:.6g}"
            )
        x = seed.x
    else:
        x = np.array(x0, dtype=float)
        report = timer.analyze(dag.delays(x), horizon=target)
        if report.critical_path_delay > target * (1 + 1e-9):
            raise InfeasibleTimingError(
                f"provided start misses the target: "
                f"{report.critical_path_delay:.6g} > {target:.6g}"
            )

    initial_area = dag.area(x)
    best_x = x.copy()
    best_area = initial_area
    alpha = options.alpha
    records: list[IterationRecord] = []
    stall_count = 0
    converged = False

    # One incremental engine across the whole alternation: each round
    # feeds it only the delay diff (W-phase cone, or the revert diff
    # after a rejected step), never a full re-analysis.
    inc = IncrementalTimer(dag, dag.model.delays(x))
    phase_seconds = {
        "timing": 0.0, "balance": 0.0, "d_phase": 0.0, "w_phase": 0.0,
    }

    for iteration in range(1, options.max_iterations + 1):
        # Each phase runs inside an obs span; ``phase_seconds`` is a
        # view over those span durations, so the run report and a
        # ``trace.jsonl`` waterfall can never disagree.
        with span("minflo.timing", iteration=iteration) as timing_span:
            delays = dag.model.delays(x)
            base_work = inc.total_repropagated
            timing_updates = _sync(inc, delays)
            report = inc.report(horizon=target)
        phase_seconds["timing"] += timing_span.duration_s

        with span("minflo.balance", iteration=iteration) as balance_span:
            config = balance(
                dag,
                delays,
                horizon=target,
                method=options.balancing,
                timer=timer,
                report=report,
            )
        phase_seconds["balance"] += balance_span.duration_s
        load_delay = delays - dag.model.intrinsic
        max_dd = alpha * load_delay
        min_dd = -alpha * load_delay

        with span("minflo.d_phase", iteration=iteration) as d_span:
            dres = d_phase(
                dag,
                x,
                config,
                min_dd,
                max_dd,
                backend=options.flow_backend,
            )
            d_span.set(backend=dres.backend)
        phase_seconds["d_phase"] += d_span.duration_s
        budgets = delays + dres.delta_d

        with span("minflo.w_phase", iteration=iteration) as w_span:
            wres = w_phase(dag, budgets)
            w_span.set(sweeps=int(wres.sweeps))
        phase_seconds["w_phase"] += w_span.duration_s

        with span("minflo.timing", iteration=iteration) as resync_span:
            timing_updates += _sync(inc, dag.model.delays(wres.x))
            report = inc.report(horizon=target)
        phase_seconds["timing"] += resync_span.duration_s
        repropagated = inc.total_repropagated - base_work

        area = dag.area(wres.x)
        timing_ok = report.critical_path_delay <= target * (1 + 1e-9)
        improved = area < best_area * (1 - 1e-12)
        accepted = timing_ok and improved

        records.append(
            IterationRecord(
                iteration=iteration,
                area=area,
                critical_path_delay=report.critical_path_delay,
                predicted_gain=dres.predicted_gain,
                alpha=alpha,
                accepted=accepted,
                backend=dres.backend,
                repropagated_vertices=repropagated,
                cone_fraction=(
                    repropagated / (2.0 * dag.n * timing_updates)
                    if timing_updates
                    else 0.0
                ),
                w_sweeps=wres.sweeps,
                kernel="vectorized",
            )
        )

        if accepted:
            gain = (best_area - area) / best_area
            x = wres.x
            best_x, best_area = wres.x.copy(), area
            if gain < options.area_tolerance:
                stall_count += 1
                if stall_count >= options.patience:
                    converged = True
                    break
            else:
                stall_count = 0
            alpha = min(alpha * options.alpha_grow, options.alpha_max)
        else:
            alpha *= options.alpha_shrink
            stall_count += 1
            if alpha < options.alpha_min or stall_count >= 2 * options.patience:
                converged = True
                break

    _sync(inc, dag.model.delays(best_x))
    final_report = inc.report(horizon=target)
    return SizingResult(
        name=dag.name,
        mode=dag.mode,
        x=best_x,
        area=best_area,
        critical_path_delay=final_report.critical_path_delay,
        target=target,
        converged=converged,
        runtime_seconds=time.perf_counter() - start,
        initial_area=initial_area,
        iterations=records,
        phase_seconds=phase_seconds,
    )
