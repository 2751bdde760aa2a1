"""Area-delay trade-off sweeps (the machinery behind figure 7).

For a list of delay targets (as fractions of the minimum-sized
circuit's delay), size the circuit with TILOS and with MINFLOTRANSIT
and record normalized areas.  TILOS runs are warm-started from the
previous (looser) target's solution — sizes only ever grow along the
sweep, so this matches cold-start results while saving most of the
bumps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


from repro.dag.circuit_dag import SizingDag
from repro.sizing.minflo import MinfloOptions, minflotransit
from repro.sizing.tilos import TilosOptions, tilos_size
from repro.timing.sta import GraphTimer

__all__ = ["CurvePoint", "TradeoffCurve", "area_delay_curve"]


@dataclass(frozen=True)
class CurvePoint:
    """One sweep point; areas are normalized to the min-sized circuit."""

    delay_ratio: float
    target: float
    tilos_area_ratio: float | None
    minflo_area_ratio: float | None
    tilos_seconds: float
    minflo_seconds: float
    saving_percent: float | None


@dataclass
class TradeoffCurve:
    name: str
    d_min: float
    min_area: float
    points: list[CurvePoint] = field(default_factory=list)

    def series(self, which: str) -> list[tuple[float, float]]:
        """(delay ratio, area ratio) pairs for 'tilos' or 'minflo'."""
        out = []
        for p in self.points:
            value = (
                p.tilos_area_ratio if which == "tilos" else p.minflo_area_ratio
            )
            if value is not None:
                out.append((p.delay_ratio, value))
        return out


def area_delay_curve(
    dag: SizingDag,
    delay_ratios: list[float],
    run_minflo: bool = True,
    tilos_options: TilosOptions | None = None,
    minflo_options: MinfloOptions | None = None,
) -> TradeoffCurve:
    """Sweep delay targets and size with both tools.

    Ratios are processed loosest-first so TILOS warm starts apply;
    infeasible targets produce points with ``None`` areas.
    """
    timer = GraphTimer(dag)
    x_min = dag.min_sizes()
    d_min = timer.analyze(dag.delays(x_min)).critical_path_delay
    min_area = dag.area(x_min)
    curve = TradeoffCurve(name=dag.name, d_min=d_min, min_area=min_area)

    warm = x_min
    for ratio in sorted(delay_ratios, reverse=True):
        target = ratio * d_min
        start = time.perf_counter()
        seed = tilos_size(dag, target, options=tilos_options, x0=warm)
        tilos_seconds = time.perf_counter() - start
        if not seed.feasible:
            curve.points.append(
                CurvePoint(
                    delay_ratio=ratio,
                    target=target,
                    tilos_area_ratio=None,
                    minflo_area_ratio=None,
                    tilos_seconds=tilos_seconds,
                    minflo_seconds=0.0,
                    saving_percent=None,
                )
            )
            continue
        warm = seed.x
        minflo_ratio = None
        saving = None
        minflo_seconds = 0.0
        if run_minflo:
            start = time.perf_counter()
            result = minflotransit(
                dag, target, options=minflo_options, x0=seed.x
            )
            minflo_seconds = time.perf_counter() - start
            minflo_ratio = result.area / min_area
            saving = 100.0 * (1.0 - result.area / seed.area)
        curve.points.append(
            CurvePoint(
                delay_ratio=ratio,
                target=target,
                tilos_area_ratio=seed.area / min_area,
                minflo_area_ratio=minflo_ratio,
                tilos_seconds=tilos_seconds,
                minflo_seconds=minflo_seconds,
                saving_percent=saving,
            )
        )
    curve.points.sort(key=lambda p: p.delay_ratio)
    return curve
