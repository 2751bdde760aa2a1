"""Runtime-scaling study (the paper's "near linear" claim, section 1).

Times one STA pass, one delay balancing, one W-phase and one D-phase on
ripple-carry adders of doubling width, then fits a log-log slope per
phase.  The paper reports that in practice both phases grow near
linearly with circuit size ("comparable to TILOS"); slopes close to 1.0
reproduce that claim on this implementation.

Each width is measured in this process, one after the other: the
timings are wall-clock numbers, so they are never cached, and
concurrent workers would contend for cores and contaminate each
other's measurements.

Run:  python -m repro.experiments.scaling [--widths 8,16,32,64]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.balancing import balance
from repro.dag import build_sizing_dag
from repro.generators import ripple_carry_adder
from repro.sizing import d_phase, tilos_size, w_phase
from repro.tech import default_technology
from repro.timing import GraphTimer

__all__ = [
    "ScalingPoint",
    "measure_phases",
    "run_scaling",
    "fit_slopes",
    "format_scaling",
]

DEFAULT_WIDTHS = [8, 16, 32, 64]


@dataclass(frozen=True)
class ScalingPoint:
    width: int
    n_vertices: int
    n_edges: int
    sta_seconds: float
    balance_seconds: float
    w_phase_seconds: float
    d_phase_seconds: float


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_phases(width: int, spec: float = 0.6) -> ScalingPoint:
    """Time one STA / balance / W-phase / D-phase pass on ``rca:width``."""
    circuit = ripple_carry_adder(width, style="nand")
    dag = build_sizing_dag(circuit, default_technology(), mode="gate")
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    target = spec * d_min
    seed = tilos_size(dag, target)
    x = seed.x if seed.feasible else dag.min_sizes() * 2
    delays = dag.delays(x)
    horizon = max(target, timer.analyze(delays).critical_path_delay)
    config = balance(dag, delays, horizon=horizon, timer=timer)
    load = delays - dag.model.intrinsic
    budgets = delays * 1.01

    # Warm up the LP backend once so one-time solver setup does not
    # pollute the smallest instance's measurement.
    d_phase(dag, x, config, -0.2 * load, 0.2 * load)
    return ScalingPoint(
        width=width,
        n_vertices=dag.n,
        n_edges=dag.n_edges,
        sta_seconds=_best_of(lambda: timer.analyze(delays)),
        balance_seconds=_best_of(
            lambda: balance(dag, delays, horizon=horizon, timer=timer)
        ),
        w_phase_seconds=_best_of(lambda: w_phase(dag, budgets)),
        d_phase_seconds=_best_of(
            lambda: d_phase(dag, x, config, -0.2 * load, 0.2 * load),
            repeats=1,
        ),
    )


def run_scaling(
    widths: list[int] | None = None, spec: float = 0.6
) -> list[ScalingPoint]:
    """One :func:`measure_phases` point per adder width, serially."""
    return [measure_phases(width, spec) for width in widths or DEFAULT_WIDTHS]


def fit_slopes(points: list[ScalingPoint]) -> dict[str, float]:
    """Log-log slope of runtime vs vertex count, per phase."""
    n = np.log([p.n_vertices for p in points])
    slopes = {}
    for phase in ("sta", "balance", "w_phase", "d_phase"):
        t = np.log([getattr(p, f"{phase}_seconds") for p in points])
        slopes[phase] = float(np.polyfit(n, t, 1)[0])
    return slopes


def format_scaling(points: list[ScalingPoint]) -> str:
    rows = [
        [
            str(p.width),
            str(p.n_vertices),
            str(p.n_edges),
            f"{1e3 * p.sta_seconds:.2f}",
            f"{1e3 * p.balance_seconds:.2f}",
            f"{1e3 * p.w_phase_seconds:.2f}",
            f"{1e3 * p.d_phase_seconds:.2f}",
        ]
        for p in points
    ]
    table = format_table(
        ["width", "|V|", "|E|", "STA ms", "balance ms", "W ms", "D ms"],
        rows,
        title="Phase runtime scaling on ripple-carry adders",
    )
    slopes = fit_slopes(points)
    trend = ", ".join(f"{k}: n^{v:.2f}" for k, v in slopes.items())
    return f"{table}\n\nfitted growth: {trend}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default=None)
    args = parser.parse_args()
    widths = (
        [int(tok) for tok in args.widths.split(",")]
        if args.widths
        else DEFAULT_WIDTHS
    )
    print(format_scaling(run_scaling(widths)))


if __name__ == "__main__":
    main()
