"""Sizing optimizers: TILOS baseline, D-phase, W-phase, MINFLOTRANSIT."""

from repro.sizing.dphase import (
    DPhaseResult,
    area_sensitivities,
    build_dphase_lp,
    d_phase,
)
from repro.sizing.kernels import (
    SmpPlan,
    TilosPlan,
    get_smp_plan,
    get_tilos_plan,
    solve_smp_blocked,
)
from repro.sizing.lagrangian import (
    LagrangianOptions,
    LagrangianResult,
    lagrangian_size,
)
from repro.sizing.minflo import MinfloOptions, minflotransit
from repro.sizing.recovery import RecoveryResult, greedy_downsize
from repro.sizing.result import IterationRecord, SizingResult
from repro.sizing.serialize import load_result, save_result
from repro.sizing.smp import SmpResult
from repro.sizing.tilos import TilosOptions, TilosResult, require_feasible, tilos_size
from repro.sizing.wphase import WPhaseResult, w_phase

__all__ = [
    "DPhaseResult",
    "IterationRecord",
    "LagrangianOptions",
    "LagrangianResult",
    "MinfloOptions",
    "RecoveryResult",
    "SizingResult",
    "SmpPlan",
    "SmpResult",
    "TilosOptions",
    "TilosPlan",
    "TilosResult",
    "WPhaseResult",
    "area_sensitivities",
    "build_dphase_lp",
    "d_phase",
    "get_smp_plan",
    "get_tilos_plan",
    "greedy_downsize",
    "lagrangian_size",
    "load_result",
    "minflotransit",
    "require_feasible",
    "save_result",
    "solve_smp_blocked",
    "tilos_size",
    "w_phase",
]
