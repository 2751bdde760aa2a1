"""Min-cost network flow substrate for the D-phase."""

from repro.flow.duality import (
    BACKENDS,
    DifferenceConstraintLP,
    GroundedFlow,
    LpSolution,
    SolveStats,
    ground_flow,
    integerize_supplies,
    integerize_values,
    reset_solver_statistics,
    solve_difference_lp,
    solver_statistics,
)
from repro.flow.network import Arc, FlowProblem, FlowSolution
from repro.flow.verify import check_flow_feasible, check_flow_optimal

__all__ = [
    "Arc",
    "BACKENDS",
    "DifferenceConstraintLP",
    "FlowProblem",
    "FlowSolution",
    "GroundedFlow",
    "LpSolution",
    "SolveStats",
    "check_flow_feasible",
    "check_flow_optimal",
    "ground_flow",
    "integerize_supplies",
    "integerize_values",
    "reset_solver_statistics",
    "solve_difference_lp",
    "solver_statistics",
]
