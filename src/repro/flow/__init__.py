"""Min-cost network flow substrate for the D-phase."""

from repro.flow.duality import (
    BACKENDS,
    DifferenceConstraintLP,
    GroundedFlow,
    LpSolution,
    ground_flow,
    integerize_supplies,
    integerize_values,
    solve_difference_lp,
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
    "check_flow_feasible",
    "check_flow_optimal",
    "ground_flow",
    "integerize_supplies",
    "integerize_values",
    "solve_difference_lp",
]
