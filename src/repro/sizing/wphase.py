"""W-phase: minimum-area sizes for fixed delay budgets (paper eq. (11)).

Thin orchestration over the SMP solver: relaxes the DAG's budgets with
the level-blocked kernel of :mod:`repro.sizing.kernels` (whole
dependency levels per sliced CSR matvec, in reverse topological order,
which makes the relaxation a single backward-substitution pass for
gate sizing, per the paper's section 2.3) and verifies the resulting
delays against the budgets.  The level plan is cached on the DAG, so
repeated W-phases (one per MINFLOTRANSIT iteration) pay the analysis
once.

The tests hold this solve to a per-vertex Gauss-Seidel reference loop
(``reference_smp`` in ``tests/conftest.py``): the same sweep count and
clamped set, and sizes within 1e-10 relative to the largest size.  The
two agree to the last few ulps, not bitwise — the row dot products sum
in a different order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag.circuit_dag import SizingDag
from repro.sizing.kernels import get_smp_plan, solve_smp_blocked

__all__ = ["WPhaseResult", "w_phase"]


@dataclass
class WPhaseResult:
    """Sizes meeting the budgets, plus violation diagnostics."""

    x: np.ndarray
    delays: np.ndarray
    budgets: np.ndarray
    clamped: list[int]
    sweeps: int

    @property
    def feasible(self) -> bool:
        """True when every budget was met without clamping."""
        return not self.clamped

    @property
    def worst_violation(self) -> float:
        """Largest delay-over-budget excess (<= 0 when feasible)."""
        return float(np.max(self.delays - self.budgets))


def w_phase(
    dag: SizingDag,
    budgets: np.ndarray,
    max_sweeps: int = 200,
) -> WPhaseResult:
    """Solve the W-phase SMP for ``dag`` under per-vertex ``budgets``.

    Returns the least fixed point (the componentwise-minimal sizes
    meeting every budget), the vertices clamped at their upper bound
    and the number of relaxation sweeps.
    """
    result = solve_smp_blocked(
        model=dag.model,
        budgets=budgets,
        lower=dag.lower,
        upper=dag.upper,
        plan=get_smp_plan(dag),
        max_sweeps=max_sweeps,
    )
    return WPhaseResult(
        x=result.x,
        delays=dag.model.delays(result.x),
        budgets=np.asarray(budgets, dtype=float),
        clamped=result.clamped,
        sweeps=result.sweeps,
    )
