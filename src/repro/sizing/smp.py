"""Simple Monotonic Program solver (paper section 2.3.2, reference [10]).

The W-phase problem

    minimize   sum_i w_i x_i
    subject to intrinsic_i + g(x_i) * (sum_j a_ij x_j + b_i) <= budget_i
               lower_i <= x_i <= upper_i

is a Simple Monotonic Program: rewriting each constraint as

    x_i >= g^{-1}( (budget_i - intrinsic_i) / L_i(x) )

gives ``x >= F(x)`` with ``F`` monotone non-decreasing, so the feasible
set is closed upward and the componentwise-minimal feasible point — the
least fixed point of ``max(lower, F(.))`` — simultaneously minimizes
every ``x_i`` and hence any non-negatively weighted area objective.

The solver (:func:`repro.sizing.kernels.solve_smp_blocked`, reached
through :func:`repro.sizing.wphase.w_phase`) runs Gauss-Seidel
constraint relaxation in reverse topological order: exact after one
sweep for gate sizing (dependencies point strictly forward), and a
convergent block relaxation for transistor sizing (devices of one gate
couple mutually).  Worst case ``O(|V| |E|)`` sweeps-times-work, the
bound quoted in the paper.  This module holds the problem-level
pieces: the result record, the headroom check and the clamp test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.delay.model import VertexDelayModel
from repro.errors import SizingError

__all__ = ["SmpResult", "find_clamped", "smp_headroom"]


@dataclass
class SmpResult:
    """Least-fixed-point solution of the W-phase SMP."""

    x: np.ndarray
    #: Vertices whose requirement exceeded the upper size bound; their
    #: delay budgets are not met (the caller must reject or repair).
    clamped: list[int]
    sweeps: int

    @property
    def feasible(self) -> bool:
        """True when no vertex hit its upper size bound."""
        return not self.clamped


def smp_headroom(
    model: VertexDelayModel, budgets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(headroom, no_load)`` arrays for an SMP instance.

    ``headroom`` is ``budgets - intrinsic``; ``no_load`` flags vertices
    with neither coupling terms nor constant load (their delay is fixed
    at the intrinsic value, so any budget is acceptable).  Raises
    :class:`SizingError` when a loaded vertex has no headroom.
    """
    budgets = np.asarray(budgets, dtype=float)
    headroom = budgets - model.intrinsic
    no_load = (model.b == 0) & (np.diff(model.a_matrix.indptr) == 0)
    bad = np.flatnonzero((headroom <= 0) & ~no_load)
    if bad.size:
        i = int(bad[0])
        raise SizingError(
            f"budget {budgets[i]:.6g} at vertex {i} does not exceed the "
            f"intrinsic delay {model.intrinsic[i]:.6g}"
        )
    return headroom, no_load


def find_clamped(
    model: VertexDelayModel,
    budgets: np.ndarray,
    x: np.ndarray,
    upper: np.ndarray,
    tol: float,
) -> list[int]:
    """Vertices at the upper bound whose budget is still violated."""
    delays = model.delays(x)
    scale = max(float(np.max(budgets)), 1.0)
    violated = delays > budgets + 1e-7 * scale
    at_cap = x >= upper - tol
    return np.flatnonzero(violated & at_cap).tolist()
