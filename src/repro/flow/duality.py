"""Difference-constraint LPs and their min-cost-flow duals.

The D-phase optimization (paper equation (10)) has the form

    maximize    sum_v w_v * r(v)
    subject to  r(u) - r(v) <= c_uv          for every constraint arc
                r(v) = 0                     for pinned v (PIs, sink O)

Its LP dual is a min-cost network flow: each constraint becomes an arc
``u -> v`` with cost ``c_uv``; conservation requires
``outflow(v) - inflow(v) = w_v``, i.e. a supply of ``w_v`` at ``v``.
Pinned nodes have no conservation constraint — they merge into one
*ground* node that absorbs the residual imbalance.  Optimal node
potentials of the flow are (up to sign and the ground offset) an
optimal primal ``r``:  ``r(v) = π(ground) - π(v)``.

:func:`solve_difference_lp` solves the LP with one of two solvers,
cross-checked in the test suite:

* ``"networkx"`` — ``networkx.network_simplex`` on the min-cost-flow
  dual (the paper's own solver, its reference [9]),
* ``"scipy"``    — HiGHS on the primal LP.

``"auto"`` picks by size: network simplex for LPs of at most
:data:`NETWORK_SIMPLEX_MAX_CONSTRAINTS` constraints, where it has no LP
setup cost to amortize, and HiGHS above, where its compiled simplex
wins.  Each solver module is imported on first use, so a process that
only ever solves one kind of LP never imports the other solver.  The
solution names the solver that ran; the D-phase records it on its
``minflo.d_phase`` span and in each iteration record.

This module is also the single home of the **integerization policy**:
:func:`integerize_values` (nearest / conservative-floor rounding) and
:func:`integerize_supplies` (balance-preserving supply rounding) are
used both by the D-phase scaling step and by backends that need exact
integer data, so the rounding rules cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FlowError, InfeasibleFlowError
from repro.flow.network import FlowProblem

__all__ = [
    "BACKENDS",
    "BACKEND_CHOICES",
    "DifferenceConstraintLP",
    "GroundedFlow",
    "LpSolution",
    "NETWORK_SIMPLEX_MAX_CONSTRAINTS",
    "check_backend",
    "ground_flow",
    "integerize_supplies",
    "integerize_values",
    "solve_difference_lp",
]

#: The two D-phase LP solvers, by name.
BACKENDS = ("networkx", "scipy")

#: Every value a ``flow_backend`` setting accepts.
BACKEND_CHOICES = ("auto", *BACKENDS)

#: ``auto`` solves LPs of at most this many constraints with network
#: simplex and larger ones with HiGHS: the crossover measured on
#: D-phase LPs from real W/D runs, 2-core Intel Xeon (median ms per
#: solve, network simplex / HiGHS): 20 rows 0.76 / 3.23, 110 rows
#: 2.78 / 4.58, 146 rows 5.26 / 4.67.
NETWORK_SIMPLEX_MAX_CONSTRAINTS = 128


def check_backend(name: str) -> str:
    """Return ``name`` if it is in :data:`BACKEND_CHOICES`, else raise
    :class:`FlowError`."""
    if name not in BACKEND_CHOICES:
        raise FlowError(
            f"unknown flow backend {name!r}; pick from "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    return name


def integerize_values(
    values: np.ndarray | float, mode: str = "nearest"
) -> np.ndarray:
    """Round already-scaled data to exact integers (as float64).

    ``mode="nearest"`` is the default defensive rounding for data that
    is integral up to float noise (costs, weights); ``mode="floor"`` is
    the conservative choice for slack-like quantities where rounding
    *down* keeps the integerized feasible set inside the true one
    (paper section 2.3.1).  Every rounding decision in the flow layer
    and the D-phase goes through here.
    """
    array = np.asarray(values, dtype=float)
    if mode == "nearest":
        return np.rint(array)
    if mode == "floor":
        return np.floor(array)
    raise FlowError(f"unknown rounding mode {mode!r}")


def integerize_supplies(
    supplies: np.ndarray, ground: int
) -> np.ndarray:
    """Round supplies to int64 and dump the drift on the ground node.

    Backends that require exactly balanced integer supplies (network
    simplex) call this; the repair keeps ``sum(supply) == 0`` without
    touching any non-ground node by more than the rounding itself.
    """
    rounded = integerize_values(supplies, mode="nearest").astype(np.int64)
    rounded[ground] -= rounded.sum()
    return rounded


@dataclass
class DifferenceConstraintLP:
    """``max w^T r`` subject to difference constraints and pins."""

    n_nodes: int
    weights: np.ndarray
    pinned: frozenset[int]
    #: (u, v, c) meaning r(u) - r(v) <= c.
    constraints: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.n_nodes,):
            raise FlowError(
                f"weights shape {self.weights.shape} != ({self.n_nodes},)"
            )
        if not self.pinned:
            raise FlowError("difference LP needs at least one pinned node")

    def add(self, u: int, v: int, c: float) -> None:
        """Append the constraint ``r[u] - r[v] <= c``."""
        self.constraints.append((u, v, float(c)))

    def objective(self, r: np.ndarray) -> float:
        """The LP objective ``weights @ r`` for an assignment."""
        return float(self.weights @ r)

    def check_feasible(self, r: np.ndarray, tol: float = 1e-6) -> None:
        """Raise if ``r`` violates a constraint or a pin."""
        scale = 1.0 + max(
            (abs(c) for _, _, c in self.constraints), default=0.0
        )
        for node in self.pinned:
            if abs(r[node]) > tol * scale:
                raise FlowError(f"pinned node {node} has r = {r[node]:.3g}")
        for u, v, c in self.constraints:
            if r[u] - r[v] > c + tol * scale:
                raise FlowError(
                    f"constraint r({u}) - r({v}) <= {c:.6g} violated by "
                    f"{r[u] - r[v] - c:.3g}"
                )


@dataclass
class GroundedFlow:
    """The dual flow instance with pinned nodes merged into ``ground``."""

    problem: FlowProblem
    ground: int
    #: LP node -> flow node.
    node_map: np.ndarray


@dataclass
class LpSolution:
    """A solved difference LP: optimal assignment, objective, solver."""

    r: np.ndarray
    objective: float
    backend: str


def ground_flow(lp: DifferenceConstraintLP) -> GroundedFlow:
    """Build the dual min-cost flow instance of a difference LP."""
    node_map = np.full(lp.n_nodes, -1, dtype=np.int64)
    free_nodes = [v for v in range(lp.n_nodes) if v not in lp.pinned]
    for new_id, node in enumerate(free_nodes):
        node_map[node] = new_id
    ground = len(free_nodes)
    for node in lp.pinned:
        node_map[node] = ground

    problem = FlowProblem(n_nodes=ground + 1)
    # Uncapacitated parallel arcs: only the cheapest can carry flow.
    cheapest: dict[tuple[int, int], float] = {}
    for u, v, c in lp.constraints:
        mu, mv = int(node_map[u]), int(node_map[v])
        if mu == mv:
            if c < -1e-12:
                raise InfeasibleFlowError(
                    f"constraint between pinned nodes violated: "
                    f"r({u}) - r({v}) <= {c:.6g}"
                )
            continue
        key = (mu, mv)
        if key not in cheapest or c < cheapest[key]:
            cheapest[key] = c
    for (mu, mv), c in sorted(cheapest.items()):
        problem.add_arc(mu, mv, cost=c)

    for node in free_nodes:
        problem.add_supply(int(node_map[node]), float(lp.weights[node]))
    assert problem.supply is not None
    problem.supply[ground] = -problem.supply[:ground].sum()
    return GroundedFlow(problem=problem, ground=ground, node_map=node_map)


def recover_r(
    grounded: GroundedFlow, potentials: np.ndarray, n_nodes: int
) -> np.ndarray:
    """``r(v) = π(ground) - π(v)`` mapped back to LP node ids."""
    r = np.zeros(n_nodes)
    ground_potential = potentials[grounded.ground]
    for node in range(n_nodes):
        r[node] = ground_potential - potentials[grounded.node_map[node]]
    return r


def solve_difference_lp(
    lp: DifferenceConstraintLP, backend: str = "auto"
) -> LpSolution:
    """Solve the LP and verify that the answer is feasible.

    ``backend`` is one of :data:`BACKEND_CHOICES`; ``"auto"`` picks
    network simplex for LPs of at most
    :data:`NETWORK_SIMPLEX_MAX_CONSTRAINTS` constraints and HiGHS
    above; the returned solution's ``backend`` names the one that ran.
    """
    check_backend(backend)
    if backend == "auto":
        backend = (
            "networkx"
            if len(lp.constraints) <= NETWORK_SIMPLEX_MAX_CONSTRAINTS
            else "scipy"
        )
    if backend == "networkx":
        from repro.flow.networkx_backend import solve_lp_networkx as solve
    else:
        from repro.flow.scipy_backend import solve_lp_scipy as solve
    solution = solve(lp)
    lp.check_feasible(solution.r)
    return solution

