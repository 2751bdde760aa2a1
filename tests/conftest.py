"""Shared fixtures for the test suite.

Markers (registered in ``pyproject.toml``):

* ``slow`` — end-to-end smokes that spawn real subprocesses, drive
  multi-replica fleets, or run full campaign sweeps (example scripts,
  ``serve`` processes, parallel warm-start parity).  The default
  tier-1 invocation (``PYTHONPATH=src python -m pytest -x -q``) runs
  them; ``-m "not slow"`` is the fast feedback lane and what the CI
  bench-smoke lanes use while the heavyweight jobs cover the rest.

Oracles: ``network_simplex_flow`` (min-cost flow), ``reference_smp``
(the per-vertex W-phase relaxation) and ``reference_tilos`` (the
per-candidate TILOS scan, fully re-timed every bump) are the plain
loops the production solvers are held to; each is also a fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.dag import build_sizing_dag
from repro.errors import SizingError
from repro.flow import FlowProblem, FlowSolution
from repro.generators import build_circuit, ripple_carry_adder
from repro.sizing import TilosOptions
from repro.sizing.kernels import get_tilos_plan
from repro.sizing.smp import SmpResult, find_clamped, smp_headroom
from repro.tech import default_technology
from repro.timing import GraphTimer


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def c17():
    return build_circuit("c17")


@pytest.fixture(scope="session")
def c17_gate_dag(c17, tech):
    return build_sizing_dag(c17, tech, mode="gate")


@pytest.fixture(scope="session")
def c17_transistor_dag(c17, tech):
    return build_sizing_dag(c17, tech, mode="transistor")


@pytest.fixture(scope="session")
def adder8(tech):
    return ripple_carry_adder(8, style="nand")


@pytest.fixture(scope="session")
def adder8_dag(adder8, tech):
    return build_sizing_dag(adder8, tech, mode="gate")


@pytest.fixture()
def fresh_builder():
    return CircuitBuilder("test")


def random_sizes(dag, rng: np.random.Generator) -> np.ndarray:
    """Random feasible size vector for a DAG."""
    return rng.uniform(dag.lower, np.minimum(dag.upper, dag.lower * 8))


def network_simplex_flow(problem: FlowProblem) -> FlowSolution:
    """Min-cost flow oracle: ``networkx.network_simplex`` on ``problem``.

    The potentials are shortest residual-graph distances from a virtual
    root joined to every node at cost 0 (Bellman-Ford), which is what
    :func:`repro.flow.verify.check_flow_optimal` certifies.  Costs,
    capacities and supplies must be integral.
    """
    graph = nx.MultiDiGraph()
    for node, supply in enumerate(problem.supply):
        graph.add_node(node, demand=-int(supply))
    for k, arc in enumerate(problem.arcs):
        attributes = {"weight": int(arc.cost)}
        if arc.capacity is not None:
            attributes["capacity"] = int(arc.capacity)
        graph.add_edge(arc.src, arc.dst, key=k, **attributes)
    cost, flow_dict = nx.network_simplex(graph)
    solution = FlowSolution(
        problem=problem,
        flow=np.array([
            flow_dict[arc.src][arc.dst][k]
            for k, arc in enumerate(problem.arcs)
        ], dtype=float),
        potentials=np.zeros(problem.n_nodes),
        total_cost=float(cost),
        backend="networkx",
    )
    potentials = solution.potentials
    for _ in range(problem.n_nodes):
        for src, dst, _capacity, arc_cost in solution.residual_arcs():
            potentials[dst] = min(potentials[dst], potentials[src] + arc_cost)
    return solution


@pytest.fixture()
def network_simplex():
    return network_simplex_flow


def reference_smp(
    model,
    budgets: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    sweep_order: np.ndarray,
    max_sweeps: int = 200,
    tol: float = 1e-10,
) -> SmpResult:
    """W-phase oracle: the per-vertex Gauss-Seidel SMP relaxation.

    Visits vertices one at a time in ``sweep_order`` (reverse
    topological order for the package's DAGs) with one CSR row dot
    product each.  The level-blocked kernel behind
    :func:`repro.sizing.w_phase` must reach the same sweep count and
    clamped set, with sizes within 1e-10 relative to the largest size.
    """
    budgets = np.asarray(budgets, dtype=float)
    headroom, no_load = smp_headroom(model, budgets)

    indptr = model.a_matrix.indptr
    indices = model.a_matrix.indices
    data = model.a_matrix.data
    b = model.b
    law = model.law

    x = lower.astype(float).copy()
    scale = float(np.max(np.abs(upper))) or 1.0
    for sweep in range(1, max_sweeps + 1):
        largest_move = 0.0
        for i in sweep_order:
            if no_load[i]:
                continue
            start, end = indptr[i], indptr[i + 1]
            load = float(data[start:end] @ x[indices[start:end]]) + b[i]
            if load <= 0.0:
                continue
            required = law.g_inverse(headroom[i] / load)
            value = min(max(required, lower[i]), upper[i])
            move = value - x[i]
            if move > tol * scale:
                largest_move = max(largest_move, move)
                x[i] = value
            elif value > x[i]:
                x[i] = value
        if largest_move <= tol * scale:
            clamped = find_clamped(model, budgets, x, upper, tol)
            return SmpResult(x=x, clamped=clamped, sweeps=sweep)
    raise SizingError(
        f"SMP relaxation did not converge in {max_sweeps} sweeps"
    )


@dataclass
class ReferenceTilos:
    """What :func:`reference_tilos` returns."""

    x: np.ndarray
    critical_path_delay: float
    iterations: int
    feasible: bool
    #: Critical path delay before every bump and at the end.
    trace: list[float]
    #: Vertices bumped at each iteration.
    bumps: list[list[int]]


def reference_tilos(
    dag, target: float, options: TilosOptions | None = None
) -> ReferenceTilos:
    """TILOS oracle: a per-candidate scan, fully re-timed every bump.

    Scores each critical-path vertex in a Python loop (its own speed-up
    plus its critical predecessor's extra load), bumps the best
    ``options.batch`` of them, recomputes their delays and their
    readers' one vertex at a time, then re-times the whole circuit
    with :class:`~repro.timing.GraphTimer`.  :func:`repro.sizing.tilos_size`
    (array scoring, incremental timing) must bump the same vertices in
    the same order and reach bitwise-equal sizes.
    """
    options = options or TilosOptions()
    model = dag.model
    law = model.law
    weight = dag.area_weight
    upper = dag.upper
    indptr = model.a_matrix.indptr
    indices = model.a_matrix.indices
    data = model.a_matrix.data
    plan = get_tilos_plan(dag)
    coo = model.a_matrix.tocoo()
    coupling = {
        (int(i), int(j)): float(value)
        for i, j, value in zip(coo.row, coo.col, coo.data)
    }
    x = dag.min_sizes()

    def vertex_load(i: int) -> float:
        lo, hi = indptr[i], indptr[i + 1]
        return float(data[lo:hi] @ x[indices[lo:hi]]) + model.b[i]

    def vertex_delay(i: int) -> float:
        return model.intrinsic[i] + law.g(x[i]) * vertex_load(i)

    def scan(path: list[int]) -> list[tuple[float, int]]:
        candidates: list[tuple[float, int]] = []
        for position, v in enumerate(path):
            if x[v] >= upper[v] * (1 - 1e-12):
                continue
            new_size = min(x[v] * options.bump, upper[v])
            dx = new_size - x[v]
            if dx <= 0:
                continue
            delta = (law.g(new_size) - law.g(x[v])) * vertex_load(v)
            if position > 0:
                pred = path[position - 1]
                delta += law.g(x[pred]) * coupling.get((pred, v), 0.0) * dx
            sensitivity = -delta / (weight[v] * dx)
            candidates.append((sensitivity, v))
        candidates.sort(reverse=True)
        return candidates

    timer = GraphTimer(dag)
    delays = model.delays(x)
    report = timer.analyze(delays)
    trace: list[float] = []
    bumps: list[list[int]] = []
    feasible = False
    while True:
        cp = report.critical_path_delay
        trace.append(cp)
        if cp <= target:
            feasible = True
            break
        if len(bumps) >= options.max_iterations:
            break
        candidates = scan(report.critical_path())
        if not candidates or candidates[0][0] <= 0:
            break
        touched: set[int] = set()
        step = [v for _sensitivity, v in candidates[: options.batch]]
        for v in step:
            x[v] = min(x[v] * options.bump, upper[v])
            touched.add(v)
            touched.update(plan.dependents(v).tolist())
        for u in sorted(touched):
            delays[u] = vertex_delay(u)
        bumps.append(step)
        report = timer.analyze(delays)
    return ReferenceTilos(
        x=x,
        critical_path_delay=trace[-1],
        iterations=len(bumps),
        feasible=feasible,
        trace=trace,
        bumps=bumps,
    )


@pytest.fixture(scope="session")
def smp_reference():
    return reference_smp


@pytest.fixture(scope="session")
def tilos_reference():
    return reference_tilos
