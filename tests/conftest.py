"""Shared fixtures for the test suite.

Markers (registered in ``pyproject.toml``):

* ``slow`` — end-to-end smokes that spawn real subprocesses, drive
  multi-replica fleets, or run full campaign sweeps (example scripts,
  ``serve`` processes, parallel warm-corpus parity).  The default
  tier-1 invocation (``PYTHONPATH=src python -m pytest -x -q``) runs
  them; ``-m "not slow"`` is the fast feedback lane and what the CI
  bench-smoke lanes use while the heavyweight jobs cover the rest.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.dag import build_sizing_dag
from repro.flow import FlowProblem, FlowSolution
from repro.generators import build_circuit, ripple_carry_adder
from repro.tech import default_technology


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
