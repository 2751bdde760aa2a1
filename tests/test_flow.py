"""Tests for the min-cost flow substrate and the LP duality layer."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import FlowError, InfeasibleFlowError
from repro.flow import (
    BACKENDS,
    DifferenceConstraintLP,
    FlowProblem,
    check_flow_feasible,
    check_flow_optimal,
    ground_flow,
    integerize_supplies,
    integerize_values,
    solve_difference_lp,
)
from repro.flow.duality import BACKEND_CHOICES, NETWORK_SIMPLEX_MAX_CONSTRAINTS


class TestFlowCertificates:
    """:mod:`repro.flow.verify` on flows from the network-simplex oracle."""

    def test_capacity_forces_split(self, network_simplex):
        problem = FlowProblem(n_nodes=4)
        problem.add_arc(0, 1, cost=1.0, capacity=1.0)
        problem.add_arc(1, 3, cost=1.0)
        problem.add_arc(0, 2, cost=5.0)
        problem.add_arc(2, 3, cost=5.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(3, -2.0)
        solution = network_simplex(problem)
        assert solution.total_cost == pytest.approx(2.0 + 10.0)
        check_flow_optimal(solution)

    def test_potentials_certify_optimality(self, network_simplex):
        rng = np.random.default_rng(8)
        for trial in range(5):
            problem = _random_instance(rng, n=12, arcs=36)
            solution = network_simplex(problem)
            check_flow_optimal(solution)

    def test_feasibility_checker_catches_bad_flow(self, network_simplex):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_supply(0, 1.0)
        problem.add_supply(1, -1.0)
        solution = network_simplex(problem)
        solution.flow[0] = 5.0  # corrupt
        with pytest.raises(FlowError, match="conservation"):
            check_flow_feasible(solution)

    def test_optimality_checker_catches_costly_flow(self, network_simplex):
        problem = FlowProblem(n_nodes=4)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_arc(1, 3, cost=1.0)
        problem.add_arc(0, 2, cost=5.0)
        problem.add_arc(2, 3, cost=5.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(3, -2.0)
        solution = network_simplex(problem)
        assert solution.flow.tolist() == [2.0, 2.0, 0.0, 0.0]
        solution.flow[:] = [0.0, 0.0, 2.0, 2.0]  # feasible, not cheapest
        check_flow_feasible(solution)
        with pytest.raises(FlowError, match="not optimal"):
            check_flow_optimal(solution)


def _random_instance(rng, n=10, arcs=30) -> FlowProblem:
    """Random feasible instance: supplies routed over a connected ring
    plus random chords, all with integer costs."""
    problem = FlowProblem(n_nodes=n)
    for i in range(n):
        problem.add_arc(i, (i + 1) % n, cost=float(rng.integers(1, 10)))
    for _ in range(arcs - n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            problem.add_arc(int(u), int(v), cost=float(rng.integers(0, 20)))
    amounts = rng.integers(1, 5, size=n // 2).astype(float)
    for k, amount in enumerate(amounts):
        problem.add_supply(k, float(amount))
        problem.add_supply(n - 1 - k, -float(amount))
    return problem


class TestDifferenceLP:
    def _small_lp(self) -> DifferenceConstraintLP:
        """max r1 - r2 s.t. r1 - r0 <= 2, r1 - r2 <= 3, r2 - r0 <= 0,
        r0 pinned."""
        lp = DifferenceConstraintLP(
            n_nodes=3,
            weights=np.array([0.0, 1.0, -1.0]),
            pinned=frozenset({0}),
        )
        lp.add(1, 0, 2.0)
        lp.add(1, 2, 3.0)
        lp.add(2, 0, 0.0)
        # r2 >= -1 comes from: r0 - r2 <= 1.
        lp.add(0, 2, 1.0)
        return lp

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_small_lp_optimum(self, backend):
        lp = self._small_lp()
        solution = solve_difference_lp(lp, backend=backend)
        # Optimum: r1 = 2, r2 = -1 -> objective 3.
        assert solution.objective == pytest.approx(3.0)
        assert solution.r[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_on_random_instances(self, backend):
        rng = np.random.default_rng(9)
        for trial in range(4):
            lp = _random_lp(rng, n=14)
            reference = solve_difference_lp(lp, backend="scipy")
            solution = solve_difference_lp(lp, backend=backend)
            assert solution.objective == pytest.approx(
                reference.objective, rel=1e-6
            )
            lp.check_feasible(solution.r)

    def test_pinned_pinned_violation(self):
        lp = DifferenceConstraintLP(
            n_nodes=2,
            weights=np.array([0.0, 0.0]),
            pinned=frozenset({0, 1}),
        )
        lp.add(0, 1, -5.0)  # 0 <= -5: impossible
        with pytest.raises(InfeasibleFlowError):
            solve_difference_lp(lp, backend="scipy")

    def test_unknown_backend(self):
        lp = self._small_lp()
        for name in ("ssp", "ssp-legacy", "cplex"):
            with pytest.raises(FlowError, match="unknown flow backend"):
                solve_difference_lp(lp, backend=name)

    def test_flow_dual_is_certified(self, network_simplex):
        """The paper's dual: network simplex on ``ground_flow(lp)`` is a
        certified min-cost flow whose cost is the LP optimum."""
        rng = np.random.default_rng(9)
        for trial in range(4):
            lp = _random_lp(rng, n=14)
            flow = network_simplex(ground_flow(lp).problem)
            check_flow_feasible(flow)
            check_flow_optimal(flow)
            primal = solve_difference_lp(lp, backend="scipy")
            assert flow.total_cost == pytest.approx(primal.objective, rel=1e-9)

    def test_ground_flow_balances(self):
        lp = self._small_lp()
        grounded = ground_flow(lp)
        assert grounded.problem.supply.sum() == pytest.approx(0.0)
        # Constraints between two pinned nodes vanish; others survive.
        assert grounded.problem.n_nodes == 3  # r1, r2, ground


def _random_lp(rng, n=12) -> DifferenceConstraintLP:
    """Random bounded difference LP over a line graph plus chords.

    Bounds every variable against the pinned node 0 in both directions
    so no backend can be unbounded.
    """
    weights = rng.integers(-5, 6, size=n).astype(float)
    lp = DifferenceConstraintLP(
        n_nodes=n, weights=weights, pinned=frozenset({0})
    )
    for v in range(1, n):
        lp.add(v, 0, float(rng.integers(0, 10)))
        lp.add(0, v, float(rng.integers(0, 10)))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            lp.add(int(u), int(v), float(rng.integers(0, 12)))
    return lp


def _chain_lp(n_constraints: int) -> DifferenceConstraintLP:
    """A bounded LP with exactly ``n_constraints`` constraints."""
    n = n_constraints // 2 + 1
    lp = DifferenceConstraintLP(
        n_nodes=n, weights=np.ones(n), pinned=frozenset({0})
    )
    for v in range(1, n):
        lp.add(v, v - 1, 1.0)
        lp.add(v - 1, v, 1.0)
    if n_constraints % 2:
        lp.add(n - 1, 0, float(n))
    assert len(lp.constraints) == n_constraints
    return lp


class TestBackendRegistry:
    """The two solvers, the ``auto`` size rule and the solve counters."""

    def test_canonical_backends_registered(self):
        assert BACKENDS == ("networkx", "scipy")
        assert BACKEND_CHOICES == ("auto", "networkx", "scipy")

    def test_auto_selection_respects_size_caps(self):
        cap = NETWORK_SIMPLEX_MAX_CONSTRAINTS
        assert cap == 128
        small = solve_difference_lp(_chain_lp(cap))
        large = solve_difference_lp(_chain_lp(cap + 1))
        assert small.backend == "networkx"
        assert large.backend == "scipy"
        assert small.objective == pytest.approx(
            solve_difference_lp(_chain_lp(cap), backend="scipy").objective
        )

    def test_stats_recorded_on_every_solve(self, c17_gate_dag):
        """Every solve names the solver that ran.  In a sizing run each
        D-phase solve is one ``minflo.d_phase`` span that carries that
        name, in step with its iteration record; no process-wide
        counter keeps a second copy."""
        from repro import flow
        from repro.flow import duality
        from repro.obs.trace import SpanSink, trace_scope
        from repro.sizing import minflotransit
        from repro.timing import analyze

        lp = DifferenceConstraintLP(
            n_nodes=3,
            weights=np.array([0.0, 1.0, -1.0]),
            pinned=frozenset({0}),
        )
        lp.add(1, 0, 2.0)
        lp.add(0, 2, 1.0)
        lp.add(1, 2, 3.0)
        lp.add(2, 0, 0.0)
        for backend in BACKENDS:
            solution = solve_difference_lp(lp, backend=backend)
            assert solution.backend == backend
            assert not hasattr(solution, "stats")
        for module in (flow, duality):
            for name in ("SolveStats", "solver_statistics", "stats_scope"):
                assert not hasattr(module, name), name

        dag = c17_gate_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        sink = SpanSink()
        with trace_scope(sink=sink):
            result = minflotransit(dag, 0.6 * d_min)
        solves = [r for r in sink.drain() if r["name"] == "minflo.d_phase"]
        assert [r["attrs"]["backend"] for r in solves] == [
            rec.backend for rec in result.iterations
        ]
        assert [r["attrs"]["iteration"] for r in solves] == [
            rec.iteration for rec in result.iterations
        ]


@pytest.mark.slow
class TestSolverImports:
    """Each job imports only the solver its LPs need."""

    @pytest.mark.parametrize("circuit, spec, absent", [
        ("c432eq", 0.5, "networkx"),
        ("c17", 0.6, "scipy.optimize"),
    ])
    def test_job_leaves_other_solver_unimported(self, circuit, spec, absent):
        script = textwrap.dedent(f"""
            import sys
            from repro.runner import Job, execute_job
            status, _ = execute_job(Job(circuit={circuit!r}, delay_spec={spec}))
            assert status == "ok", status
            print({absent!r} in sys.modules)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert done.stdout.strip() == "False"


class TestIntegerizePolicy:
    def test_nearest_and_floor_modes(self):
        values = np.array([1.4, 1.5, -1.2, 2.0])
        assert integerize_values(values).tolist() == [1.0, 2.0, -1.0, 2.0]
        assert integerize_values(values, mode="floor").tolist() == [
            1.0, 1.0, -2.0, 2.0,
        ]

    def test_unknown_mode_rejected(self):
        with pytest.raises(FlowError, match="rounding"):
            integerize_values(np.array([1.0]), mode="ceil")

    def test_supply_rounding_preserves_balance(self):
        supplies = np.array([2.4, -1.2, 0.4, -1.6])  # sums to 0
        rounded = integerize_supplies(supplies, ground=3)
        assert rounded.sum() == 0
        assert rounded.dtype == np.int64
        # Non-ground nodes moved by at most the rounding itself.
        assert np.all(np.abs(rounded[:3] - supplies[:3]) <= 0.5)
