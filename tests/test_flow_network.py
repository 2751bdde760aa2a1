"""Edge-case tests for the flow-instance layer and error hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.flow import Arc, FlowProblem
from repro.flow.verify import check_flow_optimal


class TestArcValidation:
    def test_negative_capacity(self):
        with pytest.raises(errors.FlowError, match="capacity"):
            Arc(0, 1, cost=1.0, capacity=-2.0)

    def test_uncapacitated_default(self):
        assert Arc(0, 1, cost=1.0).capacity is None


class TestFlowProblem:
    def test_endpoint_range_checked(self):
        problem = FlowProblem(n_nodes=2)
        with pytest.raises(errors.FlowError, match="range"):
            problem.add_arc(0, 5, cost=1.0)

    def test_supply_shape_checked(self):
        with pytest.raises(errors.FlowError, match="shape"):
            FlowProblem(n_nodes=3, supply=np.zeros(2))

    def test_total_positive_supply(self):
        problem = FlowProblem(n_nodes=3)
        problem.add_supply(0, 2.0)
        problem.add_supply(1, 3.0)
        problem.add_supply(2, -5.0)
        assert problem.total_positive_supply == pytest.approx(5.0)

    def test_zero_supply_trivial_solve(self, network_simplex):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=3.0)
        solution = network_simplex(problem)
        assert solution.total_cost == 0.0
        check_flow_optimal(solution)

    def test_parallel_arcs_allowed(self, network_simplex):
        problem = FlowProblem(n_nodes=2)
        problem.add_arc(0, 1, cost=5.0)
        problem.add_arc(0, 1, cost=1.0)
        problem.add_supply(0, 2.0)
        problem.add_supply(1, -2.0)
        solution = network_simplex(problem)
        # All flow takes the cheap copy.
        assert solution.flow[1] == pytest.approx(2.0)
        assert solution.flow[0] == pytest.approx(0.0)
        check_flow_optimal(solution)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        leaves = [
            errors.NetlistError,
            errors.BenchFormatError,
            errors.TechnologyError,
            errors.DelayModelError,
            errors.TimingError,
            errors.BalancingError,
            errors.FlowError,
            errors.InfeasibleFlowError,
            errors.UnboundedFlowError,
            errors.SizingError,
            errors.InfeasibleTimingError,
            errors.ConvergenceError,
        ]
        for exc in leaves:
            assert issubclass(exc, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.BenchFormatError, errors.NetlistError)
        assert issubclass(errors.InfeasibleFlowError, errors.FlowError)
        assert issubclass(errors.InfeasibleTimingError, errors.SizingError)

    def test_catchable_as_library_error(self, c17_gate_dag):
        from repro.sizing import minflotransit

        with pytest.raises(errors.ReproError):
            minflotransit(c17_gate_dag, 0.001)
