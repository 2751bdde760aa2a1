"""Tests for incremental AT/RT maintenance and its TILOS use."""

import numpy as np
import pytest

from repro.sizing import TilosOptions, tilos_size
from repro.timing import GraphTimer, analyze
from repro.timing.incremental import (
    SCALAR_SEED_LIMIT,
    IncrementalArrivalTimes,
    IncrementalTimer,
)


def assert_matches_full(inc, timer, delay, horizon=None):
    """Incremental state must equal a from-scratch analysis.

    Arrival times are bitwise identical; required times agree up to
    float re-association noise (the engine stores them horizon-free).
    """
    full = timer.analyze(delay, horizon=horizon)
    np.testing.assert_array_equal(inc.at, full.at)
    assert inc.critical_path_delay == full.critical_path_delay
    rt = inc.required_times(full.horizon)
    finite = np.isfinite(full.rt)
    tol = 1e-9 * max(full.horizon, 1.0)
    np.testing.assert_array_equal(finite, np.isfinite(rt))
    assert np.allclose(rt[finite], full.rt[finite], rtol=0.0, atol=tol)
    slack = inc.slack(full.horizon)
    assert np.allclose(
        slack[finite], full.slack[finite], rtol=0.0, atol=tol
    )


class TestIncrementalEngine:
    def test_initial_state_matches_full(self, adder8_dag):
        rng = np.random.default_rng(20)
        delay = rng.uniform(0.5, 4.0, size=adder8_dag.n)
        inc = IncrementalArrivalTimes(adder8_dag, delay)
        full = GraphTimer(adder8_dag).analyze(delay)
        assert inc.at == pytest.approx(full.at)
        assert inc.critical_path_delay == pytest.approx(
            full.critical_path_delay
        )

    def test_random_update_sequences_match_full(self, adder8_dag):
        rng = np.random.default_rng(21)
        delay = rng.uniform(0.5, 4.0, size=adder8_dag.n)
        inc = IncrementalArrivalTimes(adder8_dag, delay)
        timer = GraphTimer(adder8_dag)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            changed = rng.integers(0, adder8_dag.n, size=k).tolist()
            delay = delay.copy()
            delay[changed] = rng.uniform(0.2, 6.0, size=k)
            inc.update_delays(changed, delay)
            full = timer.analyze(delay)
            assert inc.at == pytest.approx(full.at), "arrival drift"
            assert inc.critical_path_delay == pytest.approx(
                full.critical_path_delay
            )

    def test_decreasing_delays_propagate(self, c17_gate_dag):
        """Arrival times must also *fall* when a delay shrinks."""
        delay = np.full(c17_gate_dag.n, 5.0)
        inc = IncrementalArrivalTimes(c17_gate_dag, delay)
        before = inc.critical_path_delay
        path = inc.critical_path()
        delay = delay.copy()
        delay[path[0]] = 1.0
        inc.update_delays([path[0]], delay)
        full = GraphTimer(c17_gate_dag).analyze(delay)
        assert inc.critical_path_delay == pytest.approx(
            full.critical_path_delay
        )
        assert inc.critical_path_delay <= before

    def test_critical_path_valid(self, adder8_dag):
        rng = np.random.default_rng(22)
        delay = rng.uniform(0.5, 4.0, size=adder8_dag.n)
        inc = IncrementalArrivalTimes(adder8_dag, delay)
        path = inc.critical_path()
        total = sum(delay[v] for v in path)
        assert total == pytest.approx(inc.critical_path_delay)


class TestRequiredTimes:
    """AT/RT/slack parity with from-scratch STA (the tentpole contract)."""

    @pytest.mark.parametrize(
        "circuit_fixture", ["c17_gate_dag", "adder8_dag", "c17_transistor_dag"]
    )
    def test_random_update_sequences(self, request, circuit_fixture):
        dag = request.getfixturevalue(circuit_fixture)
        rng = np.random.default_rng(31)
        delay = rng.uniform(0.5, 4.0, size=dag.n)
        inc = IncrementalTimer(dag, delay)
        timer = GraphTimer(dag)
        for _ in range(80):
            k = int(rng.integers(1, max(2, dag.n // 3)))
            changed = rng.integers(0, dag.n, size=k).tolist()
            delay = delay.copy()
            delay[changed] = rng.uniform(0.2, 6.0, size=k)
            inc.update_delays(changed, delay)
            assert_matches_full(inc, timer, delay)

    def test_scalar_and_vector_paths_agree(self, adder8_dag):
        """Small seeds (heap walk) and bulk seeds (CSR waves) must
        produce the same state as full STA — and as each other."""
        dag = adder8_dag
        rng = np.random.default_rng(32)
        delay = rng.uniform(0.5, 4.0, size=dag.n)
        timer = GraphTimer(dag)
        inc = IncrementalTimer(dag, delay)
        for size in [1, 2, SCALAR_SEED_LIMIT, SCALAR_SEED_LIMIT + 1, dag.n]:
            changed = rng.choice(dag.n, size=min(size, dag.n), replace=False)
            delay = delay.copy()
            delay[changed] = rng.uniform(0.2, 6.0, size=len(changed))
            inc.update_delays(changed.tolist(), delay)
            assert_matches_full(inc, timer, delay)

    def test_arbitrary_horizon_slack(self, adder8_dag):
        """RT is horizon-free: any horizon is served without updates."""
        dag = adder8_dag
        rng = np.random.default_rng(33)
        delay = rng.uniform(0.5, 4.0, size=dag.n)
        inc = IncrementalTimer(dag, delay)
        timer = GraphTimer(dag)
        cp = inc.critical_path_delay
        for horizon in [cp, 1.3 * cp, 2.0 * cp]:
            assert_matches_full(inc, timer, delay, horizon=horizon)

    def test_report_equivalent_to_analysis(self, adder8_dag):
        dag = adder8_dag
        rng = np.random.default_rng(34)
        delay = rng.uniform(0.5, 4.0, size=dag.n)
        inc = IncrementalTimer(dag, delay)
        report = inc.report()
        full = GraphTimer(dag).analyze(delay)
        assert report.horizon == full.horizon
        assert report.critical_vertex == full.critical_vertex
        assert report.critical_path() == full.critical_path()
        assert report.is_safe() == full.is_safe()

    def test_update_stats_cone(self, adder8_dag):
        """A single-vertex change touches a cone, not the circuit."""
        dag = adder8_dag
        delay = np.full(dag.n, 2.0)
        inc = IncrementalTimer(dag, delay)
        inc.required_times()  # flush so the next update is isolated
        source = dag.sources[0]
        delay = delay.copy()
        delay[source] = 2.5
        stats = inc.update_delays([source], delay)
        assert 0 < stats.at_repropagated
        assert stats.cone_fraction < 1.0
        # the lazy backward wave runs on the next RT query and lands
        # in the cumulative counters
        before = inc.total_repropagated
        inc.required_times()
        assert inc.total_repropagated >= before


class TestTilosEngines:
    """Incremental TILOS timing vs the reference loop that re-times the
    whole circuit with :class:`GraphTimer` after every bump."""

    @pytest.mark.parametrize("circuit_fixture", ["c17_gate_dag", "adder8_dag"])
    def test_engines_identical(self, request, tilos_reference, circuit_fixture):
        dag = request.getfixturevalue(circuit_fixture)
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.55 * d_min
        full = tilos_reference(dag, target)
        fast = tilos_size(dag, target)
        assert full.feasible == fast.feasible
        assert fast.iterations == full.iterations
        assert fast.x == pytest.approx(full.x)
        assert fast.area == pytest.approx(dag.area(full.x))

    def test_transistor_mode_engines_identical(
        self, c17_transistor_dag, tilos_reference
    ):
        dag = c17_transistor_dag
        d_min = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.6 * d_min
        full = tilos_reference(dag, target)
        fast = tilos_size(dag, target)
        assert fast.x == pytest.approx(full.x)

    def test_engine_validation(self):
        """Incremental timing is the only TILOS timer: no selector."""
        with pytest.raises(TypeError, match="engine"):
            TilosOptions(engine="warp")
