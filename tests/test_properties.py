"""Property-based tests (hypothesis) on the core invariants.

Random circuits and sizings exercise:

* STA consistency (slacks, edge slacks, critical path realization),
* delay-balancing legality on arbitrary DAGs and delay vectors,
* W-phase least-fixed-point minimality and monotonicity, and the
  level-blocked kernel against the per-vertex reference relaxation,
* flow/LP duality across solver backends,
* scale invariance of sizing decisions,
* cache-key invariance under job reordering,
* serialize round-trip identity on schema-v2 payloads,
* the structural digest deterministic, and TILOS trajectories on one
  instance prefixes of each other (what trajectory warm starts rest on).
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.balancing import balance, verify_configuration
from repro.circuit.mapping import map_to_primitives
from repro.dag import build_sizing_dag
from repro.flow import BACKENDS, DifferenceConstraintLP, solve_difference_lp
from repro.generators import random_logic
from repro.runner.cache import job_key
from repro.runner.executor import campaign_keys
from repro.runner.spec import Job, resolve_circuit
from repro.sizing import TilosOptions, tilos_size, w_phase
from repro.sizing.fingerprint import dag_digest
from repro.sizing.result import IterationRecord, SizingResult
from repro.sizing.serialize import (
    VOLATILE_PAYLOAD_KEYS,
    canonical_json,
    comparable_payload,
    result_from_dict,
    result_to_dict,
)
from repro.tech import default_technology
from repro.timing import GraphTimer

_TECH = default_technology()
_SETTINGS = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_dags(draw):
    n_gates = draw(st.integers(min_value=4, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    locality = draw(st.sampled_from([4, 12, 48]))
    circuit = random_logic(
        n_gates, n_inputs=4, n_outputs=3, seed=seed, locality=locality
    )
    return build_sizing_dag(circuit, _TECH, mode="gate")


@st.composite
def dag_with_delays(draw):
    dag = draw(small_dags())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    delay = rng.uniform(0.5, 10.0, size=dag.n)
    return dag, delay


class TestStaProperties:
    @given(dag_with_delays())
    @settings(**_SETTINGS)
    def test_slack_relations(self, case):
        dag, delay = case
        report = GraphTimer(dag).analyze(delay)
        # AT + delay <= CP on every vertex that reaches an output.
        finite = np.isfinite(report.rt)
        assert np.all(
            report.at[finite] + delay[finite]
            <= report.critical_path_delay + 1e-9
        )
        # Vertex slack >= 0 at horizon == CP; some vertex has zero slack.
        assert report.slack[finite].min() >= -1e-9
        assert report.slack[finite].min() == pytest.approx(0.0, abs=1e-6)
        # Edge slack >= 0 everywhere at the CP horizon.
        assert report.edge_slack.min() >= -1e-9

    @given(dag_with_delays())
    @settings(**_SETTINGS)
    def test_critical_path_realizes_cp(self, case):
        dag, delay = case
        report = GraphTimer(dag).analyze(delay)
        path = report.critical_path()
        total = sum(delay[v] for v in path)
        assert total == pytest.approx(report.critical_path_delay)
        for u, v in zip(path, path[1:]):
            assert v in dag.fanout[u]


class TestBalancingProperties:
    @given(dag_with_delays(), st.sampled_from(["asap", "alap", "dfs"]))
    @settings(**_SETTINGS)
    def test_balance_always_legal(self, case, method):
        dag, delay = case
        config = balance(dag, delay, method=method)
        verify_configuration(config)
        assert config.wire_fsdu.min() >= 0.0
        assert config.po_fsdu.min() >= 0.0

    @given(dag_with_delays(), st.floats(min_value=1.01, max_value=3.0))
    @settings(**_SETTINGS)
    def test_balance_with_relaxed_horizon(self, case, stretch):
        dag, delay = case
        timer = GraphTimer(dag)
        cp = timer.analyze(delay).critical_path_delay
        config = balance(dag, delay, horizon=stretch * cp, timer=timer)
        verify_configuration(config)


class TestWPhaseProperties:
    @given(small_dags(), st.integers(min_value=0, max_value=9999))
    @settings(**_SETTINGS)
    def test_least_fixed_point_dominates_nothing(self, dag, seed):
        """W-phase x is componentwise below the reference sizing whose
        delays define the budgets (minimality of the LFP)."""
        rng = np.random.default_rng(seed)
        x_ref = rng.uniform(1.0, 6.0, size=dag.n)
        budgets = dag.delays(x_ref)
        result = w_phase(dag, budgets)
        assert result.feasible
        assert np.all(result.x <= x_ref + 1e-8)
        assert np.all(result.delays <= budgets * (1 + 1e-8))

    @given(small_dags(), st.integers(min_value=0, max_value=9999))
    @settings(**_SETTINGS)
    def test_monotone_in_budgets(self, dag, seed):
        """Looser budgets never need larger sizes (antitone map)."""
        rng = np.random.default_rng(seed)
        x_ref = rng.uniform(1.5, 5.0, size=dag.n)
        budgets = dag.delays(x_ref)
        tight = w_phase(dag, budgets)
        loose = w_phase(dag, budgets * 1.25)
        assert np.all(loose.x <= tight.x + 1e-9)

    @given(small_dags(), st.integers(min_value=0, max_value=9999))
    @settings(**_SETTINGS)
    def test_matches_reference_relaxation(self, smp_reference, dag, seed):
        """The level-blocked W-phase reaches the per-vertex reference's
        fixed point: same sweeps and clamped set, sizes within 1e-10."""
        rng = np.random.default_rng(seed)
        x_ref = rng.uniform(1.0, 6.0, size=dag.n)
        budgets = dag.delays(x_ref) * rng.uniform(0.9, 1.2)
        result = w_phase(dag, budgets)
        reference = smp_reference(
            dag.model, budgets, dag.lower, dag.upper, dag.topo_order[::-1]
        )
        scale = float(np.max(np.abs(reference.x)))
        assert np.allclose(result.x, reference.x, rtol=0, atol=1e-10 * scale)
        assert result.sweeps == reference.sweeps
        assert result.clamped == reference.clamped


class TestFlowProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(**_SETTINGS)
    def test_backend_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        weights = rng.integers(-4, 5, size=n).astype(float)
        lp = DifferenceConstraintLP(
            n_nodes=n, weights=weights, pinned=frozenset({0})
        )
        for v in range(1, n):
            lp.add(v, 0, float(rng.integers(0, 8)))
            lp.add(0, v, float(rng.integers(0, 8)))
        for _ in range(3 * n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                lp.add(int(u), int(v), float(rng.integers(0, 10)))
        results = {
            backend: solve_difference_lp(lp, backend=backend)
            for backend in BACKENDS
        }
        objectives = [sol.objective for sol in results.values()]
        scale = 1.0 + max(abs(v) for v in objectives)
        assert max(objectives) - min(objectives) <= 1e-6 * scale
        for solution in results.values():
            # Feasible potentials: every backend's r satisfies all
            # difference constraints and pins.
            lp.check_feasible(solution.r)


class TestScaleInvariance:
    @given(st.integers(min_value=0, max_value=500))
    @settings(deadline=None, max_examples=8)
    def test_capacitance_scaling_scales_delays_only(self, seed):
        """Scaling all caps by k scales all delays by k and leaves the
        W-phase sizing unchanged (ratio-metric invariance that justifies
        the technology substitution in DESIGN.md)."""
        from repro.tech import scaled_technology

        circuit = random_logic(12, n_inputs=4, n_outputs=2, seed=seed)
        dag1 = build_sizing_dag(circuit, _TECH, mode="gate")
        dag2 = build_sizing_dag(circuit, scaled_technology(3.0), mode="gate")
        x = np.linspace(1.0, 4.0, dag1.n)
        d1, d2 = dag1.delays(x), dag2.delays(x)
        assert d2 == pytest.approx(3.0 * d1)
        budgets = d1 * 1.3
        r1 = w_phase(dag1, budgets)
        r2 = w_phase(dag2, budgets * 3.0)
        assert r2.x == pytest.approx(r1.x, rel=1e-9)


@st.composite
def job_lists(draw):
    """2-6 campaign jobs over cheap circuits (duplicates allowed)."""
    count = draw(st.integers(min_value=2, max_value=6))
    return [
        Job(
            circuit=draw(st.sampled_from(["c17", "rca:2", "rca:4", "rca:6"])),
            delay_spec=draw(st.sampled_from([0.6, 0.8, 1.0, 1.2])),
            mode=draw(st.sampled_from(["gate", "transistor"])),
        )
        for _ in range(count)
    ]


class TestCacheKeyProperties:
    @given(job_lists(), st.integers(min_value=0, max_value=10_000))
    @settings(**_SETTINGS)
    def test_keys_invariant_under_job_reordering(self, jobs, seed):
        """A job's cache key is a pure function of the job — never of
        its position in the campaign or of its neighbours (a resumed,
        filtered or reordered campaign must hit the same cache
        entries)."""
        order = np.random.default_rng(seed).permutation(len(jobs))
        sentinel = object()  # campaign_keys only tests `cache is None`
        forward = campaign_keys(jobs, sentinel)
        shuffled = campaign_keys([jobs[i] for i in order], sentinel)
        for position, i in enumerate(order):
            assert shuffled[position] == forward[i]
        for job, key in zip(jobs, forward):
            assert key == job_key(job)


@st.composite
def small_circuits(draw):
    """Random netlists (not yet DAGs)."""
    n_gates = draw(st.integers(min_value=4, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    locality = draw(st.sampled_from([4, 12, 48]))
    return random_logic(
        n_gates, n_inputs=4, n_outputs=3, seed=seed, locality=locality
    )


class TestFingerprintProperties:
    """The structural digest that keys trajectory records and gates
    their replay."""

    @given(small_circuits())
    @settings(**_SETTINGS)
    def test_digest_deterministic(self, circuit):
        """Rebuilding the DAG from the same netlist reproduces the
        digest exactly (what makes trajectory records usable across
        processes)."""
        dag1 = build_sizing_dag(circuit, _TECH, mode="gate")
        dag2 = build_sizing_dag(circuit, _TECH, mode="gate")
        assert dag_digest(dag1) == dag_digest(dag2)


def _assert_prefix(dag, loose: float, tight: float, batch: int) -> None:
    """The loose target's TILOS run is a prefix of the tight one's."""
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    options = TilosOptions(batch=batch)
    short = tilos_size(dag, loose * d_min, options, keep_trace=True)
    long = tilos_size(dag, tight * d_min, options, keep_trace=True)
    n = len(short.bumps)
    assert long.bumps[:n] == short.bumps
    assert long.trace[: n + 1] == short.trace


class TestTrajectoryPrefix:
    """All TILOS runs on one instance are prefixes of one trajectory:
    the bump choice reads the sizes, never the target.  The trajectory
    store rests on this (the longest stored record serves every
    target).  A target-aware bump choice would break it without the
    replay's own delay check noticing, because that check compares
    against the recorded delays."""

    @given(
        small_circuits(),
        st.sampled_from([0.95, 0.85, 0.75]),
        st.sampled_from([0.65, 0.55, 0.45]),
        st.sampled_from([1, 3]),
    )
    @settings(**_SETTINGS)
    def test_loose_run_prefixes_tight_run(self, circuit, loose, tight, batch):
        dag = build_sizing_dag(circuit, _TECH, mode="gate")
        _assert_prefix(dag, loose, tight, batch)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_transistor_mode_prefix(self, batch):
        circuit = map_to_primitives(resolve_circuit("rca:4"), suffix="")
        dag = build_sizing_dag(circuit, _TECH, mode="transistor")
        _assert_prefix(dag, 0.9, 0.6, batch)


_FINITE = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_FRACTION = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def sizing_results(draw):
    """Random schema-v2 SizingResults, including the per-iteration
    work counters."""
    n = draw(st.integers(min_value=1, max_value=12))
    x = np.array(
        draw(st.lists(
            st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
            min_size=n, max_size=n,
        ))
    )
    iterations = [
        IterationRecord(
            iteration=i,
            area=draw(_FINITE),
            critical_path_delay=draw(_FINITE),
            predicted_gain=draw(_FINITE),
            alpha=draw(_FRACTION),
            accepted=draw(st.booleans()),
            backend=draw(st.sampled_from(BACKENDS)),
            repropagated_vertices=draw(st.integers(0, 500)),
            cone_fraction=draw(_FRACTION),
            w_sweeps=draw(st.integers(0, 50)),
        )
        for i in range(draw(st.integers(0, 3)))
    ]
    return SizingResult(
        name=draw(st.sampled_from(["c17", "rca:8", "rand"])),
        mode=draw(st.sampled_from(["gate", "transistor"])),
        x=x,
        area=draw(_FINITE),
        critical_path_delay=draw(_FINITE),
        target=draw(st.floats(min_value=1e-3, max_value=1e6)),
        converged=draw(st.booleans()),
        runtime_seconds=draw(_FINITE),
        initial_area=draw(_FINITE),
        iterations=iterations,
    )


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-100, max_value=100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.one_of(
                st.sampled_from(sorted(VOLATILE_PAYLOAD_KEYS)),
                st.text(max_size=8),
            ),
            children,
            max_size=4,
        ),
    ),
    max_leaves=20,
)


def _volatile_keys_in(node) -> bool:
    if isinstance(node, dict):
        return any(key in VOLATILE_PAYLOAD_KEYS for key in node) or any(
            _volatile_keys_in(value) for value in node.values()
        )
    if isinstance(node, list):
        return any(_volatile_keys_in(value) for value in node)
    return False


class TestSerializeProperties:
    @given(sizing_results())
    @settings(**_SETTINGS)
    def test_round_trip_identity(self, result):
        """dict -> canonical JSON -> dict -> SizingResult -> dict is the
        identity on schema-v2 payloads (the cache stores the first form
        and replays must be byte-identical)."""
        first = result_to_dict(result)
        rebuilt = result_from_dict(json.loads(canonical_json(first)))
        assert np.array_equal(rebuilt.x, result.x)
        assert canonical_json(result_to_dict(rebuilt)) \
            == canonical_json(first)

    @given(_JSON_PAYLOADS)
    @settings(**_SETTINGS)
    def test_comparable_payload_strips_volatile_keys(self, payload):
        """comparable_payload removes every wall-clock key at every
        depth and is idempotent — the byte-identity checks (chaos,
        cross-replica, warm-vs-cold) compare exactly this normal form."""
        stripped = comparable_payload(payload)
        assert not _volatile_keys_in(stripped)
        assert comparable_payload(stripped) == stripped
        # Exactly the wall-clock keys something still writes: the
        # TILOS/MINFLOTRANSIT CPU times, job-record wall times, and the
        # observability fields (two runs of the same job carry
        # different trace/span identities and monotonic durations, yet
        # must stay byte-comparable).  Spans are the only solver timer,
        # so no retired per-phase or per-solve timer key remains.
        assert VOLATILE_PAYLOAD_KEYS == {
            "runtime_seconds", "wall_seconds",
            "trace_id", "span_id", "parent_id", "spans", "duration_s",
        }
