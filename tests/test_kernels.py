"""Parity tests: the sizing kernels vs their reference loops.

The production W-phase (:func:`repro.sizing.w_phase`, the level-blocked
relaxation of :mod:`repro.sizing.kernels`) is held to the per-vertex
Gauss-Seidel oracle ``reference_smp``: same clamped set, same sweep
count, sizes within 1e-10 of the largest size (the row dot products sum
in a different order, so the two agree to ulps, not bitwise).  The
production TILOS (:func:`repro.sizing.tilos_size`: array scoring plus
incremental timing) is held to ``reference_tilos`` (a per-candidate
scan, fully re-timed after every bump): the identical bump sequence
and bitwise-equal sizes.  Both oracles live in ``tests/conftest.py``.
Randomized instances over gate- and transistor-mode circuits keep the
claims honest.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.dag import build_sizing_dag
from repro.errors import RunnerError, SizingError
from repro.generators import build_circuit, ripple_carry_adder
from repro.generators.random_logic import random_logic
from repro.runner.spec import normalize_options
from repro.sizing import (
    MinfloOptions,
    TilosOptions,
    minflotransit,
    tilos_size,
    w_phase,
)
from repro.sizing import minflo as minflo_module
from repro.sizing.kernels import (
    build_smp_plan,
    get_smp_plan,
    get_tilos_plan,
)
from repro.sizing.serialize import (
    canonical_json,
    result_from_dict,
    result_to_dict,
)
from repro.sizing.wphase import WPhaseResult
from repro.tech import default_technology
from repro.timing import analyze


@pytest.fixture(scope="module")
def wide_dag():
    """A shallow, wide random-logic DAG (many vertices per level)."""
    circuit = random_logic(
        300, n_inputs=24, n_outputs=12, seed=11, locality=96
    )
    return build_sizing_dag(circuit, default_technology(), mode="gate")


def _dags(request):
    return [
        request.getfixturevalue("c17_gate_dag"),
        request.getfixturevalue("c17_transistor_dag"),
        request.getfixturevalue("adder8_dag"),
        request.getfixturevalue("wide_dag"),
    ]


def _reference_w_phase(smp_reference, dag, budgets):
    return smp_reference(
        dag.model, budgets, dag.lower, dag.upper, dag.topo_order[::-1]
    )


def _assert_same_bumps(production, reference):
    assert production.iterations == reference.iterations
    assert production.feasible == reference.feasible
    assert production.bumps == reference.bumps
    assert np.array_equal(production.x, reference.x)  # bitwise
    assert np.allclose(
        production.trace, reference.trace,
        rtol=1e-10, atol=1e-10 * max(reference.trace[0], 1.0),
    )


class TestSmpParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_budgets_match(self, request, smp_reference, seed):
        """Fixed point, clamped set and sweep count agree per instance."""
        for dag in _dags(request):
            rng = np.random.default_rng(seed)
            x_ref = rng.uniform(
                dag.lower, np.minimum(dag.upper, dag.lower * 8)
            )
            budgets = dag.delays(x_ref)
            reference = _reference_w_phase(smp_reference, dag, budgets)
            production = w_phase(dag, budgets)
            scale = float(np.max(np.abs(reference.x)))
            assert np.allclose(
                reference.x, production.x, rtol=0, atol=1e-10 * scale
            )
            assert reference.clamped == production.clamped
            assert reference.sweeps == production.sweeps

    def test_clamped_instance_matches(self, c17_gate_dag, smp_reference):
        """Infeasible budgets clamp the same vertices in both solvers."""
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        victim = int(np.argmax(dag.model.b))
        budgets[victim] = dag.model.intrinsic[victim] + 1e-3
        reference = _reference_w_phase(smp_reference, dag, budgets)
        production = w_phase(dag, budgets)
        assert not production.feasible
        assert reference.clamped == production.clamped
        assert reference.sweeps == production.sweeps

    def test_budget_below_intrinsic_raises_in_both(
        self, c17_gate_dag, smp_reference
    ):
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes())
        budgets[0] = dag.model.intrinsic[0] * 0.5
        with pytest.raises(SizingError, match="intrinsic"):
            w_phase(dag, budgets)
        with pytest.raises(SizingError, match="intrinsic"):
            _reference_w_phase(smp_reference, dag, budgets)

    def test_unknown_engine_rejected(self, c17_gate_dag):
        """The W-phase has one engine: no selector is accepted."""
        dag = c17_gate_dag
        budgets = dag.delays(dag.min_sizes() * 2)
        for engine in ("scalar", "vectorized"):
            with pytest.raises(TypeError, match="engine"):
                w_phase(dag, budgets, engine=engine)
        fields = {f.name for f in dataclasses.fields(WPhaseResult)}
        assert "engine" not in fields and "warm" not in fields


class TestSmpPlan:
    def test_plan_is_cached_per_dag(self, c17_gate_dag):
        assert get_smp_plan(c17_gate_dag) is get_smp_plan(c17_gate_dag)

    def test_levels_respect_read_order(self, request):
        """Every coupling read sees the value the per-vertex sweep sees.

        For ``a_ij != 0``: a dependency earlier in the sweep order must
        sit in a strictly earlier level (updated read); a later one
        must not sit in an earlier level (stale read).
        """
        for dag in _dags(request):
            plan = get_smp_plan(dag)
            order = dag.topo_order[::-1]
            rank = np.empty(dag.n, dtype=np.int64)
            rank[order] = np.arange(dag.n)
            coo = dag.model.a_matrix.tocoo()
            for i, j in zip(coo.row, coo.col):
                if rank[j] < rank[i]:
                    assert plan.level[i] > plan.level[j]
                else:
                    assert plan.level[i] <= plan.level[j]

    def test_blocks_cover_loaded_vertices_once(self, c17_transistor_dag):
        dag = c17_transistor_dag
        plan = get_smp_plan(dag)
        covered = np.concatenate([rows for rows, _ in plan.blocks])
        assert len(covered) == len(set(covered.tolist()))
        no_load = (dag.model.b == 0) & (
            np.diff(dag.model.a_matrix.indptr) == 0
        )
        assert set(covered.tolist()) == set(
            np.flatnonzero(~no_load).tolist()
        )

    def test_mismatched_sweep_order_rejected(self, c17_gate_dag):
        dag = c17_gate_dag
        with pytest.raises(SizingError, match="sweep order"):
            build_smp_plan(dag.model, dag.topo_order[:3])


class TestTilosParity:
    @pytest.mark.parametrize("ratio", [0.8, 0.6])
    def test_identical_bump_sequence(self, request, tilos_reference, ratio):
        """Production bumps the reference's vertices in the same order."""
        for dag in _dags(request):
            dmin = analyze(dag, dag.min_sizes()).critical_path_delay
            target = ratio * dmin
            _assert_same_bumps(
                tilos_size(dag, target, keep_trace=True),
                tilos_reference(dag, target),
            )

    def test_c432eq_bump_sequence(self, tilos_reference):
        """A Table 1 circuit at its smoke spec: 1289 identical bumps."""
        dag = build_sizing_dag(
            build_circuit("c432eq"), default_technology(), mode="gate"
        )
        target = 0.5 * analyze(dag, dag.min_sizes()).critical_path_delay
        production = tilos_size(dag, target, keep_trace=True)
        _assert_same_bumps(production, tilos_reference(dag, target))
        assert production.iterations == 1289

    def test_batch_mode_parity(self, adder8_dag, tilos_reference):
        dag = adder8_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        options = TilosOptions(batch=4)
        _assert_same_bumps(
            tilos_size(dag, 0.6 * dmin, options, keep_trace=True),
            tilos_reference(dag, 0.6 * dmin, options),
        )

    def test_kernel_recorded_in_timing_stats(self, c17_gate_dag):
        """The timer's cone counters land in ``timing_stats``; no
        timer, engine or kernel label does (spans time the run)."""
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = tilos_size(dag, 0.8 * dmin)
        stats = result.timing_stats
        assert set(stats) == {
            "updates", "repropagated_vertices", "full_pass_equivalent",
            "cone_fraction",
        }
        assert stats["updates"] == result.iterations
        assert stats["full_pass_equivalent"] == 2 * dag.n * result.iterations
        assert 0.0 < stats["cone_fraction"] < 1.0

    def test_kernel_validation(self):
        """TILOS has one kernel and one timer: no selector is accepted."""
        for name in ("kernel", "engine"):
            with pytest.raises(TypeError, match=name):
                TilosOptions(**{name: "scalar"})
        with pytest.raises(TypeError, match="timer"):
            tilos_size(None, 1.0, timer=None)


class TestTilosPlan:
    def test_plan_is_cached_per_dag(self, c17_gate_dag):
        assert get_tilos_plan(c17_gate_dag) is get_tilos_plan(c17_gate_dag)

    def test_coupling_matches_matrix(self, request):
        for dag in _dags(request):
            plan = get_tilos_plan(dag)
            coo = dag.model.a_matrix.tocoo()
            assert plan.edge_keys.size == coo.nnz
            rows = coo.row.astype(np.int64)
            cols = coo.col.astype(np.int64)
            looked_up = plan.coupling_at(rows, cols)
            assert np.array_equal(looked_up, coo.data)

    def test_coupling_at_misses_are_zero(self, c17_gate_dag):
        plan = get_tilos_plan(c17_gate_dag)
        dense = c17_gate_dag.model.a_matrix.toarray()
        rng = np.random.default_rng(5)
        rows = rng.integers(0, c17_gate_dag.n, size=64)
        cols = rng.integers(0, c17_gate_dag.n, size=64)
        assert np.array_equal(
            plan.coupling_at(rows, cols), dense[rows, cols]
        )

    def test_dependents_match_transpose(self, c17_transistor_dag):
        dag = c17_transistor_dag
        plan = get_tilos_plan(dag)
        transpose = dag.model.a_matrix.T.tocsr()
        for v in range(dag.n):
            expected = transpose.indices[
                transpose.indptr[v]:transpose.indptr[v + 1]
            ]
            assert np.array_equal(plan.dependents(v), expected)


class TestMinfloKernel:
    def test_end_to_end_parity(
        self, c17_gate_dag, smp_reference, monkeypatch
    ):
        """The full W/D alternation lands where the reference W-phase
        takes it."""
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        target = 0.7 * dmin
        options = MinfloOptions(max_iterations=8)
        production = minflotransit(dag, target, options)

        def reference_w_phase(dag, budgets):
            result = _reference_w_phase(smp_reference, dag, budgets)
            return WPhaseResult(
                x=result.x,
                delays=dag.model.delays(result.x),
                budgets=np.asarray(budgets, dtype=float),
                clamped=result.clamped,
                sweeps=result.sweeps,
            )

        monkeypatch.setattr(minflo_module, "w_phase", reference_w_phase)
        reference = minflotransit(dag, target, options)
        assert reference.area == pytest.approx(production.area, rel=1e-9)
        assert np.allclose(reference.x, production.x, rtol=0, atol=1e-9)
        assert [rec.w_sweeps for rec in reference.iterations] == [
            rec.w_sweeps for rec in production.iterations
        ]
        assert all(rec.w_sweeps >= 1 for rec in production.iterations)
        assert production.w_sweeps_total >= production.n_iterations

    def test_kernel_option_validation(self):
        """``kernel`` is not a MINFLOTRANSIT option any more, so neither
        the dataclass nor a campaign/service override accepts it."""
        with pytest.raises(TypeError, match="kernel"):
            MinfloOptions(kernel="vectorized")
        with pytest.raises(RunnerError, match="kernel"):
            normalize_options({"kernel": "scalar"})

    def test_kernel_counters_round_trip(self, c17_gate_dag):
        """serialize keeps the deterministic counters; loaders tolerate
        their absence and ignore the retired wall-time map and kernel
        label of older v2 documents."""
        dag = c17_gate_dag
        dmin = analyze(dag, dag.min_sizes()).critical_path_delay
        result = minflotransit(
            dag, 0.8 * dmin, MinfloOptions(max_iterations=4)
        )
        payload = result_to_dict(result)
        assert "phase_seconds" not in payload
        assert set(payload["iterations"][0]) == {
            "iteration", "area", "critical_path_delay", "predicted_gain",
            "alpha", "accepted", "backend", "repropagated_vertices",
            "cone_fraction", "w_sweeps",
        }
        loaded = result_from_dict(payload)
        assert loaded.iterations == result.iterations
        # Documents written with the retired fields still load, to the
        # same result.
        older = json.loads(json.dumps(payload))
        older["phase_seconds"] = {"timing": 0.1, "d_phase": 0.2}
        for rec in older["iterations"]:
            rec["kernel"] = "vectorized"
        assert result_from_dict(older).iterations == result.iterations
        assert canonical_json(result_to_dict(result_from_dict(older))) == (
            canonical_json(payload)
        )
        # Documents written before the counters existed still load.
        for rec in payload["iterations"]:
            rec.pop("w_sweeps")
        legacy = result_from_dict(payload)
        assert all(rec.w_sweeps == 0 for rec in legacy.iterations)


def _smoke_dag(name: str):
    if name == "rand4k":
        circuit = random_logic(
            4000, n_inputs=64, n_outputs=32, seed=7, locality=512
        )
    elif name.startswith("rca:"):
        circuit = ripple_carry_adder(int(name.split(":")[1]), style="nand")
    else:
        circuit = build_circuit(name)
    return build_sizing_dag(circuit, default_technology(), mode="gate")


#: Smoke instances with their exact TILOS bump counts at their specs;
#: ``rand4k`` is wide and shallow (hundreds of vertices per level).
_SMOKE_BUMPS = [("c432eq", 0.5, 1289), ("c880eq", 0.5, 2511),
                ("rca:64", 0.6, 971), ("rand4k", 0.7, 735)]

#: Vertices the incremental timer re-propagates over those TILOS runs.
_SMOKE_REPROPAGATED = {"c432eq": 102_661, "c880eq": 141_752,
                       "rca:64": 188_019, "rand4k": 894_886}


class TestWorkCounters:
    """Deterministic work counters on the smoke instances: a change
    here means the algorithm changed, whatever the machine's speed."""

    @pytest.mark.parametrize("name,spec,bumps", _SMOKE_BUMPS)
    def test_tilos_bump_count(self, name, spec, bumps):
        """Exact bumps and timing-cone work; each bump re-times well
        under half of what a full forward + backward pass touches."""
        dag = _smoke_dag(name)
        target = spec * analyze(dag, dag.min_sizes()).critical_path_delay
        result = tilos_size(dag, target)
        assert result.feasible
        assert result.iterations == bumps
        stats = result.timing_stats
        assert stats["repropagated_vertices"] == _SMOKE_REPROPAGATED[name]
        assert stats["cone_fraction"] < 0.5

    @pytest.mark.parametrize("name", [name for name, _, _ in _SMOKE_BUMPS])
    def test_wphase_sweep_count(self, name):
        """Budgets met at twice the minimum sizes relax in two sweeps:
        one backward-substitution pass, one to confirm nothing moves."""
        dag = _smoke_dag(name)
        result = w_phase(dag, dag.delays(dag.min_sizes() * 2.0))
        assert result.feasible
        assert result.sweeps == 2
