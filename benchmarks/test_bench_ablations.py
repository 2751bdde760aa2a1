"""Ablation benchmarks for the design choices DESIGN.md calls out.

* balancing configuration fed to the D-phase (asap / alap / dfs),
* trust-region width alpha,
* TILOS bump batching,
* gate sizing vs true transistor sizing on the same circuit.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import get_context, once
from repro.dag import build_sizing_dag
from repro.generators import ripple_carry_adder
from repro.circuit import map_to_primitives
from repro.sizing import MinfloOptions, TilosOptions, minflotransit, tilos_size
from repro.tech import default_technology
from repro.timing import analyze


@pytest.mark.parametrize("method", ["asap", "alap", "dfs"])
def test_ablation_balancing(benchmark, method):
    context = get_context("c432eq", 0.4)
    options = MinfloOptions(balancing=method)

    def run():
        return minflotransit(
            context.dag, context.target, options, x0=context.seed.x
        )

    result = once(benchmark, run)
    benchmark.extra_info["area"] = result.area
    benchmark.extra_info["iterations"] = result.n_iterations
    assert result.meets_target


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5])
def test_ablation_trust_region(benchmark, alpha):
    context = get_context("c432eq", 0.4)
    options = MinfloOptions(alpha=alpha)

    def run():
        return minflotransit(
            context.dag, context.target, options, x0=context.seed.x
        )

    result = once(benchmark, run)
    benchmark.extra_info["area"] = result.area
    benchmark.extra_info["iterations"] = result.n_iterations
    assert result.meets_target


@pytest.mark.parametrize("batch", [1, 4, 16])
def test_ablation_tilos_batch(benchmark, batch):
    context = get_context("c499eq", 0.57)

    def run():
        return tilos_size(
            context.dag, context.target, TilosOptions(batch=batch)
        )

    result = once(benchmark, run)
    benchmark.extra_info["area"] = result.area
    benchmark.extra_info["bumps"] = result.iterations
    assert result.feasible


@pytest.mark.parametrize("mode", ["gate", "transistor"])
def test_ablation_sizing_granularity(benchmark, mode):
    """True transistor sizing beats gate sizing on area (more degrees of
    freedom) at the same target — the paper's motivation for the harder
    problem."""
    circuit = map_to_primitives(ripple_carry_adder(4, style="nand"))
    tech = default_technology()
    dag = build_sizing_dag(circuit, tech, mode=mode)
    d_min = analyze(dag, dag.min_sizes()).critical_path_delay

    def run():
        return minflotransit(dag, 0.5 * d_min)

    result = once(benchmark, run)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["normalized_area"] = result.area / dag.area(
        dag.min_sizes()
    )
    assert result.meets_target
