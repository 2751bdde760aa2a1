"""Ablation benchmark: D-phase solver backends (E-ABL in DESIGN.md).

The paper solves the D-phase with a network simplex [9]; this library
solves it with network simplex or HiGHS (repro.flow.duality).  This
benchmark times one D-phase solve per backend on the same instance and
asserts they agree on the objective — the evidence behind DESIGN.md's
solver-substitution note.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import get_context
from repro.balancing import balance
from repro.flow import BACKENDS
from repro.sizing import d_phase

_GAINS: dict[str, float] = {}


def _instance():
    context = get_context("c432eq", 0.4)
    seed = context.seed
    delays = context.dag.delays(seed.x)
    config = balance(
        context.dag, delays, horizon=context.target, timer=context.timer
    )
    load = delays - context.dag.model.intrinsic
    return context.dag, seed.x, config, -0.25 * load, 0.25 * load


@pytest.mark.parametrize("backend", BACKENDS)
def test_dphase_backend(benchmark, backend):
    dag, x, config, min_dd, max_dd = _instance()

    def solve():
        return d_phase(dag, x, config, min_dd, max_dd, backend=backend)

    result = benchmark(solve)
    _GAINS[backend] = result.predicted_gain
    benchmark.extra_info["predicted_gain"] = result.predicted_gain
    assert result.predicted_gain >= 0


def test_backends_agree(benchmark):
    def check():
        values = list(_GAINS.values())
        return max(values) - min(values)

    if len(_GAINS) == len(BACKENDS):
        spread = benchmark(check)
        scale = max(abs(v) for v in _GAINS.values()) or 1.0
        assert spread <= 1e-5 * scale
    else:  # ran standalone: nothing to compare
        benchmark(lambda: None)
