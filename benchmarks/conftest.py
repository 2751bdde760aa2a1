"""Shared machinery for the benchmark suite.

Tier control: set ``REPRO_BENCH_TIER=paper`` to run all twelve Table 1
rows and the real c6288 figure panel; the default ``smoke`` tier keeps
the wall-clock time of ``pytest benchmarks/ --benchmark-only`` in the
minutes range by restricting to circuits below ~500 gates.
"""

from __future__ import annotations

import pytest

from repro.dag import build_sizing_dag
from repro.generators.iscas import build_circuit
from repro.sizing import tilos_size
from repro.tech import default_technology
from repro.timing import GraphTimer


@pytest.fixture(scope="session")
def tech():
    return default_technology()


class SizingContext:
    """A circuit prepared for sizing benchmarks (built once per session)."""

    def __init__(self, name: str, spec: float, mode: str = "gate"):
        self.name = name
        self.spec = spec
        self.circuit = build_circuit(name)
        self.dag = build_sizing_dag(
            self.circuit, default_technology(), mode=mode
        )
        self.timer = GraphTimer(self.dag)
        self.x_min = self.dag.min_sizes()
        self.d_min = self.timer.analyze(
            self.dag.delays(self.x_min)
        ).critical_path_delay
        self.target = spec * self.d_min
        self._seed = None

    @property
    def seed(self):
        """TILOS solution at the target (computed lazily, cached)."""
        if self._seed is None:
            self._seed = tilos_size(self.dag, self.target)
        return self._seed


_CONTEXT_CACHE: dict[tuple[str, float, str], SizingContext] = {}


def get_context(name: str, spec: float, mode: str = "gate") -> SizingContext:
    key = (name, spec, mode)
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = SizingContext(name, spec, mode=mode)
    return _CONTEXT_CACHE[key]


def once(benchmark, fn, *args, **kwargs):
    """Run a heavy benchmark exactly once (no warmup repeats)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
