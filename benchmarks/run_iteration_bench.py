"""Iteration-engine benchmark: the incremental timing cone.

A TILOS run (incremental timing) reports how many vertices it
actually re-propagated per bump, against the ``2 * n`` a from-scratch
forward/backward STA would touch (acceptance target: < 50%), on the
smoke-tier instances.

Emits a machine-readable ``BENCH_iteration.json``; the committed copy
records the accepted numbers (see ``benchmarks/README.md``).

Usage::

    PYTHONPATH=src python benchmarks/run_iteration_bench.py \
        [--tier smoke|paper] [--out benchmarks/BENCH_iteration.json] \
        [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dag import build_sizing_dag  # noqa: E402
from repro.generators.iscas import SUITE, build_circuit  # noqa: E402
from repro.sizing import tilos_size  # noqa: E402
from repro.tech import default_technology  # noqa: E402
from repro.timing import GraphTimer  # noqa: E402

SCHEMA = "repro-bench-iteration/2"
TARGET_CONE_FRACTION = 0.5


def tier_circuits(tier: str) -> list[tuple[str, float]]:
    return [
        (spec.name, spec.delay_spec)
        for spec in SUITE
        if tier == "paper" or spec.tier == "smoke"
    ]


def bench_circuit(name: str, spec: float) -> dict:
    """TILOS incremental-timing cone telemetry for one circuit."""
    circuit = build_circuit(name)
    dag = build_sizing_dag(circuit, default_technology(), mode="gate")
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    seed = tilos_size(dag, spec * d_min)
    tstats = seed.timing_stats
    return {
        "name": name,
        "delay_spec": spec,
        "n_vertices": dag.n,
        "tilos": {
            "feasible": seed.feasible,
            "bumps": seed.iterations,
            "repropagated_vertices": tstats["repropagated_vertices"],
            "full_pass_equivalent": tstats["full_pass_equivalent"],
            "cone_fraction": round(tstats["cone_fraction"], 4),
        },
    }


def run(tier: str) -> dict:
    results = []
    for name, spec in tier_circuits(tier):
        print(f"[bench] {name} (spec {spec}) ...", flush=True)
        entry = bench_circuit(name, spec)
        tilos = entry["tilos"]
        print(
            f"[bench]   tilos cone {100 * tilos['cone_fraction']:.1f}% "
            f"over {tilos['bumps']} bumps",
            flush=True,
        )
        results.append(entry)

    feasible = [e for e in results if e["tilos"]["feasible"]]
    worst_cone = max(
        (e["tilos"]["cone_fraction"] for e in feasible), default=0.0
    )
    return {
        "schema": SCHEMA,
        "tier": tier,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "circuits": results,
        "summary": {
            "worst_tilos_cone_fraction": round(worst_cone, 4),
            "target_cone_fraction": TARGET_CONE_FRACTION,
            "cone_ok": bool(worst_cone < TARGET_CONE_FRACTION),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default=None, choices=["smoke", "paper"],
                        help="circuit tier (default: $REPRO_BENCH_TIER "
                             "or 'smoke')")
    parser.add_argument("--out", default="BENCH_iteration.json")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the cone acceptance target holds")
    args = parser.parse_args(argv)

    tier = args.tier or os.environ.get("REPRO_BENCH_TIER", "smoke")
    report = run(tier)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"[bench] wrote {args.out}")
    print(
        f"[bench] worst tilos cone "
        f"{summary['worst_tilos_cone_fraction']} (target < "
        f"{TARGET_CONE_FRACTION})"
    )
    if args.check and not summary["cone_ok"]:
        print("[bench] FAIL: incremental timing re-propagated "
              ">= 50% of a full pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
