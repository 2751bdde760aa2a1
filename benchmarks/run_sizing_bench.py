"""Sizing-kernel benchmark: scalar vs vectorized W-phase and TILOS.

Measures the two sizing-phase kernels this library provides (see
``src/repro/sizing/kernels.py``) on the same instance, in the same
process, so the scalar/vectorized ratios survive CI runner changes:

* **W-phase SMP relaxation** — ``w_phase`` with ``engine="scalar"``
  (per-vertex Gauss-Seidel) vs ``engine="vectorized"`` (level-blocked
  CSR kernel) on identical budgets; best-of-3 wall times, and the
  results are asserted identical (same sweep count, same clamped set,
  sizes equal to 1e-9).

* **TILOS sensitivity kernel** — a full greedy run per kernel at the
  circuit's delay spec; wall time, bump count and bump throughput,
  plus the kernel's scan/refresh split.  Bump sequences must agree
  exactly (same iteration count, final sizes equal to 1e-9).

* **End-to-end W/D iterations** — ``minflotransit`` replayed from the
  same TILOS seed with each W-phase kernel (a few iterations); the
  per-phase wall-time split shows how much of an iteration the W-phase
  is before/after vectorization.

* **Batched campaign tier** — a 200-job ``wphase`` campaign (20 small
  circuits x 10 delay specs) run twice: the per-job loop vs
  ``batch=True`` (one stacked kernel call per compatible group, see
  ``src/repro/sizing/batch.py``).  Per-job payloads must be
  byte-identical after stripping wall-clock fields; the throughput
  ratio is the gated signal.

The structural speedup depends on level width: wide DAGs (the array
multiplier, shallow random logic) relax hundreds of vertices per numpy
call, while a ripple-carry adder is almost serial (its dependency
levels hold a handful of vertices), which bounds any blocked kernel —
the benchmark includes both shapes on purpose.  The committed
``benchmarks/BENCH_sizing.json`` is the regression baseline for
``check_regression.py``; the acceptance gate (``--check``) requires
parity everywhere, a >= 3x vectorized W-phase speedup on the
largest benchmarked circuit, and a >= 3x batched-campaign throughput
ratio.

Usage::

    PYTHONPATH=src python benchmarks/run_sizing_bench.py \
        [--tier smoke|paper] [--out benchmarks/BENCH_sizing.json] \
        [--iterations 6] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dag import build_sizing_dag  # noqa: E402
from repro.generators import build_circuit, ripple_carry_adder  # noqa: E402
from repro.generators.multipliers import array_multiplier  # noqa: E402
from repro.generators.random_logic import random_logic  # noqa: E402
from repro.sizing import (  # noqa: E402
    MinfloOptions,
    TilosOptions,
    minflotransit,
    tilos_size,
    w_phase,
)
from repro.sizing.kernels import get_smp_plan  # noqa: E402
from repro.tech import default_technology  # noqa: E402
from repro.timing import GraphTimer  # noqa: E402

SCHEMA = "repro-bench-sizing/1"
TARGET_W_SPEEDUP = 3.0
#: Required throughput ratio of the batched campaign over the per-job
#: loop on the 200-small-job sweep (both sides same process/machine).
BATCH_TARGET_RATIO = 3.0
PARITY_ATOL = 1e-9
KERNELS = ("scalar", "vectorized")


def tier_circuits(tier: str) -> list[dict]:
    """The benchmarked instances: suite rows, rca:N, wide synthetics."""
    smoke = [
        {"name": "c432eq", "build": lambda: build_circuit("c432eq"),
         "spec": 0.5, "iterations": True},
        {"name": "c880eq", "build": lambda: build_circuit("c880eq"),
         "spec": 0.5, "iterations": True},
        # Deep and narrow: dependency levels hold ~5 vertices, the
        # worst case for any blocked kernel (kept honest on purpose).
        {"name": "rca:64",
         "build": lambda: ripple_carry_adder(64, style="nand"),
         "spec": 0.6, "iterations": True},
        # Wide and shallow: hundreds of vertices per level, the shape
        # the vectorized kernels exist for.  Largest smoke instance.
        {"name": "rand4k",
         "build": lambda: random_logic(
             4000, n_inputs=64, n_outputs=32, seed=7, locality=512),
         "spec": 0.7, "iterations": False},
    ]
    if tier != "paper":
        return smoke
    return smoke + [
        {"name": "mult16", "build": lambda: array_multiplier(16),
         "spec": 0.55, "iterations": False},
        {"name": "rca:256",
         "build": lambda: ripple_carry_adder(256, style="nand"),
         "spec": 0.6, "iterations": False},
    ]


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_w_phase(dag, failures: list[str], name: str) -> dict:
    """Scalar vs vectorized W-phase on identical budgets."""
    x_ref = dag.min_sizes() * 2.0
    budgets = dag.delays(x_ref)
    get_smp_plan(dag)  # build (and time-exclude) the cached level plan
    results = {k: w_phase(dag, budgets, engine=k) for k in KERNELS}
    times = {
        k: _best_of(lambda k=k: w_phase(dag, budgets, engine=k))
        for k in KERNELS
    }
    scalar, vectorized = results["scalar"], results["vectorized"]
    size_gap = float(np.max(np.abs(scalar.x - vectorized.x)))
    if size_gap > PARITY_ATOL:
        failures.append(f"{name}: W-phase sizes diverge by {size_gap:.3g}")
    if scalar.sweeps != vectorized.sweeps:
        failures.append(
            f"{name}: W-phase sweep counts diverge "
            f"({scalar.sweeps} vs {vectorized.sweeps})"
        )
    if scalar.clamped != vectorized.clamped:
        failures.append(f"{name}: W-phase clamped sets diverge")
    plan = get_smp_plan(dag)
    return {
        "sweeps": scalar.sweeps,
        "n_levels": plan.n_levels,
        "max_size_gap": size_gap,
        "scalar_seconds": round(times["scalar"], 6),
        "vectorized_seconds": round(times["vectorized"], 6),
        "speedup": round(times["scalar"] / times["vectorized"], 3),
    }


def bench_tilos(dag, target, failures, name) -> tuple[dict, object]:
    """Scalar vs vectorized TILOS kernels; returns (entry, seed run)."""
    runs = {
        k: tilos_size(dag, target, TilosOptions(kernel=k)) for k in KERNELS
    }
    scalar, vectorized = runs["scalar"], runs["vectorized"]
    if scalar.iterations != vectorized.iterations:
        failures.append(
            f"{name}: TILOS bump counts diverge "
            f"({scalar.iterations} vs {vectorized.iterations})"
        )
    size_gap = float(np.max(np.abs(scalar.x - vectorized.x)))
    if size_gap > PARITY_ATOL:
        failures.append(f"{name}: TILOS sizes diverge by {size_gap:.3g}")
    entry: dict = {"feasible": scalar.feasible, "bumps": scalar.iterations,
                   "max_size_gap": size_gap}
    for kernel, run in runs.items():
        entry[kernel] = {
            "seconds": round(run.runtime_seconds, 6),
            "bumps_per_second": round(
                run.iterations / run.runtime_seconds, 1
            ) if run.runtime_seconds > 0 else 0.0,
            "scan_seconds": round(
                run.timing_stats.get("scan_seconds", 0.0), 6),
            "refresh_seconds": round(
                run.timing_stats.get("refresh_seconds", 0.0), 6),
        }
    entry["speedup"] = round(
        scalar.runtime_seconds / vectorized.runtime_seconds, 3
    ) if vectorized.runtime_seconds > 0 else 0.0
    return entry, vectorized


def bench_iterations(
    dag, target: float, seed_x, iterations: int,
    failures: list[str], name: str,
) -> dict:
    """End-to-end W/D alternation from one seed, per W-phase kernel."""
    entry: dict = {"iterations": iterations}
    areas = {}
    for kernel in KERNELS:
        options = MinfloOptions(kernel=kernel, max_iterations=iterations)
        start = time.perf_counter()
        result = minflotransit(dag, target, options, x0=seed_x)
        wall = time.perf_counter() - start
        areas[kernel] = result.area
        entry[kernel] = {
            "seconds": round(wall, 6),
            "per_iteration_seconds": round(
                wall / max(result.n_iterations, 1), 6),
            "area": result.area,
            "w_sweeps": result.w_sweeps_total,
            "phase_seconds": {
                phase: round(seconds, 6)
                for phase, seconds in result.phase_seconds.items()
            },
        }
    gap = abs(areas["scalar"] - areas["vectorized"])
    if gap > 1e-6 * (1.0 + abs(areas["scalar"])):
        failures.append(
            f"{name}: end-to-end areas diverge by {gap:.3g} across kernels"
        )
    return entry


def bench_circuit(spec: dict, iterations: int, failures: list[str]) -> dict:
    """All three measurements for one benchmark instance."""
    circuit = spec["build"]()
    dag = build_sizing_dag(circuit, default_technology(), mode="gate")
    timer = GraphTimer(dag)
    d_min = timer.analyze(dag.delays(dag.min_sizes())).critical_path_delay
    target = spec["spec"] * d_min

    entry: dict = {
        "name": spec["name"],
        "delay_spec": spec["spec"],
        "n_vertices": dag.n,
        "n_edges": dag.n_edges,
        "w_phase": bench_w_phase(dag, failures, spec["name"]),
    }
    tilos_entry, seed = bench_tilos(dag, target, failures, spec["name"])
    entry["tilos"] = tilos_entry
    if spec["iterations"] and seed.feasible:
        entry["minflo"] = bench_iterations(
            dag, target, seed.x, iterations, failures, spec["name"]
        )
    return entry


def bench_batch(failures: list[str]) -> dict:
    """Batched vs per-job execution of a 200-small-job wphase campaign.

    Both sides run the identical job list with the cache disabled (the
    comparison is pure execution, not replay).  The per-job loop pays
    circuit resolution + DAG build + plan analysis + one kernel
    invocation *per job*; the batched strategy shares one context per
    distinct circuit and one stacked relaxation per compatible group.
    Byte-identity of every per-job payload (wall-clock fields
    stripped) is asserted into ``failures`` — a faster-but-different
    batch is a bug, not a win.
    """
    from repro.runner import run_campaign
    from repro.runner.spec import CampaignSpec
    from repro.sizing.serialize import canonical_json, comparable_payload

    spec = CampaignSpec(
        name="batch-bench",
        circuits=("c17",) + tuple(f"rca:{n}" for n in range(2, 21)),
        delay_specs=tuple(round(0.55 + 0.05 * i, 2) for i in range(10)),
        kind="wphase",
    )
    n_jobs = len(spec.jobs())
    start = time.perf_counter()
    loop = run_campaign(spec, cache=None)
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = run_campaign(spec, cache=None, batch=True)
    batch_seconds = time.perf_counter() - start

    mismatched = 0
    for a, b in zip(loop.outcomes, batched.outcomes):
        same = a.status == b.status and canonical_json(
            comparable_payload(a.payload)
        ) == canonical_json(comparable_payload(b.payload))
        if not same:
            mismatched += 1
            if mismatched <= 3:
                failures.append(
                    f"batch: {a.job.label()} diverges from the per-job loop"
                )
    if mismatched > 3:
        failures.append(f"batch: {mismatched} divergent jobs in total")
    stacked = [o for o in batched.outcomes if o.batch_size]
    ratio = loop_seconds / batch_seconds if batch_seconds > 0 else 0.0
    return {
        "n_jobs": n_jobs,
        "n_circuits": len(spec.circuits),
        "loop_seconds": round(loop_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "throughput_ratio": round(ratio, 3),
        "batched_jobs": len(stacked),
        "batched_solve_seconds": round(
            stacked[0].batched_seconds, 6
        ) if stacked else 0.0,
        "statuses": batched.counts(),
        "mismatched_payloads": mismatched,
    }


def run(tier: str, iterations: int) -> dict:
    """Benchmark every tier instance; returns the report document."""
    failures: list[str] = []
    circuits = []
    for spec in tier_circuits(tier):
        print(f"[bench] {spec['name']} (spec {spec['spec']}) ...",
              flush=True)
        entry = bench_circuit(spec, iterations, failures)
        print(
            f"[bench]   w-phase {entry['w_phase']['speedup']}x over "
            f"{entry['w_phase']['n_levels']} levels; tilos "
            f"{entry['tilos']['speedup']}x over "
            f"{entry['tilos']['bumps']} bumps",
            flush=True,
        )
        circuits.append(entry)

    print("[bench] batch campaign (200 wphase jobs) ...", flush=True)
    batch = bench_batch(failures)
    print(
        f"[bench]   batched {batch['throughput_ratio']}x over "
        f"{batch['n_jobs']} jobs "
        f"({batch['loop_seconds']:.2f}s -> {batch['batch_seconds']:.2f}s)",
        flush=True,
    )

    largest = max(circuits, key=lambda e: e["n_vertices"])
    return {
        "schema": SCHEMA,
        "tier": tier,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "circuits": circuits,
        "batch": batch,
        "summary": {
            "largest_circuit": largest["name"],
            "largest_w_speedup": largest["w_phase"]["speedup"],
            "target_w_speedup": TARGET_W_SPEEDUP,
            "w_speedup_ok": bool(
                largest["w_phase"]["speedup"] >= TARGET_W_SPEEDUP
            ),
            "batch_jobs": batch["n_jobs"],
            "batch_throughput_ratio": batch["throughput_ratio"],
            "target_batch_ratio": BATCH_TARGET_RATIO,
            "batch_ratio_ok": bool(
                batch["throughput_ratio"] >= BATCH_TARGET_RATIO
            ),
            "parity_ok": not failures,
            "parity_failures": failures,
        },
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; writes the report and applies ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default=None, choices=["smoke", "paper"],
                        help="circuit tier (default: $REPRO_BENCH_TIER "
                             "or 'smoke')")
    parser.add_argument("--out", default="BENCH_sizing.json")
    parser.add_argument("--iterations", type=int, default=6,
                        help="W/D iterations for the end-to-end replay")
    parser.add_argument("--check", action="store_true",
                        help="fail unless parity holds and the largest "
                             "circuit meets the W-phase speedup target")
    args = parser.parse_args(argv)

    tier = args.tier or os.environ.get("REPRO_BENCH_TIER", "smoke")
    report = run(tier, args.iterations)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"[bench] wrote {args.out}")
    print(
        f"[bench] largest circuit {summary['largest_circuit']}: "
        f"w-phase {summary['largest_w_speedup']}x "
        f"(target >= {TARGET_W_SPEEDUP}x); batch "
        f"{summary['batch_throughput_ratio']}x over "
        f"{summary['batch_jobs']} jobs "
        f"(target >= {BATCH_TARGET_RATIO}x); parity "
        f"{'ok' if summary['parity_ok'] else 'BROKEN'}"
    )
    if args.check:
        if not summary["parity_ok"]:
            for failure in summary["parity_failures"]:
                print(f"[bench] FAIL: {failure}", file=sys.stderr)
            return 1
        if not summary["w_speedup_ok"]:
            print(
                f"[bench] FAIL: vectorized W-phase speedup "
                f"{summary['largest_w_speedup']}x on "
                f"{summary['largest_circuit']} is below the "
                f"{TARGET_W_SPEEDUP}x target", file=sys.stderr,
            )
            return 1
        if not summary["batch_ratio_ok"]:
            print(
                f"[bench] FAIL: batched campaign throughput "
                f"{summary['batch_throughput_ratio']}x over "
                f"{summary['batch_jobs']} jobs is below the "
                f"{BATCH_TARGET_RATIO}x target", file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
