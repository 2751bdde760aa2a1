"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures and prints
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the
workload again with the layer wrappers installed (``ledger.py``) and
prints every per-layer metric.  Both check the program's outputs.  The
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``error_rate`` is ``failed / attempted``: failed, timed-out, refused
and check-failing operations over every operation attempted.  A
summary (request accounting, notes, failed checks) goes to stderr.
Work files live under ``.perfbench/`` in the checkout and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback

from common import ROOT, SRC, Child

#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to benchmark under {ROOT} "
              "(expected src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    import services
    import sweep

    work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if workload.name == "sizing-sweep":
            run_workload = sweep.trace if args.trace else sweep.measure
            outcome = run_workload(seed, seconds, work, deadline)
        else:
            run_workload = services.trace if args.trace else services.measure
            outcome = run_workload(workload.name, seed, seconds, work)
    except Exception:  # noqa: BLE001 — report, exit non-zero, print no result
        traceback.print_exc()
        print(f"perfbench: run failed; work files kept in {work}", file=sys.stderr)
        return 1
    finally:
        Child.kill_all()
    shutil.rmtree(work, ignore_errors=True)
    try:
        (ROOT / ".perfbench").rmdir()
    except OSError:
        pass  # another run's files are still there

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            metrics[name] = {"value": outcome.metrics[name], "unit": entry["unit"]}
    missing = sorted(
        {e["name"] for e in declared} - set(metrics)
        - {"flow.highs_s", "flow.simplex_iterations"}
    )
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"perfbench: {workload.name} seed {seed} trace {args.trace}: "
          f"{outcome.attempted} operations, {outcome.failed} failed "
          f"(error_rate {outcome.failed / max(outcome.attempted, 1):.4f})",
          file=sys.stderr)
    for note in outcome.notes:
        print(f"  {note}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"  FAILED CHECK {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
