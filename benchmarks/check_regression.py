"""Compare a fresh benchmark run against its committed baseline.

Handles every gated harness document — ``BENCH_service.json``
(``repro-bench-service/1``) and ``BENCH_warmstart.json``
(``repro-bench-warmstart/1``); the document schema picks the
comparison.

CI runners differ wildly in raw speed, so absolute wall times are never
compared.  The regression gate uses machine-independent signals only:

* same-machine ratios — the service's warm-vs-cold throughput ratio.
  Both sides ran on the same machine, so the ratio survives runner
  changes.
* deterministic work counters — the warm-start drift sweep's
  iteration reduction and seeded-job count; a drop means retrieval or
  gating got structurally worse even if the runner hides it.  Fails
  when the current value drops more than ``--threshold`` (default
  20%) below the baseline.
* ``parity_ok`` — cached and cross-replica service replies must be
  byte-identical to fresh executions, and warm-started results to
  cold ones.
* service booleans and counters — ``admission_ok``, warm-phase
  ``cache_hit_rate``, and the cold-phase execution count.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_service.json --current BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compare_service(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Service-tier regression check (empty list == pass).

    Gated signals are booleans (parity, admission), deterministic
    counters (cold-phase executions, warm hit rate, flood rejections)
    and the warm-vs-cold throughput ratio.  That ratio mixes compute
    with HTTP/socket overhead, so it is noisier than a pure-compute
    ratio — the floor is ``base * (1 - 2*threshold)`` with an absolute
    backstop of 2x, rather than the tight single-threshold floor used
    for compute benchmarks.
    """
    failures: list[str] = []
    base, cur = baseline["summary"], current["summary"]
    if not cur["parity_ok"]:
        failures.append(
            "service parity broken: cached/cross-replica replies "
            "diverge from fresh executions"
        )
    if not cur["admission_ok"]:
        failures.append(
            "admission control broken: flood was not bounded by the "
            "configured burst or 429s lacked Retry-After"
        )
    if cur["cache_hit_rate"] < base["cache_hit_rate"] - 1e-9:
        failures.append(
            f"warm cache-hit rate fell {base['cache_hit_rate']:.2f} -> "
            f"{cur['cache_hit_rate']:.2f}"
        )
    ceiling = base["executed_cold"] * (1.0 + threshold) + 8
    if cur["executed_cold"] > ceiling:
        failures.append(
            f"cold-phase executions grew {base['executed_cold']} -> "
            f"{cur['executed_cold']} (ceiling {ceiling:.0f}) — "
            f"dedup/caching path got structurally worse"
        )
    if not cur.get("trace_overhead_ok", True):
        failures.append(
            f"span instrumentation overhead on the warm path exceeds "
            f"its ceiling (warm p50 ratio "
            f"{cur.get('trace_overhead_ratio', 0.0):.3f}x traced vs "
            f"untraced; gate is 1.05x with a 0.5ms absolute backstop)"
        )
    if not cur.get("fault_overhead_ok", True):
        failures.append(
            f"fault-probe overhead on the warm path exceeds its "
            f"ceiling (warm p50 ratio "
            f"{cur.get('fault_overhead_ratio', 0.0):.3f}x armed vs "
            f"off; gate is 1.05x with a 0.5ms absolute backstop)"
        )
    base_speedup = base.get("speedup_warm_vs_cold")
    cur_speedup = cur.get("speedup_warm_vs_cold")
    if base_speedup and cur_speedup:
        floor = max(2.0, base_speedup * (1.0 - 2.0 * threshold))
        if cur_speedup < floor:
            failures.append(
                f"warm/cold throughput ratio regressed "
                f"{base_speedup:.2f}x -> {cur_speedup:.2f}x "
                f"(floor {floor:.2f}x)"
            )
    return failures


def compare_warmstart(
    baseline: dict, current: dict, threshold: float
) -> list[str]:
    """Warm-start corpus regression check (empty list == pass).

    Bitwise parity of warm vs cold results is the hard contract — any
    divergence fails outright.  The performance gate mirrors the bench
    harness's own acceptance floor (scored-bump reduction >= 30% or
    core wall speedup >= 1.3x; the reduction is a deterministic
    counter, so no runner allowance applies to the floor), plus a
    regression check of the reduction against the committed baseline.
    """
    failures: list[str] = []
    base, cur = baseline["summary"], current["summary"]
    if not cur["parity_ok"]:
        for parity in cur.get("parity_failures", []):
            failures.append(f"warm/cold parity broken: {parity}")
        if not cur.get("parity_failures"):
            failures.append("warm/cold parity broken")
    reduction = cur["iter_reduction"]
    floor = cur.get("target_iter_reduction", 0.30)
    speedup = cur.get("min_core_wall_speedup", 0.0)
    speedup_floor = cur.get("target_wall_speedup", 1.3)
    if reduction < floor and speedup < speedup_floor:
        failures.append(
            f"drift-sweep saving below floor: iteration reduction "
            f"{reduction:.0%} < {floor:.0%} and core wall speedup "
            f"{speedup}x < {speedup_floor}x"
        )
    base_reduction = base.get("iter_reduction")
    if base_reduction:
        regressed_floor = base_reduction * (1.0 - threshold)
        if reduction < regressed_floor:
            failures.append(
                f"iteration reduction regressed {base_reduction:.0%} -> "
                f"{reduction:.0%} (floor {regressed_floor:.0%})"
            )
    base_seeded = base.get("campaign_seeded", 0)
    if cur.get("campaign_seeded", 0) < base_seeded:
        failures.append(
            f"campaign seeded-job count fell {base_seeded} -> "
            f"{cur.get('campaign_seeded', 0)} — retrieval or gating "
            f"got structurally worse"
        )
    return failures


#: Comparison routine per benchmark document schema.
COMPARATORS = {
    "repro-bench-service/1": compare_service,
    "repro-bench-warmstart/1": compare_warmstart,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    if baseline.get("schema") != current.get("schema"):
        print(f"[regress] schema mismatch: {baseline.get('schema')} vs "
              f"{current.get('schema')}", file=sys.stderr)
        return 1
    comparator = COMPARATORS.get(baseline.get("schema"))
    if comparator is None:
        print(f"[regress] unknown benchmark schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 1

    failures = comparator(baseline, current, args.threshold)
    if failures:
        for failure in failures:
            print(f"[regress] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[regress] OK: no benchmark regression "
          f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
