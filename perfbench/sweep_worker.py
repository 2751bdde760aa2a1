"""sizing-sweep's process under test: cold campaigns through
``repro.runner.run``, the entry point ``campaign run`` calls.

Usage: ``sweep_worker.py JOBS_JSON WORKDIR [--setup-only]
[--seconds S] [--sweeps N] [--ledger PATH]``

Set-up is importing the package and expanding the jobs; the worker then
prints ``ready`` on stdout (and, when traced, the set-up marker that
splits ``-X importtime`` output on stderr).  ``--setup-only`` exits
there.

A sweep runs every job as a one-job campaign (each circuit has its own
delay specs, which one spec's circuits x specs product cannot express)
with ``jobs=1``, one fresh disk cache and a fresh run directory per
campaign, so every job executes.  After each campaign every job
finished so far is replayed as a one-job campaign against the sweep's
cache and without a run directory, the way ``table1 --cache-dir``
replays rows: the cache-hit path of the same entry point, three times
over, 165 hits a sweep spread over its length.  Sweeps repeat until
``--seconds`` have passed, or exactly ``--sweeps`` times.

With ``--ledger`` the layer wrappers are installed before anything is
imported; sweep ``k`` is ledger phase ``rep<k>``.  Results go to
``WORKDIR/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("jobs")
parser.add_argument("workdir")
parser.add_argument("--setup-only", action="store_true")
parser.add_argument("--seconds", type=float, default=0.0)
parser.add_argument("--sweeps", type=int, default=None)
parser.add_argument("--ledger", default=None)
args = parser.parse_args()

ledger = None
if args.ledger:
    import ledger as ledger_module

    ledger = ledger_module.install()

from repro.runner import CampaignSpec, run  # noqa: E402
from repro.sizing.serialize import comparable_payload  # noqa: E402

workdir = Path(args.workdir)
jobs = [(circuit, float(spec)) for circuit, spec in json.loads(Path(args.jobs).read_text())]
campaigns = [
    CampaignSpec(name=f"{circuit}@{spec:g}", circuits=(circuit,), delay_specs=(spec,))
    for circuit, spec in jobs
]
print("ready", flush=True)
if ledger is not None:
    print(ledger_module.SETUP_MARKER, file=sys.stderr, flush=True)
if args.setup_only:
    sys.exit(0)


#: Replays of each finished job after each campaign: enough hits that
#: the p95 is not set by a few garbage-collection pauses.
REPLAYS = 3


def digest(payload) -> str:
    # The program's canonical JSON format, encoded here: calling the
    # program's own encoder would charge this check to its serialize
    # layer in the ledger.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def replay(spec: CampaignSpec, cache: str) -> dict:
    """One finished campaign again: a cache hit."""
    start = time.perf_counter()
    result = run(spec, jobs=1, cache=cache)
    wall = time.perf_counter() - start
    outcome = result.outcomes[0]
    return {
        "circuit": outcome.job.circuit,
        "delay_spec": outcome.job.delay_spec,
        "wall_s": wall,
        "cached": outcome.cached,
        "payload": digest(outcome.payload or {}),
    }


def sweep(index: int) -> dict:
    cache = f"disk:{workdir / f'cache-{index}'}"
    runs = workdir / f"runs-{index}"
    walls, outcomes, replays, done = [], [], [], []
    for spec in campaigns:
        start = time.perf_counter()
        result = run(spec, jobs=1, cache=cache, run_dir=runs / f"job-{len(done)}")
        walls.append(time.perf_counter() - start)
        for outcome in result.outcomes:
            payload = outcome.payload or {}
            seed, final = payload.get("seed") or {}, payload.get("result") or {}
            outcomes.append({
                "circuit": outcome.job.circuit,
                "delay_spec": outcome.job.delay_spec,
                "status": outcome.status,
                "cached": outcome.cached,
                "wall_s": outcome.wall_seconds,
                "target": payload.get("target"),
                "tilos_area": seed.get("area"),
                "area": final.get("area"),
                "delay": final.get("critical_path_delay"),
                "comparable": digest(comparable_payload(payload)),
                "payload": digest(payload),
            })
        # Hits are spread over the sweep, not bunched at its end: the
        # machine's speed drifts over seconds, and they sample all of it.
        done.append(spec)
        replays += [
            replay(finished, cache) for _ in range(REPLAYS) for finished in done
        ]
    return {"campaign_walls": walls, "outcomes": outcomes, "replays": replays}


sweeps = []
began = time.perf_counter()
while True:
    if ledger is not None:
        ledger.phase = f"rep{len(sweeps) + 1}"
    sweeps.append(sweep(len(sweeps) + 1))
    if ledger is not None:
        ledger.phase = None
    if args.sweeps is not None:
        if len(sweeps) >= args.sweeps:
            break
    elif time.perf_counter() - began >= args.seconds:
        break

(workdir / "result.json").write_text(json.dumps({"sweeps": sweeps}))
if ledger is not None:
    ledger.dump(args.ledger)
