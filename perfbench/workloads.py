"""The benchmark's workloads: definitions, rationale and seeded inputs.

Each workload drives one entry point users actually run, and the
program under test receives only the inputs generated here from the
``--seed``.  Beside each definition: why it was chosen, which layers it
loads, which it bypasses, and its default seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``.
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    default_seed: int


#: The paper's Table 1 rows that fit a run, with their delay specs
#: (fractions of the minimum-sized circuit's delay).  Written out
#: rather than read from the program, so a change to the program's
#: suite cannot change the benchmark's inputs.
TABLE1_SPECS = (
    ("adder32", 0.5),
    ("c432eq", 0.4),
    ("c499eq", 0.57),
    ("c880eq", 0.4),
    ("c1908eq", 0.4),
)


#: The service workloads' hot set, filled before timing starts: every
#: size class from c17 (payload about 2.9 KB) to c880eq (about 15 KB).
HOT_SET = (
    ("c17", 0.6),
    ("c17", 0.8),
    ("rca:4", 0.6),
    ("rca:8", 0.6),
    ("rca:16", 0.6),
    ("c432eq", 0.4),
    ("c499eq", 0.57),
    ("c880eq", 0.4),
)

#: service-mixed: one request in this many is a never-seen small job.
MISS_EVERY = 5

#: Circuits and spec range of service-mixed's never-seen jobs: every
#: draw is feasible, and one costs 10-200 ms to solve.
FRESH_CIRCUITS = ("c17", "rca:4")
FRESH_SPEC_RANGE = (0.5, 0.95)

#: service-warm's miss probes: never-seen c17 jobs sent after the fill
#: and before timing, so the window stays read-only.
WARM_MISS_PROBES = 20


SIZING_SWEEP = Workload(
    name="sizing-sweep",
    why=(
        "cold Table 1 jobs through repro.runner.run (campaign run): every "
        "solver layer (TILOS, balance, D-phase LP, W-phase) runs; the "
        "service layers sit idle"
    ),
    loads=(
        "circuit + dag", "timing", "tilos", "balancing", "dphase + flow",
        "wphase", "minflo", "serialize", "cache (misses, puts, replays)",
        "runner (keys, run log, trace sink)", "startup",
    ),
    bypasses=("service", "queue", "http"),
    default_seed=1,
)

SERVICE_WARM = Workload(
    name="service-warm",
    why=(
        "cache-hit traffic on the default serve config over real sockets: "
        "HTTP, admission, job store, cache get, JSON encode, spans; no "
        "solver work"
    ),
    loads=(
        "http", "service (admit, job store)", "cache (disk get)",
        "serialize (canonical JSON)", "obs (span sink)", "startup",
    ),
    bypasses=(
        "every solver layer while timed (before it, the fill solves each "
        "hot-set job once and 20 never-seen c17 jobs measure misses)",
        "queue",
    ),
    default_seed=1,
)

SERVICE_MIXED = Workload(
    name="service-mixed",
    why=(
        "fleet config (sqlite queue + cache): 1 in 5 requests is a "
        "never-seen small job solved on the worker while handler threads "
        "serve hits"
    ),
    loads=(
        "http", "queue (create, lease, finish, wait polls)",
        "cache (sqlite get beside put)", "service", "every solver layer on "
        "small circuits", "obs", "startup",
    ),
    bypasses=("the disk cache backend", "the in-memory job store"),
    default_seed=1,
)

WORKLOADS = {w.name: w for w in (SIZING_SWEEP, SERVICE_WARM, SERVICE_MIXED)}


def sweep_jobs(seed: int) -> list[tuple[str, float]]:
    """sizing-sweep's jobs: each Table 1 row at two seeded delay specs.

    The specs are a mirrored pair in [spec, spec + 0.1]: ``spec + d``
    and ``spec + 0.1 - d`` with ``d`` drawn from [0, 0.05].  Every seed
    so covers the tight and the loose half of the row, and since work
    and area saving both fall as the spec loosens, seeds differ little
    in a sweep's total work and mean saving.
    """
    rng = random.Random(seed)
    jobs = []
    for circuit, spec in TABLE1_SPECS:
        offset = 0.05 * rng.random()
        jobs.append((circuit, round(spec + offset, 4)))
        jobs.append((circuit, round(spec + 0.1 - offset, 4)))
    return jobs


def warm_requests(seed: int, client: int):
    """service-warm: client ``client``'s endless stream of hot-set
    repeats, in seeded order."""
    rng = random.Random(seed * 1000 + client)
    while True:
        circuit, spec = HOT_SET[rng.randrange(len(HOT_SET))]
        yield circuit, spec, False


def fresh_jobs(seed: int, count: int,
               circuits: tuple[str, ...] = FRESH_CIRCUITS) -> list[tuple[str, float]]:
    """Distinct never-seen small jobs (none collides with the hot set)."""
    rng = random.Random(seed * 1000 + 999)
    seen = set(HOT_SET)
    jobs = []
    low, high = FRESH_SPEC_RANGE
    while len(jobs) < count:
        job = (rng.choice(circuits), round(rng.uniform(low, high), 5))
        if job not in seen:
            seen.add(job)
            jobs.append(job)
    return jobs


def mixed_requests(seed: int, client: int, n_clients: int):
    """service-mixed: client ``client``'s endless request stream.

    In every block of :data:`MISS_EVERY` requests one, at a seeded
    position, is a never-seen job (``fresh=True``); the others repeat a
    job from the hot set plus this client's own earlier fresh jobs.  A
    closed-loop client has its previous reply before it asks for the
    next request, so every repeat is of a finished job, and the stream
    does not depend on how the clients interleave.
    """
    rng = random.Random(seed * 1000 + client)
    pool = fresh_jobs(seed, 4000)[client::n_clients]
    hot = list(HOT_SET)
    while True:
        miss_at = rng.randrange(MISS_EVERY)
        for slot in range(MISS_EVERY):
            if slot == miss_at:
                job = pool.pop(0)
                yield job[0], job[1], True
                hot.append(job)
            else:
                job = hot[rng.randrange(len(hot))]
                yield job[0], job[1], False
