"""Sizing-as-a-service: the campaign pipeline behind a JSON HTTP API.

MINFLOTRANSIT's fast W/D alternation makes sizing cheap enough to be
*query-shaped*: a long-lived process with a warm content-addressed
cache can answer "size this netlist to this target" interactively
instead of batch-only.  This package is that process:

* :mod:`repro.service.app` — :class:`SizingService`: request
  validation into campaign :class:`~repro.runner.spec.Job` records,
  cache probe/store, drain workers over a bounded worker pool.  One
  execution path shared with ``python -m repro campaign`` (see
  :func:`repro.runner.executor.run_one`), so service answers are
  byte-identical to CLI answers.
* :mod:`repro.service.queue` — the one job store: a durable sqlite
  :class:`~repro.service.queue.WorkQueue` in the run directory (or
  shared by a fleet via ``--queue``) that every request enters and
  every drain worker leases from; job history survives restarts.
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front end (``POST /v1/size``, ``GET /v1/jobs/<id>``, discovery,
  health, stats) and :func:`serve`, the ``python -m repro serve``
  entry point.
* :mod:`repro.service.client` — the stdlib client used by the tests,
  CI and ``examples/query_service.py``.

No dependencies beyond the standard library are introduced; every
scaling follow-up (sharding, rate limiting, multi-tenant caching)
layers onto this surface.
"""

from repro.service.app import SizingService, build_job
from repro.service.client import ServiceClient
from repro.service.queue import JobRecord, WorkQueue
from repro.service.server import (
    WIRE_SCHEMA,
    SizingHTTPServer,
    make_server,
    serve,
)

__all__ = [
    "JobRecord",
    "ServiceClient",
    "SizingHTTPServer",
    "SizingService",
    "WIRE_SCHEMA",
    "WorkQueue",
    "build_job",
    "make_server",
    "serve",
]
