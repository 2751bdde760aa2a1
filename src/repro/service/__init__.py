"""Sizing-as-a-service: the campaign pipeline behind a JSON HTTP API.

MINFLOTRANSIT's fast W/D alternation makes sizing cheap enough to be
*query-shaped*: a long-lived process with a warm content-addressed
cache can answer "size this netlist to this target" interactively
instead of batch-only.  This package is that process:

* :mod:`repro.service.app` — :class:`SizingService`: request
  validation into campaign :class:`~repro.runner.spec.Job` records,
  cache probe, and drain threads running the campaign's own drainer
  (:class:`repro.runner.drain.Drainer`), so service answers are
  byte-identical to CLI answers.  Its job store is the durable sqlite
  :class:`~repro.runner.queue.WorkQueue` (re-exported here) in the run
  directory, or shared by a fleet via ``--queue``: every request
  enters it, every drain worker leases from it, and job history
  survives restarts.
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

from repro.runner.queue import JobRecord, WorkQueue
from repro.service.app import SizingService, build_job
from repro.service.client import ServiceClient
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
