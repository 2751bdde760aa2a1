"""Traced launcher for the service workloads.

Usage: ``serve_traced.py LEDGER_JSON PHASE_FILE -- SERVE_ARGS...``

Installs the layer wrappers, then calls the same entry point as
``python -m repro serve SERVE_ARGS...``.  Just before the server starts
serving it writes the set-up marker to stderr, which splits
``-X importtime`` output into set-up and lazy imports.

Phases are switched from outside with SIGUSR1: the ledger records the
hot-set fill as phase ``prep``, then the timed window as ``measure``,
then nothing.  Each switch is acknowledged by writing the new phase's
name to PHASE_FILE.  SIGINT stops the server as usual; the ledger is
written to LEDGER_JSON after ``serve`` returns.
"""

from __future__ import annotations

import signal
import sys

import ledger as ledger_module

ledger_path, phase_path, separator, *serve_args = sys.argv[1:]
if separator != "--":
    sys.exit("usage: serve_traced.py LEDGER_JSON PHASE_FILE -- SERVE_ARGS...")


def _mark_ready(module) -> None:
    serve_forever = module.SizingHTTPServer.serve_forever

    def marked(self, *args, **kwargs):
        print(ledger_module.SETUP_MARKER, file=sys.stderr, flush=True)
        return serve_forever(self, *args, **kwargs)

    module.SizingHTTPServer.serve_forever = marked


ledger = ledger_module.install({"repro.service.server": [_mark_ready]})
phases = iter(("prep", "measure", None))
ledger.phase = next(phases)


def _next_phase(signum, frame) -> None:
    ledger.phase = next(phases, None)
    with open(phase_path, "w", encoding="utf-8") as handle:
        handle.write(str(ledger.phase))


signal.signal(signal.SIGUSR1, _next_phase)

from repro.__main__ import main  # noqa: E402

code = main(["serve", *serve_args])
ledger.dump(ledger_path)
sys.exit(code)
