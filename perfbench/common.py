"""Shared plumbing of the benchmark: child processes, statistics, and
the run outcome every workload returns."""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (this file is ``perfbench/common.py``).
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
PYTHON = sys.executable

#: Processes under test that set up per run; the median is ``setup_s``.
SETUP_SAMPLES = 5

#: The benchmark's own modules, left out of the import ledger.
OWN_MODULES = frozenset({"ledger", "sweep_worker", "serve_traced"})


def child_env() -> dict[str, str]:
    """Environment of a process under test: the checkout's sources on
    the path, unbuffered stdout (its readiness line), and no inherited
    ``REPRO_*`` settings (fault schedules, tiers)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """One process under test, reaped with its resource usage."""

    running: list["Child"] = []

    def __init__(self, argv: list[str], stderr_path: Path):
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self.stderr_path = stderr_path
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        Child.running.append(self)

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises if none arrives in ``timeout``."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(
                    f"no output from {self.proc.args[1:3]} in {timeout:g}s; "
                    f"see {self.stderr_path}"
                )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.proc.args[1:3]} exited during set-up; "
                f"see {self.stderr_path}"
            )
        return line.strip()

    def reap(self, timeout: float) -> tuple[int, float]:
        """Wait for exit (killing it at ``timeout``); returns the exit
        code and peak RSS in MB."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._stderr.close()
        Child.running.remove(self)
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def interrupt(self, timeout: float) -> tuple[int, float]:
        """Stop a server the way Ctrl-C does."""
        self.proc.send_signal(signal.SIGINT)
        return self.reap(timeout)

    @classmethod
    def kill_all(cls) -> None:
        for child in list(cls.running):
            if child.proc.poll() is None:
                child.proc.kill()
            child.proc.wait()
            cls.running.remove(child)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, as the Harrell-Davis estimate.

    A weighted mean of every order statistic, with Beta((n+1)p,
    (n+1)(1-p)) weights.  On a few hundred samples it equals the usual
    percentile; on the ten jobs of a sweep it does not jump when two
    neighbouring order statistics swap across a gap.
    """
    from scipy.special import betainc

    values = sorted(values)
    n = len(values)
    if n == 1:
        return values[0]
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * v for w, v in zip(edges[1:] - edges[:-1], values)))


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Names of failed checks, for stderr.
    problems: list[str] = field(default_factory=list)
    #: Extra lines for the human-readable summary on stderr.
    notes: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        """Count one checked operation; ``problem`` names its failure."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
