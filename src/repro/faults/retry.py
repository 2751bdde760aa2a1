"""Exponential-backoff-with-jitter retries for transient failures.

One shared policy object serves every layer that talks to flaky
storage or peers: :class:`~repro.runner.backends.TieredBackend` (shared
cache tier), :class:`~repro.runner.queue.WorkQueue` (sqlite lease/
publish under contention), and :class:`~repro.service.client.
ServiceClient` (dropped/truncated HTTP responses).  Delays follow
``base * 2**attempt``, capped at ``max_delay``, with multiplicative
jitter so retrying replicas don't stampede in lockstep.

Every retry increments ``repro_retries_total{site}`` in the global
metrics registry — the chaos CI job asserts these counters move when
faults fire and stay zero when they don't.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.obs.metrics import get_registry

__all__ = ["RetryPolicy", "call_with_retry"]

T = TypeVar("T")


def _retry_counter():
    return get_registry().counter(
        "repro_retries_total",
        "Retries of transient failures, by call site.",
        ("site",),
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry one class of transient failure.

    ``attempts`` counts *total* tries (so ``attempts=3`` means up to
    two retries); ``retryable`` is the exception tuple worth retrying
    — anything else propagates immediately.
    """

    attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5
    retryable: tuple[type[BaseException], ...] = (OSError,)

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry ``attempt`` (0-based): exponential,
        capped, with up to ``jitter`` multiplicative noise."""
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if self.jitter <= 0:
            return base
        noise = (rng.random() if rng is not None else random.random())
        return base * (1.0 + self.jitter * noise)


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    site: str,
    on_retry: Callable[[BaseException, int], None] | None = None,
) -> T:
    """Run ``fn`` under ``policy``; raise the last error when spent.

    ``site`` labels the ``repro_retries_total`` increments; ``on_retry``
    (if given) observes each retryable failure before the backoff
    sleep — the circuit breaker uses it to count strikes.
    """
    attempts = max(1, policy.attempts)
    for attempt in range(attempts):
        try:
            return fn()
        except policy.retryable as exc:
            if on_retry is not None:
                on_retry(exc, attempt)
            if attempt + 1 >= attempts:
                raise
            _retry_counter().inc(site=site)
            time.sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
