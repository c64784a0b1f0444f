"""Capped exponential backoff for transient failures."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff, deterministic by default.

    ``delay(1)`` is the sleep after the first failed attempt:
    ``base_delay * multiplier**(attempt-1)``, capped at ``max_delay``.
    With the default ``jitter=0.0`` there is no randomness — batches
    coalesce duplicates upstream, so synchronized retries are not a
    thundering-herd concern in-process, and determinism keeps the chaos
    tests reproducible.

    ``jitter`` is the opt-in for *cross-process* retry storms (multiple
    durable replicas replaying against one coordinator): each capped
    delay is stretched by a uniformly random factor in
    ``[1, 1 + jitter]``, desynchronising retriers while never shrinking
    the documented backoff floor.  Pass ``rng`` (a zero-arg callable
    returning floats in ``[0, 1)``) to :meth:`delay` for deterministic
    tests.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.0

    def delay(
        self, attempt: int, rng: Optional[Callable[[], float]] = None
    ) -> float:
        base = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter <= 0.0:
            return base
        draw = (rng or random.random)()
        return base * (1.0 + draw * self.jitter)


#: The policy ``search_many`` retries transient failures under.
DEFAULT_RETRY = RetryPolicy()

