"""One retry/backoff policy for every retrying subsystem.

Several subsystems grew the same exponential-backoff idiom
independently: the repair planner's baseline hydration (retry the RPC
with doubling waits), the storage node's quorum-vote rounds, and the geo
tier's WAN retransmission.  This module extracts the one policy they
share:

- a :class:`RetryPolicy` value object (base delay, cap, multiplier,
  optional jitter), and
- a stateful :class:`Backoff` cursor that walks the delay sequence and
  resets on progress.

Jitter is *opt-in* and only samples the RNG when enabled, so a
jitter-free policy never perturbs a caller's deterministic random
stream -- essential for byte-identical seeded replays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff shape: ``base, base*m, base*m^2, ...`` capped.

    ``jitter`` spreads each delay uniformly over ``[d*(1-j), d*(1+j)]``
    to decorrelate concurrent retriers (the WAN retransmitter uses it;
    the deterministic repair paths leave it at 0).
    """

    base_ms: float = 20.0
    cap_ms: float = 160.0
    multiplier: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.cap_ms < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.cap_ms < self.base_ms:
            raise ConfigurationError(
                f"cap_ms ({self.cap_ms}) must be >= base_ms ({self.base_ms})"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def delay_for(self, attempt: int) -> float:
        """The un-jittered delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError("attempt must be >= 0")
        delay = self.base_ms * (self.multiplier**attempt)
        return min(delay, self.cap_ms)


class Backoff:
    """A stateful walk along a :class:`RetryPolicy`'s delay sequence.

    Call :meth:`next_delay` before each retry; call :meth:`reset` when
    the operation makes progress (an ack arrived, a quorum answered) so
    the next stall starts from the base delay again.
    """

    def __init__(
        self, policy: RetryPolicy, rng: random.Random | None = None
    ) -> None:
        self.policy = policy
        self.rng = rng
        self.attempts = 0

    def next_delay(self) -> float:
        delay = self.policy.delay_for(self.attempts)
        self.attempts += 1
        if self.policy.jitter > 0.0:
            if self.rng is None:
                raise ConfigurationError(
                    "a jittered RetryPolicy needs an rng"
                )
            spread = self.policy.jitter
            delay *= 1.0 + spread * (2.0 * self.rng.random() - 1.0)
        return delay

    def peek(self) -> float:
        """The next un-jittered delay, without consuming an attempt."""
        return self.policy.delay_for(self.attempts)

    def reset(self) -> None:
        self.attempts = 0
