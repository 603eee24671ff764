"""Units for the shared retry/backoff policy (repro.core.retry).

Three subsystems (repair hydration, storage-node vote rounds, WAN
retransmission) walk the same exponential-backoff ladder; these tests
pin its shape so a tweak for one caller cannot silently change the
others' pacing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retry import Backoff, RetryPolicy
from repro.errors import ConfigurationError


class TestRetryPolicy:
    def test_delay_ladder_doubles_then_caps(self):
        policy = RetryPolicy(base_ms=20.0, cap_ms=160.0, multiplier=2.0)
        delays = [policy.delay_for(i) for i in range(6)]
        assert delays == [20.0, 40.0, 80.0, 160.0, 160.0, 160.0]

    def test_multiplier_one_is_constant(self):
        policy = RetryPolicy(base_ms=50.0, cap_ms=500.0, multiplier=1.0)
        assert [policy.delay_for(i) for i in range(3)] == [50.0] * 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_ms": -1.0},
            {"cap_ms": -1.0},
            {"base_ms": 100.0, "cap_ms": 50.0},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_for(-1)

    @given(
        base=st.floats(min_value=0.0, max_value=1000.0),
        extra=st.floats(min_value=0.0, max_value=1000.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        attempts=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_ladder_is_monotone_and_capped(
        self, base, extra, multiplier, attempts
    ):
        policy = RetryPolicy(
            base_ms=base, cap_ms=base + extra, multiplier=multiplier
        )
        delays = [policy.delay_for(i) for i in range(attempts + 1)]
        assert all(d <= policy.cap_ms for d in delays)
        assert all(b >= a for a, b in zip(delays, delays[1:]))


class TestBackoff:
    def test_walks_policy_sequence(self):
        backoff = Backoff(RetryPolicy(base_ms=10.0, cap_ms=40.0))
        assert [backoff.next_delay() for _ in range(4)] == [
            10.0, 20.0, 40.0, 40.0,
        ]

    def test_reset_restarts_from_base(self):
        backoff = Backoff(RetryPolicy(base_ms=10.0, cap_ms=40.0))
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 10.0

    def test_peek_does_not_consume(self):
        backoff = Backoff(RetryPolicy(base_ms=10.0, cap_ms=40.0))
        assert backoff.peek() == 10.0
        assert backoff.peek() == 10.0
        assert backoff.next_delay() == 10.0
        assert backoff.peek() == 20.0

    def test_jitter_requires_rng(self):
        backoff = Backoff(RetryPolicy(jitter=0.5))
        with pytest.raises(ConfigurationError):
            backoff.next_delay()

    def test_jitter_free_policy_never_samples_rng(self):
        # Essential for byte-identical seeded replays: a jitter-free
        # Backoff must not perturb a caller's deterministic stream.
        rng = random.Random(7)
        before = rng.getstate()
        backoff = Backoff(RetryPolicy(base_ms=5.0, cap_ms=20.0), rng=rng)
        for _ in range(5):
            backoff.next_delay()
        assert rng.getstate() == before

    @given(seed=st.integers(0, 2**16), jitter=st.floats(0.05, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_jitter_stays_within_spread(self, seed, jitter):
        policy = RetryPolicy(base_ms=100.0, cap_ms=800.0, jitter=jitter)
        backoff = Backoff(policy, rng=random.Random(seed))
        for attempt in range(6):
            nominal = policy.delay_for(attempt)
            delay = backoff.next_delay()
            assert nominal * (1 - jitter) <= delay <= nominal * (1 + jitter)
