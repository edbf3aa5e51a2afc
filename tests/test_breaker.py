"""Circuit breaker state machine and its seeded probe delays."""

import pytest

from repro.harness.breaker import CircuitBreaker


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_breaker(**kwargs):
    clock = FakeClock()
    defaults = dict(seed=7, probe_base=1.0, jitter=0.0, clock=clock)
    defaults.update(kwargs)
    return CircuitBreaker("worker:a", **defaults), clock


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_threshold_failures_trip_open(self):
        breaker, _ = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker, _ = make_breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = make_breaker()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(breaker.probe_delay(1) + 0.01)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # everyone else waits on the probe

    def test_probe_success_closes(self):
        breaker, clock = make_breaker()
        breaker.record_failure()
        clock.advance(breaker.probe_delay(1) + 0.01)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_with_longer_deadline(self):
        breaker, clock = make_breaker()
        breaker.record_failure()
        first_delay = breaker.seconds_until_probe()
        clock.advance(first_delay + 0.01)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.seconds_until_probe() > first_delay

    def test_opens_survive_success(self):
        # A target that oscillates (passes a probe, then fails again) must
        # back off further each round instead of retrying at full speed.
        breaker, clock = make_breaker()
        breaker.record_failure()
        clock.advance(breaker.seconds_until_probe() + 0.01)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.opens == 1  # not reset by the success
        breaker.record_failure()
        assert breaker.opens == 2
        assert breaker.seconds_until_probe() > breaker.probe_delay(1)

    def test_seconds_until_probe_zero_when_closed(self):
        breaker, _ = make_breaker()
        assert breaker.seconds_until_probe() == 0.0


class TestProbeDelays:
    def test_deterministic_in_seed_and_key(self):
        a = CircuitBreaker("w", seed=7, probe_base=0.5)
        b = CircuitBreaker("w", seed=7, probe_base=0.5)
        assert [a.probe_delay(n) for n in range(1, 5)] == [
            b.probe_delay(n) for n in range(1, 5)
        ]

    def test_jitter_varies_with_seed(self):
        a = CircuitBreaker("w", seed=7, probe_base=0.5)
        b = CircuitBreaker("w", seed=8, probe_base=0.5)
        assert a.probe_delay(1) != b.probe_delay(1)

    def test_exponential_growth_capped(self):
        breaker = CircuitBreaker(
            "w", seed=1, probe_base=1.0, probe_factor=2.0, probe_max=4.0,
            jitter=0.0,
        )
        assert breaker.probe_delay(1) == 1.0
        assert breaker.probe_delay(2) == 2.0
        assert breaker.probe_delay(3) == 4.0
        assert breaker.probe_delay(10) == 4.0  # capped

    def test_jitter_bounded(self):
        breaker = CircuitBreaker("w", seed=3, probe_base=1.0, jitter=0.5)
        delay = breaker.probe_delay(1)
        assert 1.0 <= delay <= 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"probe_base": -1.0},
            {"probe_factor": 0.5},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker("w", **kwargs)
