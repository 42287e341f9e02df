"""Tests for the fault-tolerance primitives (agent health, retry, quorum)."""

import json

import numpy as np
import pytest

from repro.telemetry.reliability import (
    AgentHealthTracker,
    QuorumPolicy,
    RetryPolicy,
)


class TestQuorumPolicy:
    def test_fraction_rule(self):
        q = QuorumPolicy(min_fraction=0.5)
        assert q.met(5, 10)
        assert not q.met(4, 10)
        assert q.met(1, 1)

    def test_count_rule(self):
        q = QuorumPolicy(min_fraction=0.0, min_count=3)
        assert not q.met(2, 100)
        assert q.met(3, 100)

    def test_unknown_fleet_uses_count_only(self):
        q = QuorumPolicy(min_fraction=0.9, min_count=1)
        assert q.met(1, None)
        assert not q.met(0, None)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuorumPolicy(min_fraction=1.5)
        with pytest.raises(ValueError):
            QuorumPolicy(min_count=-1)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0,
                             jitter=0.0)
        delays = [policy.backoff(k) for k in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_deterministic_under_seed(self):
        policy = RetryPolicy(jitter=0.2)
        a = [policy.backoff(k, np.random.default_rng(3)) for k in range(4)]
        b = [policy.backoff(k, np.random.default_rng(3)) for k in range(4)]
        assert a == b
        unjittered = [policy.backoff(k) for k in range(4)]
        for got, base in zip(a, unjittered):
            assert 0.8 * base <= got <= 1.2 * base

    def test_call_retries_until_success(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("agent unreachable")
            return "delivered"

        policy = RetryPolicy(max_attempts=5, jitter=0.0)
        result = policy.call(flaky, sleep=slept.append)
        assert result == "delivered"
        assert len(attempts) == 3
        assert slept == [policy.backoff(0), policy.backoff(1)]

    def test_call_reraises_after_final_attempt(self):
        policy = RetryPolicy(max_attempts=2, jitter=0.0)
        with pytest.raises(ConnectionError):
            policy.call(lambda: (_ for _ in ()).throw(ConnectionError()),
                        sleep=lambda _: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestAgentHealthTracker:
    def test_misses_escalate_to_dead(self):
        tracker = AgentHealthTracker(["a", "b"], dead_after=3)
        for epoch in range(3):
            tracker.observe_report("a", epoch)
            newly_dead = tracker.close_epoch(epoch)
        assert tracker.status("a") == "healthy"
        assert tracker.status("b") == "dead"
        assert newly_dead == ["b"]
        assert tracker.staleness("b") == 3
        assert tracker.expected_fleet == 1

    def test_stale_before_dead(self):
        tracker = AgentHealthTracker(["a"], dead_after=4, stale_after=2)
        tracker.close_epoch(0)
        assert tracker.status("a") == "healthy"
        tracker.close_epoch(1)
        assert tracker.status("a") == "stale"
        assert tracker.stale_agents() == ["a"]

    def test_report_closes_breaker(self):
        tracker = AgentHealthTracker(["a"], dead_after=2)
        for epoch in range(3):
            tracker.close_epoch(epoch)
        assert tracker.dead_agents() == ["a"]
        tracker.observe_report("a", 3)
        assert tracker.status("a") == "healthy"
        assert tracker.n_dead == 0

    def test_breaker_trips_once_per_outage(self):
        tracker = AgentHealthTracker(["a"], dead_after=2)
        trips = []
        for epoch in range(5):
            trips.extend(tracker.close_epoch(epoch))
        assert trips == ["a"]  # one trip, not one per silent epoch

    def test_unknown_machine_rejected(self):
        tracker = AgentHealthTracker(["a"])
        with pytest.raises(KeyError):
            tracker.observe_report("nope", 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentHealthTracker([])
        with pytest.raises(ValueError):
            AgentHealthTracker(["a"], dead_after=0)
        with pytest.raises(ValueError):
            AgentHealthTracker(["a"], dead_after=2, stale_after=3)

    @staticmethod
    def _tracker():
        tracker = AgentHealthTracker(["b", "a"])
        tracker.add_agent("c")
        tracker.observe_report("a", 0)
        for epoch in range(5):
            tracker.close_epoch(epoch)
        tracker.observe_report("c", 5)
        return tracker

    @staticmethod
    def assert_same_agents(got, want):
        got, want = got.to_arrays(), want.to_arrays()
        assert list(got) == list(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
            assert got[key].dtype == want[key].dtype

    def test_dict_form_round_trips(self):
        # The JSON map older serving checkpoints hold: key order and
        # field names are a file format, so those checkpoints still load.
        state = json.loads(
            '{"b": {"misses": 5, "last": null, "trips": 1, "reported": false},'
            ' "a": {"misses": 4, "last": 0, "trips": 1, "reported": false},'
            ' "c": {"misses": 0, "last": 5, "trips": 1, "reported": true}}'
        )
        back = AgentHealthTracker.from_dict(state)
        self.assert_same_agents(back, self._tracker())
        assert back.status("b") == "dead" and back.n_dead == 2

    def test_dict_form_without_reported_flag(self):
        # Checkpoints from before the per-epoch flag was stored.
        back = AgentHealthTracker.from_dict(
            {"a": {"misses": 1, "last": 3, "trips": 0}}
        )
        assert back.to_arrays()["counters"].tolist() == [[1, 3, 0, 0]]
        assert back.status("a") == "stale"

    def test_array_form_round_trips(self):
        tracker = self._tracker()
        tracker.add_agent("d\u00e9\x00")  # any id round-trips exactly
        arrays = tracker.to_arrays(prefix="health_")
        assert sorted(arrays) == ["health_counters", "health_ids"]
        # misses, last reported epoch (-1: never), trips, reported
        assert arrays["health_counters"].tolist() == [
            [5, -1, 1, 0], [4, 0, 1, 0], [0, 5, 1, 1], [0, -1, 0, 0],
        ]
        assert arrays["health_counters"].dtype == np.int64
        back = AgentHealthTracker.from_arrays(arrays, prefix="health_")
        assert list(back._agents) == ["b", "a", "c", "d\u00e9\x00"]
        self.assert_same_agents(back, tracker)
        assert back.status("b") == "dead" and back.n_dead == 2
        assert back.staleness("a") == 4

    def test_array_form_rejects_misaligned_columns(self):
        arrays = self._tracker().to_arrays()
        arrays["counters"] = arrays["counters"][:2]
        with pytest.raises(ValueError):
            AgentHealthTracker.from_arrays(arrays)

    def test_counts_match_statuses(self):
        tracker = AgentHealthTracker(list("abcdef"), dead_after=3)
        for epoch in range(4):
            for mid in "ab"[: 2 - epoch // 2]:
                tracker.observe_report(mid, epoch)
            if epoch < 2:
                tracker.observe_report("c", epoch)
            tracker.close_epoch(epoch)
            statuses = [tracker.status(m) for m in "abcdef"]
            assert tracker.counts() == (
                statuses.count("stale"), statuses.count("dead")
            )
            assert tracker.n_healthy == statuses.count("healthy")
            assert tracker.expected_fleet == 6 - statuses.count("dead")


class TestRetryPolicySeededJitter:
    """The injectable jitter seed (serving supervisor reproducibility)."""

    def test_default_policy_is_unchanged_without_rng(self):
        # Historical contract: no seed and no caller rng means no jitter
        # at all — deterministic geometric delays.
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=30.0)
        assert [policy.backoff(k) for k in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_seeded_policies_replay_the_same_schedule(self):
        def schedule():
            policy = RetryPolicy(base_delay=1.0, jitter=0.2, seed=99)
            return [policy.backoff(k) for k in range(6)]

        first, second = schedule(), schedule()
        assert first == second
        # And the jitter is real: the schedule is not the bare geometry.
        bare = RetryPolicy(base_delay=1.0, jitter=0.0)
        assert first != [bare.backoff(k) for k in range(6)]
        # Jitter stays inside the contract band around each bare delay.
        for got, k in zip(first, range(6)):
            center = bare.backoff(k)
            assert 0.8 * center <= got <= 1.2 * center

    def test_different_seeds_diverge(self):
        a = RetryPolicy(base_delay=1.0, jitter=0.2, seed=1)
        b = RetryPolicy(base_delay=1.0, jitter=0.2, seed=2)
        assert [a.backoff(k) for k in range(6)] != \
            [b.backoff(k) for k in range(6)]

    def test_caller_rng_takes_precedence_over_seed(self):
        seeded = RetryPolicy(base_delay=1.0, jitter=0.2, seed=7)
        unseeded = RetryPolicy(base_delay=1.0, jitter=0.2)
        assert seeded.backoff(0, rng=np.random.default_rng(0)) == \
            unseeded.backoff(0, rng=np.random.default_rng(0))
