"""Tests for the telemetry collection pipeline."""

import numpy as np
import pytest

from repro.telemetry.collector import (
    CollectionPipeline,
    EpochAggregator,
    MachineAgent,
)
from repro.telemetry.quantiles import summarize_epoch
from repro.telemetry.reliability import QuorumPolicy

METRICS = ["cpu", "latency", "queue"]


class TestMachineAgent:
    def test_averages_sub_epoch_samples(self):
        agent = MachineAgent("m1", METRICS)
        agent.record("cpu", 10.0)
        agent.record("cpu", 20.0)
        agent.record("latency", 5.0)
        report = agent.flush()
        assert report[0] == 15.0
        assert report[1] == 5.0
        assert np.isnan(report[2])  # queue never reported

    def test_flush_resets(self):
        agent = MachineAgent("m1", METRICS)
        agent.record("cpu", 10.0)
        agent.flush()
        assert np.all(np.isnan(agent.flush()))

    def test_record_all(self):
        agent = MachineAgent("m1", METRICS)
        agent.record_all([1.0, 2.0, 3.0])
        agent.record_all([3.0, 4.0, 5.0])
        np.testing.assert_allclose(agent.flush(), [2.0, 3.0, 4.0])

    def test_validation(self):
        agent = MachineAgent("m1", METRICS)
        with pytest.raises(KeyError):
            agent.record("nope", 1.0)
        with pytest.raises(ValueError):
            agent.record_all([1.0])
        with pytest.raises(ValueError):
            MachineAgent("m", [])

    def test_strict_mode_rejects_non_finite(self):
        agent = MachineAgent("m1", METRICS, strict=True)
        with pytest.raises(ValueError):
            agent.record("cpu", float("nan"))
        with pytest.raises(ValueError):
            agent.record_all([1.0, float("inf"), 3.0])

    def test_lenient_mode_drops_only_offending_metrics(self):
        agent = MachineAgent("m1", METRICS)
        agent.record_all([1.0, float("nan"), 3.0])
        agent.record_all([3.0, 4.0, float("inf")])
        assert agent.dropped_samples == 2
        report = agent.flush()
        np.testing.assert_allclose(report, [2.0, 4.0, 3.0])
        assert agent.dropped_samples == 0  # flush resets the counter

    def test_lenient_record_counts_drop(self):
        agent = MachineAgent("m1", METRICS)
        agent.record("cpu", float("nan"))
        agent.record("cpu", 4.0)
        assert agent.dropped_samples == 1
        assert agent.flush()[0] == 4.0


class TestEpochAggregator:
    def test_exact_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(1.0, 0.4, (30, 3))
        agg = EpochAggregator(METRICS)
        for row in samples:
            agg.submit(row)
        summary = agg.close_epoch()
        np.testing.assert_array_equal(
            summary.quantiles,
            summarize_epoch(samples, (0.25, 0.50, 0.95)),
        )
        assert summary.n_machines_reporting == 30
        assert summary.epoch == 0
        assert agg.epoch == 1

    def test_sketch_mode_close_to_exact(self):
        rng = np.random.default_rng(1)
        samples = rng.lognormal(1.0, 0.4, (800, 3))
        exact = summarize_epoch(samples, (0.25, 0.50, 0.95))
        agg = EpochAggregator(METRICS, mode="sketch", sketch_eps=0.01)
        for row in samples:
            agg.submit(row)
        summary = agg.close_epoch()
        np.testing.assert_allclose(summary.quantiles, exact, rtol=0.1)

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError):
            EpochAggregator(METRICS).close_epoch()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EpochAggregator(METRICS, mode="avg")

    def test_report_shape_checked(self):
        agg = EpochAggregator(METRICS)
        with pytest.raises(ValueError):
            agg.submit(np.zeros(2))


class TestPartialEpochAggregation:
    """Degraded-mode aggregation: partial fleets and per-metric NaN gaps."""

    def _samples(self, n=40):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(1.0, 0.4, (n, 3))
        samples[::7, 1] = np.nan  # one metric missing on some machines
        return samples

    def test_exact_partial_matches_per_metric_quantiles(self):
        samples = self._samples()
        agg = EpochAggregator(METRICS, fleet_size=40)
        for row in samples:
            agg.submit(row)
        summary = agg.close_epoch()
        for m in range(3):
            col = samples[:, m]
            col = col[np.isfinite(col)]
            expected = summarize_epoch(col[:, None], (0.25, 0.50, 0.95))[0]
            np.testing.assert_array_equal(summary.quantiles[m], expected)
        assert summary.quality.dropped_samples == len(samples[::7])

    def test_exact_equals_legacy_when_complete(self):
        rng = np.random.default_rng(6)
        samples = rng.lognormal(1.0, 0.4, (30, 3))
        agg = EpochAggregator(METRICS, fleet_size=30)
        for row in samples:
            agg.submit(row)
        np.testing.assert_array_equal(
            agg.close_epoch().quantiles,
            summarize_epoch(samples, (0.25, 0.50, 0.95)),
        )

    def test_sketch_partial_close_to_exact(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(1.0, 0.4, (800, 3))
        samples[::5, 2] = np.nan
        exact_agg = EpochAggregator(METRICS, fleet_size=800)
        sketch_agg = EpochAggregator(METRICS, mode="sketch",
                                     sketch_eps=0.01, fleet_size=800)
        for row in samples:
            exact_agg.submit(row)
            sketch_agg.submit(row)
        exact = exact_agg.close_epoch()
        sketch = sketch_agg.close_epoch()
        np.testing.assert_allclose(sketch.quantiles, exact.quantiles,
                                   rtol=0.1)
        assert exact.quality.dropped_samples == \
            sketch.quality.dropped_samples == 160

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_quorum_behavior_agrees_across_modes(self, mode):
        quorum = QuorumPolicy(min_fraction=0.5)
        agg = EpochAggregator(METRICS, mode=mode, fleet_size=10,
                              quorum=quorum)
        # 4 of 10 machines: below the 50% quorum.
        for _ in range(4):
            agg.submit([1.0, 2.0, 3.0])
        summary = agg.close_epoch()
        assert np.all(np.isnan(summary.quantiles))
        assert not summary.quality.quorum_met
        assert summary.quality.coverage == pytest.approx(0.4)
        # 6 of 10: quorum met, finite summary, both modes.
        for _ in range(6):
            agg.submit([1.0, 2.0, 3.0])
        summary = agg.close_epoch()
        assert summary.quality.quorum_met
        assert np.all(np.isfinite(summary.quantiles))

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_zero_reports_with_known_fleet(self, mode):
        agg = EpochAggregator(METRICS, mode=mode, fleet_size=5)
        summary = agg.close_epoch()
        assert np.all(np.isnan(summary.quantiles))
        assert summary.quality.coverage == 0.0
        assert not summary.quality.quorum_met
        # The aggregator keeps running: the next epoch is unaffected.
        agg.submit([1.0, 2.0, 3.0])
        assert agg.close_epoch().epoch == 1

    def test_all_nan_metric_is_nan_in_both_modes(self):
        for mode in ("exact", "sketch"):
            agg = EpochAggregator(METRICS, mode=mode, fleet_size=3)
            for _ in range(3):
                agg.submit([1.0, np.nan, 3.0])
            q = agg.close_epoch().quantiles
            assert np.all(np.isnan(q[1]))
            assert np.all(np.isfinite(q[[0, 2]]))


class TestCollectionPipeline:
    def test_end_to_end_epoch(self):
        rng = np.random.default_rng(2)
        machines = [f"m{i}" for i in range(20)]
        pipeline = CollectionPipeline(machines, METRICS)
        samples = rng.lognormal(0.5, 0.3, (20, 3))
        for mid, row in zip(machines, samples):
            pipeline.agents[mid].record_all(row)
        summary = pipeline.close_epoch()
        np.testing.assert_array_equal(
            summary.quantiles, summarize_epoch(samples, (0.25, 0.50, 0.95))
        )

    def test_silent_machines_skipped(self):
        machines = ["a", "b", "c"]
        pipeline = CollectionPipeline(machines, METRICS)
        pipeline.agents["a"].record_all([1.0, 1.0, 1.0])
        pipeline.agents["b"].record_all([2.0, 2.0, 2.0])
        summary = pipeline.close_epoch()
        assert summary.n_machines_reporting == 2

    def test_needs_machines(self):
        with pytest.raises(ValueError):
            CollectionPipeline([], METRICS)

    def test_quality_reports_coverage_and_drops(self):
        machines = ["a", "b", "c", "d"]
        pipeline = CollectionPipeline(machines, METRICS)
        pipeline.agents["a"].record_all([1.0, np.nan, 1.0])
        pipeline.agents["b"].record_all([2.0, 2.0, 2.0])
        pipeline.agents["c"].record_all([3.0, 3.0, 3.0])
        summary = pipeline.close_epoch()
        quality = summary.quality
        assert quality.n_reporting == 3
        assert quality.coverage == pytest.approx(3 / 4)
        # one dropped sample, which "a"'s report carries as a NaN entry
        assert quality.dropped_samples == 1
        assert quality.n_stale_agents == 1  # "d" missed this epoch

    def test_circuit_breaker_removes_dead_machine_from_fleet(self):
        machines = ["a", "b", "c"]
        pipeline = CollectionPipeline(machines, METRICS, dead_after=2)
        qualities = []
        for _ in range(4):
            pipeline.agents["a"].record_all([1.0, 1.0, 1.0])
            pipeline.agents["b"].record_all([2.0, 2.0, 2.0])
            qualities.append(pipeline.close_epoch().quality)
        # "c" never reports: stale after 1 miss, dead after 2, and from
        # then on the expected fleet shrinks so coverage recovers to 1.
        assert qualities[0].coverage == pytest.approx(2 / 3)
        assert qualities[-1].n_dead_agents == 1
        assert qualities[-1].fleet_size == 2
        assert qualities[-1].coverage == pytest.approx(1.0)
        assert pipeline.health.status("c") == "dead"
        # A report from the dead machine closes the breaker.
        pipeline.agents["a"].record_all([1.0, 1.0, 1.0])
        pipeline.agents["b"].record_all([2.0, 2.0, 2.0])
        pipeline.agents["c"].record_all([3.0, 3.0, 3.0])
        pipeline.close_epoch()
        assert pipeline.health.status("c") == "healthy"
