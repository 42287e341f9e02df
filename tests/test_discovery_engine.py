"""DiscoveryEngine integration: monitor wiring, promotion, checkpoints."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import DiscoveryConfig
from repro.core.atomicio import pack_header, unpack_header
from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.streaming import (
    IdentificationUpdate,
    StreamingCrisisMonitor,
)
from repro.discovery import (
    DiscoveryEngine,
    OnlineClusterer,
    load_discovery,
    save_discovery,
)
from repro.discovery.eval import EVAL_CONFIG, unlabeled_relevant_metrics
from repro.incidents import IncidentDatabase

DISCOVERY = DiscoveryConfig(radius_scale=1.1)


def _fresh(trace, relevant):
    monitor = StreamingCrisisMonitor(
        n_metrics=trace.n_metrics,
        relevant_metrics=relevant,
        config=EVAL_CONFIG,
        threshold_refresh_epochs=trace.epochs_per_day,
        min_history_epochs=trace.epochs_per_day * 7,
    )
    engine = DiscoveryEngine(DISCOVERY, incidents=IncidentDatabase())
    monitor.attach_discovery(engine)
    return monitor, engine


@pytest.fixture(scope="module")
def replayed(small_trace, tmp_path_factory):
    """One unlabeled replay, checkpointed mid-stream and resumed.

    The original monitor runs the whole trace; a restored copy picks up
    from the mid-stream checkpoint and must emit the *same events* for
    the rest of the stream (the bit-identical-resume acceptance).
    """
    relevant = unlabeled_relevant_metrics(small_trace, EVAL_CONFIG)
    monitor, engine = _fresh(small_trace, relevant)
    frac = small_trace.kpi_violation_fraction.max(axis=1)
    split = int(small_trace.n_epochs * 0.6)

    events = []
    for epoch in range(split):
        events.extend(
            monitor.ingest(small_trace.quantiles[epoch], float(frac[epoch]))
        )
    path = tmp_path_factory.mktemp("discovery") / "monitor.npz"
    save_monitor(monitor, path)
    restored = load_monitor(path, EVAL_CONFIG)

    tail_original = []
    tail_restored = []
    for epoch in range(split, small_trace.n_epochs):
        summary = small_trace.quantiles[epoch]
        violation = float(frac[epoch])
        tail_original.extend(monitor.ingest(summary, violation))
        tail_restored.extend(restored.ingest(summary, violation))
    events.extend(tail_original)
    engine.finalize()
    restored.discovery.finalize()
    return SimpleNamespace(
        trace=small_trace, monitor=monitor, engine=engine,
        restored=restored, events=events,
        tail_original=tail_original, tail_restored=tail_restored,
    )


class TestReplay:
    def test_unlabeled_crises_are_clustered(self, replayed):
        stats = replayed.engine.stats()
        assert stats["attached"] is True
        assert stats["n_fingerprints"] > 0
        assert stats["n_clusters"] > 0
        assert stats["n_pending"] == 0  # finalize drained the buffer

    def test_promotion_round_trip(self, replayed):
        """A promoted cluster becomes a catalog entry the supervised
        path matches: its label lands in the monitor's library, in the
        incident database, and in later identification events."""
        engine = replayed.engine
        labels = set(engine.clusterer.labels().values())
        assert labels, "no cluster cleared the promotion gate"
        library = set(replayed.monitor.library_labels)
        assert labels <= library
        for label in labels:
            assert engine.incidents.by_label(label)
        identified = {
            e.label for e in replayed.events
            if isinstance(e, IdentificationUpdate)
        }
        assert any(lab.startswith("discovered-") for lab in identified)

    def test_promoted_members_carry_the_cluster_label(self, replayed):
        engine = replayed.engine
        by_number = {s.number: s for s in replayed.monitor._library}
        for cid, label in engine.clusterer.labels().items():
            for ref in engine.clusterer.members(cid):
                if ref in by_number:
                    assert by_number[ref].label == label


class TestCheckpoint:
    def test_resume_is_event_for_event_identical(self, replayed):
        assert replayed.tail_restored == replayed.tail_original

    def test_restored_engine_state_is_bit_identical(self, replayed):
        engine = replayed.engine
        other = replayed.restored.discovery
        assert other is not None and other.monitor is replayed.restored
        assert other.clusterer.partition() == engine.clusterer.partition()
        assert other.clusterer.events == engine.clusterer.events
        assert other.clusterer.labels() == engine.clusterer.labels()
        for cid in engine.clusterer.cluster_ids():
            np.testing.assert_array_equal(
                other.clusterer.medoid(cid), engine.clusterer.medoid(cid)
            )

    def test_checkpoint_without_discovery_still_loads(
        self, small_trace, tmp_path
    ):
        monitor = StreamingCrisisMonitor(
            n_metrics=small_trace.n_metrics,
            relevant_metrics=[0, 1, 2],
            config=EVAL_CONFIG,
            threshold_refresh_epochs=small_trace.epochs_per_day,
            min_history_epochs=small_trace.epochs_per_day * 7,
        )
        path = tmp_path / "plain.npz"
        save_monitor(monitor, path)
        assert load_monitor(path, EVAL_CONFIG).discovery is None

    def test_standalone_save_load(self, replayed, tmp_path):
        engine = replayed.engine
        path = tmp_path / "discovery.npz"
        save_discovery(engine, path)
        loaded = load_discovery(path)
        assert loaded.monitor is None  # unattached until attach()
        assert loaded.clusterer.partition() == engine.clusterer.partition()
        assert loaded.clusterer.labels() == engine.clusterer.labels()
        for cid in engine.clusterer.cluster_ids():
            np.testing.assert_array_equal(
                loaded.clusterer.medoid(cid), engine.clusterer.medoid(cid)
            )

    def test_kdtree_configured_state_loads_as_brute(
        self, replayed, tmp_path
    ):
        """State saved under any backend name, the retired exact k-d tree
        included, restores on brute, which gives the same exact
        assignments."""
        path = tmp_path / "discovery.npz"
        save_discovery(replayed.engine, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = unpack_header(arrays)
        for backend in ("kdtree", "lsh", "brute"):
            header["config"]["backend"] = backend
            arrays["header"] = pack_header(header)
            np.savez(path, **arrays)
            loaded = load_discovery(path)
            assert loaded.clusterer._index.backend == "brute"
            assert (
                loaded.clusterer.partition()
                == replayed.engine.clusterer.partition()
            )

    def test_load_rejects_non_discovery_archives(self, replayed, tmp_path):
        path = tmp_path / "monitor.npz"
        save_monitor(replayed.monitor, path)
        with pytest.raises(ValueError):
            load_discovery(path)


class TestRename:
    def build(self):
        engine = DiscoveryEngine(
            DiscoveryConfig(assign_radius=1.0),
            incidents=IncidentDatabase(),
        )
        engine.clusterer = OnlineClusterer(2, engine.config)
        for i, x in enumerate((0.0, 0.2, 0.4)):
            engine.clusterer.ingest(np.array([x, 0.0]), ref=i)
        return engine

    def test_late_diagnosis_renames_not_duplicates(self):
        engine = self.build()
        label = engine.promote_cluster(0)
        assert label == "discovered-0"
        assert len(engine.incidents) == 1

        engine.on_diagnose(1, "db-overload")
        assert engine.clusterer.label(0) == "db-overload"
        assert len(engine.incidents) == 1  # renamed, never duplicated
        assert engine.incidents.by_label("db-overload")
        assert not engine.incidents.by_label("discovered-0")

    def test_discovered_labels_never_trigger_rename(self):
        engine = self.build()
        engine.promote_cluster(0)
        engine.on_diagnose(1, "discovered-99")  # engine-minted prefix
        assert engine.clusterer.label(0) == "discovered-0"

    def test_manual_promote_with_operator_label(self):
        engine = self.build()
        label = engine.promote_cluster(0, label="net-partition")
        assert label == "net-partition"
        assert engine.incidents.by_label("net-partition")
