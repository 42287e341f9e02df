"""One epoch close for every ingestion plane.

The same per-machine reports, gaps and garbage included, must close into
the same summary on every plane: :class:`CollectionPipeline` over the
single-process :class:`EpochAggregator` (the reference), over a sharded
:class:`FleetAggregator` at any shard count, and the serving
:class:`TenantRuntime` fed ``report_batch`` records — batched, as
one-row ``report`` s, and recovered from a checkpoint plus journal
mid-epoch.  Summaries are compared with ``assert_array_equal`` (no
tolerance) and quality records field for field.  The sketch mode stays
within the combined GK error bound.
"""

import numpy as np
import pytest

from repro.config import FleetConfig, ServingConfig
from repro.core.streaming import StreamingCrisisMonitor
from repro.fleet import FleetAggregator
from repro.serving import wire
from repro.serving.tenant import TenantRuntime
from repro.telemetry.collector import CollectionPipeline, EpochAggregator
from repro.telemetry.reliability import QuorumPolicy

N_METRICS = 5
METRICS = [f"metric_{j}" for j in range(N_METRICS)]
QUANTILES = (0.25, 0.50, 0.95)
QUALITY_FIELDS = (
    "n_reporting", "fleet_size", "dropped_samples", "n_stale_agents",
    "n_dead_agents", "quorum_met", "coverage",
)


def drive_pipeline(pipeline, epochs, machine_ids, deliveries=None):
    """Feed each epoch's deliveries through agents; collect summaries.

    ``deliveries[e]`` lists the row indices delivered in epoch ``e`` (a
    silent machine is absent, a re-delivered one appears twice); by
    default every machine delivers once.  Agents record the finite
    entries only, so a non-finite one is a gap in that machine's report.
    """
    summaries = []
    for e, matrix in enumerate(epochs):
        rows = range(len(machine_ids)) if deliveries is None else deliveries[e]
        for i in rows:
            for j, name in enumerate(METRICS):
                value = matrix[i, j]
                if np.isfinite(value):
                    pipeline.agents[machine_ids[i]].record(name, value)
        summaries.append(pipeline.close_epoch())
    return summaries


def make_epochs(n_epochs, n_machines, seed, nan_fraction=0.03):
    rng = np.random.default_rng(seed)
    epochs = rng.lognormal(size=(n_epochs, n_machines, N_METRICS))
    epochs[rng.random(epochs.shape) < nan_fraction] = np.nan
    return epochs


def degraded_epochs(n_machines=40):
    """Four epochs of NaN gaps plus every other input the planes must
    agree on: +inf, -inf, a row with no finite value, a machine silent
    from epoch 1 on, and rows re-delivered within their epoch."""
    epochs = make_epochs(4, n_machines, seed=0)
    epochs[1, 5, 2] = np.inf
    epochs[1, 9, 0] = -np.inf
    epochs[3, 12, [1, 4]] = [np.inf, -np.inf]
    epochs[2, 7] = [np.nan, np.inf, -np.inf, np.nan, np.inf]
    silent, resent = 11, {1: [3, 9], 3: [12]}
    deliveries = []
    for e in range(len(epochs)):
        rows = [i for i in range(n_machines) if e == 0 or i != silent]
        deliveries.append(rows + resent.get(e, []))
    return epochs, deliveries


def tenant_records(epochs, machine_ids, deliveries, batched):
    """Journal records carrying the same deliveries, epoch by epoch."""
    records = []
    for e, matrix in enumerate(epochs):
        rows = deliveries[e]
        if batched:
            # Frames of up to 16 rows; a re-delivery goes in a later
            # frame, since a frame may not repeat a machine.
            frames, current = [], []
            for i in rows:
                if len(current) == 16 or i in current:
                    frames.append(current)
                    current = []
                current.append(i)
            frames.append(current)
        else:
            frames = [[i] for i in rows]
        for frame in frames:
            records.append({
                "op": "report_batch", "epoch": e,
                "machines": [machine_ids[i] for i in frame],
                "values": matrix[frame].tolist(),
                "violations": [i % 4 == 0 for i in frame],
            })
        records.append({"op": "close_epoch", "epoch": e})
    return records


def tenant_cfg():
    return ServingConfig(
        n_metrics=N_METRICS, n_relevant=2, quantiles=QUANTILES,
        epoch_minutes=144, window_days=2, threshold_refresh_epochs=4,
        min_history_epochs=6, checkpoint_every_epochs=100, seed=11,
    )


def record_ingests(monkeypatch):
    """``(summary, quality)`` of every epoch a monitor ingests."""
    seen = []
    ingest = StreamingCrisisMonitor.ingest

    def recording(self, epoch_quantiles, violation_fraction, quality=None):
        seen.append((np.array(epoch_quantiles), quality))
        return ingest(self, epoch_quantiles, violation_fraction, quality)

    monkeypatch.setattr(StreamingCrisisMonitor, "ingest", recording)
    return seen


def apply_all(rt, records):
    for record in records:
        rt.journal.append(record)
        rt.apply(record)


def drive_tenant(root, records, recover_at=None):
    """Apply ``records``; with ``recover_at``, checkpoint mid-epoch there,
    apply one more frame, drop the runtime and recover it from the
    checkpoint plus the journal before applying the rest."""
    rt = TenantRuntime("t", tenant_cfg(), root)
    if recover_at is None:
        apply_all(rt, records)
        return
    apply_all(rt, records[:recover_at])
    assert len(rt.pending)  # the checkpoint carries an open epoch
    rt.checkpoint()
    apply_all(rt, records[recover_at:recover_at + 1])
    rt.close()
    rt = TenantRuntime.recover("t", tenant_cfg(), root)
    apply_all(rt, records[recover_at + 1:])


def assert_same_close(got_summary, got_quality, ref):
    np.testing.assert_array_equal(got_summary, ref.quantiles)
    for field in QUALITY_FIELDS:
        assert getattr(got_quality, field) == getattr(ref.quality, field), (
            field
        )


@pytest.mark.parametrize(
    "plane", [1, 3, "batched", "reports", "recovered"],
)
def test_exact_pipeline_bit_identical(plane, tmp_path, monkeypatch):
    machine_ids = [f"host-{i:03d}" for i in range(40)]
    epochs, deliveries = degraded_epochs(len(machine_ids))
    single = CollectionPipeline(
        machine_ids, METRICS, quantiles=QUANTILES, mode="exact"
    )
    reference = drive_pipeline(single, epochs, machine_ids, deliveries)
    # The inputs reach every rule: drops in each epoch, the silent
    # machine and the no-report row as misses, and every metric keeps a
    # finite sample.
    assert all(r.quality.dropped_samples for r in reference)
    assert [r.quality.n_reporting for r in reference] == [40, 39, 38, 39]
    assert [r.quality.n_stale_agents for r in reference] == [0, 1, 2, 1]
    assert np.isfinite(np.stack([r.quantiles for r in reference])).all()

    if isinstance(plane, int):
        config = FleetConfig(n_shards=plane, mode="exact", batch_size=16)
        with FleetAggregator(
            METRICS, machine_ids=machine_ids, quantiles=QUANTILES,
            config=config,
        ) as aggregator:
            sharded = drive_pipeline(
                CollectionPipeline(
                    machine_ids, METRICS, aggregator=aggregator
                ),
                epochs, machine_ids, deliveries,
            )
        for ref, got in zip(reference, sharded):
            assert got.epoch == ref.epoch
            assert got.n_machines_reporting == ref.n_machines_reporting
            assert_same_close(got.quantiles, got.quality, ref)
            # Shard accounting says every shard contributed.
            assert got.quality.n_shards == plane
            assert got.quality.n_shards_reporting == plane
            assert got.quality.missing_shards == ()
        return

    seen = record_ingests(monkeypatch)
    records = tenant_records(
        epochs, machine_ids, deliveries, batched=plane != "reports"
    )
    recover_at = None
    if plane == "recovered":
        # Mid-epoch 1, after its first frame: the checkpoint holds the
        # first delivery of the rows re-delivered later in the epoch,
        # and recovery replays the second frame from the journal.
        recover_at = 1 + next(
            k for k, r in enumerate(records) if r["epoch"] == 1
        )
    drive_tenant(tmp_path, records, recover_at)
    assert len(seen) == len(reference)
    for (summary, quality), ref in zip(seen, reference):
        assert quality.epoch == ref.epoch
        assert_same_close(summary, quality, ref)


def test_agent_drops_are_counted_once(tmp_path, monkeypatch):
    # Agents record every sample, non-finite ones too, and each sample
    # is its metric's only one in the epoch: the agent drops it and its
    # flushed report carries it as a NaN entry.  The collector counts it
    # once, as the tenant fed the flushed reports does.  Epoch 2's row 7
    # holds no finite sample: no report on either plane, and no drops.
    machine_ids = [f"host-{i:03d}" for i in range(40)]
    epochs, _ = degraded_epochs(len(machine_ids))
    single = CollectionPipeline(machine_ids, METRICS, quantiles=QUANTILES)
    reference = []
    for matrix in epochs:
        for mid, row in zip(machine_ids, matrix):
            single.agents[mid].record_all(row)
        reference.append(single.close_epoch())
    reported = [np.isfinite(m).any(axis=1) for m in epochs]
    assert [r.quality.dropped_samples for r in reference] == [
        int((~np.isfinite(m[ok])).sum()) for m, ok in zip(epochs, reported)
    ]
    assert [r.quality.n_reporting for r in reference] == [40, 40, 39, 40]

    seen = record_ingests(monkeypatch)
    every_row = [list(range(len(machine_ids)))] * len(epochs)
    drive_tenant(
        tmp_path, tenant_records(epochs, machine_ids, every_row, True)
    )
    assert len(seen) == len(reference)
    for (summary, quality), ref in zip(seen, reference):
        assert_same_close(summary, quality, ref)


def test_wire_non_finite_tokens_are_missing_samples(tmp_path, monkeypatch):
    # JSON's NaN, Infinity and -Infinity tokens parse into the values of
    # a report_batch; the tenant drops and counts each as a missing
    # sample, as the collector does, and serves the epoch.
    frame = (
        b'{"op":"report_batch","tenant":"t","epoch":0,'
        b'"machines":["a","b","c","d"],'
        b'"values":[[1.5,NaN,3.0,2.0,1.0],[Infinity,2.5,1.0,4.0,2.0],'
        b'[-Infinity,0.5,2.0,1.0,3.0],[2.0,1.0,-Infinity,3.0,NaN]],'
        b'"violations":[false,true,false,false]}\n'
    )
    request = wire.parse_request(wire.decode_frame(frame))
    seen = record_ingests(monkeypatch)
    rt = TenantRuntime("t", tenant_cfg(), tmp_path)
    apply_all(rt, [request, {"op": "close_epoch", "epoch": 0}])

    machine_ids = request["machines"]
    single = CollectionPipeline(machine_ids, METRICS, quantiles=QUANTILES)
    [ref] = drive_pipeline(
        single, [np.array(request["values"])], machine_ids
    )
    assert ref.quality.dropped_samples == 5
    [(summary, quality)] = seen
    assert_same_close(summary, quality, ref)
    assert np.isfinite(summary).all()
    assert rt.monitor.untrusted_epochs == 0


def test_exact_aggregator_matches_report_by_report():
    # Same check one layer down: FleetAggregator.submit vs
    # EpochAggregator.submit on identical reports, no agents involved.
    rng = np.random.default_rng(7)
    reports = rng.normal(size=(60, N_METRICS))
    reports[rng.random(reports.shape) < 0.05] = np.nan
    single = EpochAggregator(METRICS, quantiles=QUANTILES, fleet_size=60)
    for row in reports:
        single.submit(row)
    ref = single.close_epoch()
    config = FleetConfig(n_shards=2, mode="exact", batch_size=8)
    with FleetAggregator(
        METRICS, quantiles=QUANTILES, config=config, fleet_size=60
    ) as fleet:
        for row in reports:
            fleet.submit(row)
        got = fleet.close_epoch()
    np.testing.assert_array_equal(got.quantiles, ref.quantiles)
    assert got.quality.dropped_samples == ref.quality.dropped_samples
    assert got.n_machines_reporting == ref.n_machines_reporting


def test_submit_matrix_matches_submit_rows():
    # The fast whole-matrix path and the per-report path agree.
    machine_ids = [f"host-{i:03d}" for i in range(30)]
    matrix = make_epochs(1, 30, seed=3)[0]
    config = FleetConfig(n_shards=2, mode="exact", batch_size=8)
    with FleetAggregator(
        METRICS, machine_ids=machine_ids, quantiles=QUANTILES, config=config
    ) as fleet:
        for i, mid in enumerate(machine_ids):
            fleet.submit(matrix[i], machine_id=mid)
        by_rows = fleet.close_epoch()
        fleet.submit_matrix(matrix)
        by_matrix = fleet.close_epoch()
    np.testing.assert_array_equal(by_matrix.quantiles, by_rows.quantiles)


def test_sketch_pipeline_within_eps():
    eps = 0.02
    n_machines = 600
    machine_ids = [f"host-{i:04d}" for i in range(n_machines)]
    epochs = make_epochs(2, n_machines, seed=1, nan_fraction=0.0)
    config = FleetConfig(
        n_shards=3, mode="sketch", sketch_eps=eps, batch_size=128
    )
    with FleetAggregator(
        METRICS, machine_ids=machine_ids, quantiles=QUANTILES, config=config
    ) as aggregator:
        summaries = drive_pipeline(
            CollectionPipeline(machine_ids, METRICS, aggregator=aggregator),
            epochs, machine_ids,
        )
    for e, summary in enumerate(summaries):
        for j in range(N_METRICS):
            col = np.sort(epochs[e, :, j])
            for k, q in enumerate(QUANTILES):
                rank = np.searchsorted(
                    col, summary.quantiles[j, k], side="right"
                )
                target = int(np.ceil(q * n_machines))
                # 3 equal-eps shard sketches merge to an eps-summary; the
                # admissible rank window is 2*eps*n around the target.
                assert abs(rank - target) <= 2 * eps * n_machines + 1


def test_below_quorum_all_nan_both_paths():
    machine_ids = [f"host-{i:02d}" for i in range(10)]
    quorum = QuorumPolicy(min_fraction=0.5, min_count=1)
    single = CollectionPipeline(
        machine_ids, METRICS, quantiles=QUANTILES, quorum=quorum
    )
    config = FleetConfig(n_shards=2, mode="exact")
    with FleetAggregator(
        METRICS, machine_ids=machine_ids, quantiles=QUANTILES,
        config=config, quorum=quorum,
    ) as aggregator:
        fleet = CollectionPipeline(machine_ids, METRICS, aggregator=aggregator)
        # Only 2 of 10 machines report: below the 50% quorum.
        for pipeline in (single, fleet):
            for mid in machine_ids[:2]:
                for name in METRICS:
                    pipeline.agents[mid].record(name, 1.0)
        ref = single.close_epoch()
        got = fleet.close_epoch()
    assert not ref.quality.quorum_met and not got.quality.quorum_met
    assert np.all(np.isnan(ref.quantiles))
    np.testing.assert_array_equal(got.quantiles, ref.quantiles)
