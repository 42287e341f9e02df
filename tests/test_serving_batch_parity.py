"""Batched ingestion parity: ``report_batch`` vs per-machine ``report``.

The batched wire path must be an encoding change, not a semantic one:
feeding the same machine vectors through ``report_batch`` frames has to
leave a tenant in a bit-identical state to per-machine ``report``
frames — same summaries, same events, same recovery — because batch
frames share the journal, the epoch-addressed idempotency rule, and the
columnar pending block with the single-report path.
"""

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.serving.loadgen import (
    ServingClient,
    run_load,
    synthetic_batch,
    synthetic_report,
)
from repro.serving.server import IngestServer
from repro.serving.tenant import APPLIED, BAD_EPOCH, DUPLICATE, TenantRuntime
from repro.serving.wire import report_as_batch


def small_cfg(**over):
    base = dict(
        n_metrics=4, n_relevant=2, epoch_minutes=144, window_days=2,
        threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=3, seed=11,
    )
    base.update(over)
    return ServingConfig(**base)


def machine_rows(epoch, n_machines=6, n_metrics=4):
    rng = np.random.default_rng([5, epoch])
    values = rng.normal(10.0, 2.0, size=(n_machines, n_metrics))
    return (
        [f"m{i}" for i in range(n_machines)],
        [[float(v) for v in row] for row in values],
        [i % 3 == 0 for i in range(n_machines)],
    )


def drive(rt, n_epochs, batched, batch_size=None):
    """Journal + apply the same machine rows, batched or one-by-one."""
    for epoch in range(n_epochs):
        machines, values, violations = machine_rows(epoch)
        if batched:
            size = batch_size or len(machines)
            recs = [
                {
                    "op": "report_batch", "epoch": epoch,
                    "machines": machines[lo : lo + size],
                    "values": values[lo : lo + size],
                    "violations": violations[lo : lo + size],
                }
                for lo in range(0, len(machines), size)
            ]
        else:
            recs = [
                report_as_batch({
                    "op": "report", "machine": m, "epoch": epoch,
                    "values": v, "violation": f,
                })
                for m, v, f in zip(machines, values, violations)
            ]
        recs.append({"op": "close_epoch", "epoch": epoch})
        events = []
        for rec in recs:
            rt.journal.append(rec)
            status, evs = rt.apply(rec)
            assert status == APPLIED
            events.extend(evs)
    return events


class TestTenantBatchParity:
    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_state_bit_identical(self, tmp_path, batch_size):
        single = TenantRuntime("a", small_cfg(), tmp_path)
        batched = TenantRuntime("b", small_cfg(), tmp_path)
        drive(single, 12, batched=False)
        drive(batched, 12, batched=True, batch_size=batch_size)
        s, b = single.state(), batched.state()
        s.pop("tenant"), b.pop("tenant")
        # Fewer journal records ⇒ different sequence numbers; every
        # piece of *derived* state must still be identical.
        s.pop("applied_seq"), b.pop("applied_seq")
        assert s == b  # thresholds, events, pending — everything

    def test_stale_batch_is_duplicate_noop(self, tmp_path):
        rt = TenantRuntime("t", small_cfg(), tmp_path)
        drive(rt, 2, batched=True)
        machines, values, violations = machine_rows(0)
        resend = {
            "op": "report_batch", "epoch": 0, "machines": machines,
            "values": values, "violations": violations,
        }
        before = rt.state()
        status, events = rt.apply(resend)
        assert status == DUPLICATE and events == []
        assert rt.state() == before

    def test_future_batch_is_rejected(self, tmp_path):
        rt = TenantRuntime("t", small_cfg(), tmp_path)
        machines, values, violations = machine_rows(0)
        assert rt.classify({
            "op": "report_batch", "epoch": 5, "machines": machines,
            "values": values, "violations": violations,
        }) == BAD_EPOCH

    def test_batch_overwrites_earlier_singles(self, tmp_path):
        # Last write wins per machine, exactly as with repeated
        # ``report`` frames for the same machine in one epoch.
        rt = TenantRuntime("t", small_cfg(), tmp_path)
        rt.apply(report_as_batch({
            "op": "report", "machine": "m0", "epoch": 0,
            "values": [9.0, 9.0, 9.0, 9.0], "violation": True,
        }))
        rt.apply({
            "op": "report_batch", "epoch": 0, "machines": ["m0", "m1"],
            "values": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
            "violations": [False, False],
        })
        assert rt.pending["m0"] == ([1.0, 2.0, 3.0, 4.0], False)
        assert sorted(rt.pending) == ["m0", "m1"]

    def test_recovery_replays_batch_frames(self, tmp_path):
        rt = TenantRuntime("t", small_cfg(), tmp_path)
        drive(rt, 8, batched=True, batch_size=2)
        # Leave a half-open epoch so recovery must rebuild the pending
        # block from both checkpoint extra and journal batch frames.
        machines, values, violations = machine_rows(8)
        rec = {
            "op": "report_batch", "epoch": 8,
            "machines": machines[:3], "values": values[:3],
            "violations": violations[:3],
        }
        rt.journal.append(rec)
        rt.apply(rec)
        expected = rt.state()
        recovered = TenantRuntime.recover("t", small_cfg(), tmp_path)
        assert recovered.state() == expected


LOAD = dict(
    seed=5, n_tenants=2, n_machines=10, n_epochs=12, n_metrics=4,
    crisis_epochs=(9, 10),
)


def serving_cfg():
    return ServingConfig(
        n_metrics=4, n_relevant=2, epoch_minutes=144, window_days=2,
        threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=4, idle_timeout_s=2.0, seed=11,
    )


class TestServerBatchParity:
    def test_batched_load_matches_unbatched_state(self, tmp_path):
        states = {}
        for mode, batch_size in (("single", None), ("batched", 4)):
            srv = IngestServer(serving_cfg(), tmp_path / mode)
            srv.start()
            try:
                result = run_load(
                    "127.0.0.1", srv.port, batch_size=batch_size, **LOAD
                )
                assert result.rejected == 0
                # Acks cover every machine report plus one close per
                # tenant-epoch, batched or not.
                expected = LOAD["n_epochs"] * LOAD["n_tenants"] * (
                    LOAD["n_machines"] + 1
                )
                assert result.acked + result.duplicates == expected
                with ServingClient("127.0.0.1", srv.port) as client:
                    states[mode] = {}
                    for t in range(LOAD["n_tenants"]):
                        state = client.request(
                            {"op": "state", "tenant": f"tenant-{t}"}
                        )["state"]
                        # Batching journals fewer records, so sequence
                        # numbers differ; all derived state must not.
                        state.pop("applied_seq")
                        states[mode][t] = state
            finally:
                srv.close()
        assert states["batched"] == states["single"]

    def test_batch_ack_carries_coverage(self, tmp_path):
        srv = IngestServer(serving_cfg(), tmp_path)
        srv.start()
        try:
            with ServingClient("127.0.0.1", srv.port) as client:
                frame = synthetic_batch(5, 0, 0, range(7), 4)
                resp = client.request(frame)
                assert resp["ok"] and resp["n"] == 7
                close = {
                    "op": "close_epoch", "tenant": "tenant-0", "epoch": 0,
                }
                assert client.request(close)["ok"]
                # The stale resend is acked as a duplicate covering the
                # whole frame — no partial re-application.
                resp = client.request(frame)
                assert resp["ok"] and resp["status"] == "duplicate"
                assert resp["n"] == 7
                # A single report acks as the one-row batch it is.
                rep = synthetic_report(5, 0, 1, 0, 4)
                assert client.request(rep)["n"] == 1
        finally:
            srv.close()

    def test_server_restart_replays_batched_journal(self, tmp_path):
        cfg = serving_cfg()
        srv = IngestServer(cfg, tmp_path)
        srv.start()
        try:
            run_load("127.0.0.1", srv.port, batch_size=3, **LOAD)
            with ServingClient("127.0.0.1", srv.port) as client:
                before = client.request(
                    {"op": "state", "tenant": "tenant-0"}
                )["state"]
        finally:
            srv.close()
        srv2 = IngestServer(cfg, tmp_path)
        srv2.start()
        try:
            with ServingClient("127.0.0.1", srv2.port) as client:
                after = client.request(
                    {"op": "state", "tenant": "tenant-0"}
                )["state"]
        finally:
            srv2.close()
        assert after == before
