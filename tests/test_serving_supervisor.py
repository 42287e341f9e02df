"""Supervision: backoff restarts, crash-loop quarantine, isolation."""

import pytest

from repro.config import ServingConfig
from repro.serving.supervisor import (
    QUARANTINED,
    RESTARTING,
    RUNNING,
    TenantSupervisor,
)
from repro.serving.wire import report_as_batch
from repro.telemetry.chaos import InjectedTenantCrash


def small_cfg(**over):
    base = dict(
        n_metrics=4, n_relevant=2, epoch_minutes=144, window_days=2,
        threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=3, max_restarts=3,
        restart_base_delay=0.5, restart_max_delay=4.0, seed=11,
    )
    base.update(over)
    return ServingConfig(**base)


def report(epoch, machine="m0", **fields):
    return report_as_batch({
        "op": "report", "machine": machine, "epoch": epoch,
        "values": [1.0, 2.0, 3.0, 4.0], "violation": False, **fields,
    })


def close(epoch):
    return {"op": "close_epoch", "epoch": epoch}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def poison_factory(bad_tenant):
    """Crash `bad_tenant`'s engine on every report it ever applies."""
    def factory(tenant):
        if tenant != bad_tenant:
            return None

        def hook(record):
            if record["op"] == "report_batch":
                raise InjectedTenantCrash(f"poison in {tenant}")

        return hook

    return factory


class TestHappyPath:
    def test_dispatch_applies_and_acks(self, tmp_path):
        sup = TenantSupervisor(small_cfg(), tmp_path)
        status, payload = sup.dispatch("a", report(0))
        assert status == "applied"
        status, payload = sup.dispatch("a", close(0))
        assert status == "applied"
        assert sup.slot("a").runtime.next_epoch == 1
        sup.close()

    def test_batch_pipelines_across_epoch_boundary(self, tmp_path):
        sup = TenantSupervisor(small_cfg(), tmp_path)
        batch = [report(0), close(0), report(1), close(1), report(1)]
        results = sup.dispatch_batch("a", batch)
        statuses = [s for s, _ in results]
        assert statuses == [
            "applied", "applied", "applied", "applied", "duplicate",
        ]
        sup.close()

    def test_duplicates_and_bad_epochs_not_journaled(self, tmp_path):
        sup = TenantSupervisor(small_cfg(), tmp_path)
        sup.dispatch_batch("a", [report(0), close(0)])
        before = sup.slot("a").runtime.journal.last_seq
        results = sup.dispatch_batch("a", [report(0), report(5)])
        assert [s for s, _ in results] == ["duplicate", "bad-epoch"]
        assert sup.slot("a").runtime.journal.last_seq == before
        sup.close()

    def test_diagnose_sees_crisis_ended_earlier_in_same_batch(
        self, tmp_path
    ):
        """Diagnose is classified at apply time, not against the
        pre-batch library: a pipelined batch may end a crisis and
        diagnose it in one go."""
        sup = TenantSupervisor(small_cfg(), tmp_path)
        for epoch in range(6):  # calm history arms the thresholds
            sup.dispatch_batch("a", [report(epoch), close(epoch)])
        assert sup.slot("a").runtime.monitor.ready
        # Crisis epoch: the whole (one-machine) fleet violates its SLA.
        violating = report(6, violation=True, values=[9.0] * 4)
        sup.dispatch_batch("a", [violating, close(6)])
        # One pipelined batch: the calm epoch 7 ends crisis #1 (which
        # stores it in the library), and the diagnose follows directly.
        results = sup.dispatch_batch("a", [
            report(7), close(7),
            {"op": "diagnose", "crisis": 1, "label": "overload"},
        ])
        assert [s for s, _ in results] == ["applied"] * 3
        assert sup.slot("a").runtime.monitor.library_labels == ["overload"]
        # A diagnose for a crisis that never existed stays an error.
        status, _ = sup.dispatch(
            "a", {"op": "diagnose", "crisis": 99, "label": "ghost"}
        )
        assert status == "unknown-crisis"
        sup.close()

    def test_peek_never_creates_a_slot(self, tmp_path):
        sup = TenantSupervisor(small_cfg(), tmp_path)
        assert sup.peek("ghost") is None
        assert sup.tenants() == []
        sup.dispatch("a", report(0))
        assert sup.peek("a") is not None
        sup.close()


class TestCrashLoop:
    def test_poison_record_quarantines_after_max_restarts(self, tmp_path):
        clock = FakeClock()
        cfg = small_cfg(max_restarts=3)
        sup = TenantSupervisor(
            cfg, tmp_path, clock=clock,
            fault_hook_factory=poison_factory("bad"),
        )
        # Crash 1: the poison record is journaled, then apply dies.
        status, payload = sup.dispatch("bad", report(0))
        assert status == "shed"
        assert payload["retry_after"] > 0
        assert sup.slot("bad").state == RESTARTING
        # Before the backoff expires, requests are shed without work.
        status, _ = sup.dispatch("bad", report(0))
        assert status == "shed"
        assert sup.slot("bad").crash_streak == 1
        # Journal-before-ack means recovery replays the poison record:
        # each retry after backoff crashes again, up to quarantine.
        for expected_streak in (2, 3):
            clock.now += 1000.0
            status, _ = sup.dispatch("bad", report(0))
            assert sup.slot("bad").crash_streak == expected_streak
        assert sup.slot("bad").state == QUARANTINED
        status, payload = sup.dispatch("bad", report(0))
        assert status == "quarantined"
        assert "poison" in payload["detail"]
        sup.close()

    def test_healthy_tenants_unaffected_by_crash_looper(self, tmp_path):
        clock = FakeClock()
        sup = TenantSupervisor(
            small_cfg(), tmp_path, clock=clock,
            fault_hook_factory=poison_factory("bad"),
        )
        for epoch in range(3):
            sup.dispatch("bad", report(epoch))
            clock.now += 1000.0
            status, _ = sup.dispatch("good", report(epoch))
            assert status == "applied"
            status, _ = sup.dispatch("good", close(epoch))
            assert status == "applied"
        assert sup.slot("bad").state in (RESTARTING, QUARANTINED)
        assert sup.slot("good").state == RUNNING
        assert sup.slot("good").runtime.next_epoch == 3
        sup.close()

    def test_backoff_schedule_is_seeded_and_reproducible(self, tmp_path):
        def schedule(root):
            clock = FakeClock()
            sup = TenantSupervisor(
                small_cfg(seed=99), root, clock=clock,
                fault_hook_factory=poison_factory("bad"),
            )
            delays = []
            sup.dispatch("bad", report(0))
            delays.append(sup.slot("bad").next_retry_at - clock.now)
            clock.now += 1000.0
            sup.dispatch("bad", report(0))
            delays.append(sup.slot("bad").next_retry_at - clock.now)
            sup.close()
            return delays

        a = schedule(tmp_path / "a")
        b = schedule(tmp_path / "b")
        assert a == b
        # Jitter is actually applied (seeded policy, nonzero jitter).
        assert a[0] != small_cfg().restart_base_delay

    def test_clear_quarantine_gives_fresh_streak(self, tmp_path):
        clock = FakeClock()
        sup = TenantSupervisor(
            small_cfg(max_restarts=1), tmp_path, clock=clock,
            fault_hook_factory=poison_factory("bad"),
        )
        sup.dispatch("bad", report(0))
        assert sup.slot("bad").state == QUARANTINED
        with pytest.raises(KeyError):
            sup.clear_quarantine("good-tenant-never-seen")
        sup.clear_quarantine("bad")
        assert sup.slot("bad").state == RESTARTING
        assert sup.slot("bad").crash_streak == 0
        sup.close()

    def test_released_tenant_that_still_crashes_requarantines(self, tmp_path):
        """The unquarantine regression: release must grant a FULL fresh
        restart budget — and a tenant whose poison record is still in
        the journal must burn through that budget and land back in
        quarantine, not crash-loop forever or stay released."""
        clock = FakeClock()
        sup = TenantSupervisor(
            small_cfg(max_restarts=2), tmp_path, clock=clock,
            fault_hook_factory=poison_factory("bad"),
        )
        clock.now += 1000.0
        sup.dispatch("bad", report(0))
        clock.now += 1000.0
        sup.dispatch("bad", report(0))
        assert sup.slot("bad").state == QUARANTINED
        # Operator releases it; the poison record is still journaled.
        sup.clear_quarantine("bad")
        # The budget really is fresh: the first post-release crash is
        # a restart, not an immediate re-quarantine.
        clock.now += 1000.0
        status, payload = sup.dispatch("bad", report(0))
        assert status == "shed"
        assert sup.slot("bad").state == RESTARTING
        assert sup.slot("bad").crash_streak == 1
        # ...and the streak runs to the same ceiling as the first time.
        clock.now += 1000.0
        sup.dispatch("bad", report(0))
        assert sup.slot("bad").state == QUARANTINED
        assert sup.slot("bad").crash_streak == 2
        # A second release after the poison is fixed actually heals.
        sup.clear_quarantine("bad")
        sup.fault_hook_factory = None  # the restart re-derives hooks
        clock.now += 1000.0
        status, _ = sup.dispatch("bad", report(0))
        assert status in ("applied", "shed")
        sup.close()


class TestRecoveryIntegration:
    def test_adopt_existing_recovers_tenant_dirs(self, tmp_path):
        cfg = small_cfg()
        sup = TenantSupervisor(cfg, tmp_path)
        sup.dispatch_batch("a", [report(0), close(0)])
        sup.dispatch_batch("b", [report(0)])
        sup.checkpoint_all()
        sup.close()
        sup2 = TenantSupervisor(cfg, tmp_path)
        assert sup2.adopt_existing() == ["a", "b"]
        assert sup2.slot("a").runtime.next_epoch == 1
        assert sup2.slot("a").state == RUNNING
        sup2.close()

    def test_mid_epoch_checkpoint_all_keeps_acked_reports(self, tmp_path):
        """Graceful shutdown mid-epoch must not drop journaled+acked
        reports: the checkpoint carries the pending buffer through the
        compaction that follows it."""
        cfg = small_cfg()
        sup = TenantSupervisor(cfg, tmp_path)
        sup.dispatch_batch("a", [report(0), close(0), report(1)])
        sup.checkpoint_all()  # shutdown with epoch 1 still open
        sup.close()
        sup2 = TenantSupervisor(cfg, tmp_path)
        sup2.adopt_existing()
        rt = sup2.slot("a").runtime
        assert rt.next_epoch == 1
        assert sorted(rt.pending) == ["m0"]
        # Closing the epoch uses the recovered report: the summary is
        # real data, not the NaN placeholder of a silent fleet.
        status, _ = sup2.dispatch("a", close(1))
        assert status == "applied"
        assert rt.monitor.untrusted_epochs == 0
        sup2.close()

    def test_stats_shape(self, tmp_path):
        sup = TenantSupervisor(small_cfg(), tmp_path)
        sup.dispatch("a", report(0))
        stats = sup.stats()
        assert stats["a"]["state"] == RUNNING
        assert stats["a"]["applied_seq"] == 1
        sup.close()
