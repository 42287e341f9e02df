"""Replication, fencing, and failover proofs.

Three layers of evidence that the hot-standby tier keeps the serving
guarantees of PR 6 across a *node* loss:

* **Convergence** — a standby tailing the primary's journal stream ends
  with byte-for-byte identical tenant state (same apply code, same
  record stream, same sequence numbers), resumes from its cursor after
  restarts, and survives seeded partition/link-drop/delayed-ack chaos.
* **Split brain** — a displaced primary is sealed by the first write
  carrying the new fencing epoch: its supervisor sheds everything as
  ``fenced``, its journals raise
  :class:`~repro.serving.fencing.StaleFencingToken` before a byte is
  written, and the seal survives a process restart.
* **Failover** — the headline proof: SIGKILL the primary subprocess
  mid-epoch, promote the standby, re-offer the deterministic workload,
  and the promoted node's thresholds and event history are
  **bit-identical** (``assert_array_equal``, event for event) to a
  primary that was never killed.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.serving import wire
from repro.serving.failover import FailoverController
from repro.serving.fencing import StaleFencingToken
from repro.serving.loadgen import ServingClient, run_load
from repro.serving.server import IngestServer
from repro.serving.supervisor import FENCED
from repro.telemetry.chaos import ServingChaosConfig, ServingChaosInjector
from tests.test_serving_tenant import old_journal, serve, traffic

LOCAL = "127.0.0.1"


def repl_cfg(**over):
    base = dict(
        n_metrics=4, n_relevant=2, epoch_minutes=144, window_days=2,
        threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=4, max_inflight=256,
        idle_timeout_s=0.6, restart_base_delay=0.01,
        restart_max_delay=0.05, heartbeat_interval_s=0.1,
        repl_ack_timeout_s=2.0, seed=11,
    )
    base.update(over)
    return ServingConfig(**base)


LOAD = dict(
    seed=42, n_tenants=2, n_machines=8, n_epochs=10, n_metrics=4,
    crisis_epochs=(6, 7),
)


@pytest.fixture
def fleet(tmp_path):
    """Factory for in-process servers sharing one temp directory."""
    servers = []

    def make(name, standby_of=None, chaos=None, **over):
        srv = IngestServer(
            repl_cfg(**over), tmp_path / name,
            standby_of=standby_of, repl_chaos=chaos,
        )
        srv.start()
        servers.append(srv)
        return srv

    yield make
    for srv in servers:
        srv.close(checkpoint=False)


def applied_seqs(server):
    with server._lock:
        out = {}
        for tenant in server.supervisor.tenants():
            slot = server.supervisor.peek(tenant)
            if slot is not None and slot.runtime is not None:
                out[tenant] = slot.runtime.applied_seq
    return out


def wait_converged(primary, standby, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        want = applied_seqs(primary)
        if want and applied_seqs(standby) == want:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"standby never converged: primary {applied_seqs(primary)} "
        f"vs standby {applied_seqs(standby)} "
        f"(replicator: {standby.replicator.stats() if standby.replicator else None})"
    )


def tenant_state(server, tenant):
    with server._lock:
        return server.supervisor.peek(tenant).runtime.state()


class TestConvergence:
    def test_standby_state_is_bit_identical(self, fleet):
        prim = fleet("prim")
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)])
        result = run_load(LOCAL, prim.port, **LOAD)
        assert result.rejected == 0
        wait_converged(prim, stby)
        for t in range(LOAD["n_tenants"]):
            tenant = f"tenant-{t}"
            a = tenant_state(prim, tenant)
            b = tenant_state(stby, tenant)
            assert a["events"] == b["events"]
            assert a == b, f"{tenant}: standby state diverged"
            np.testing.assert_array_equal(
                np.asarray(a["thresholds"]["hot"]),
                np.asarray(b["thresholds"]["hot"]),
            )
        # The workload actually drove the crisis machinery.
        kinds = {
            e["type"] for e in tenant_state(prim, "tenant-0")["events"]
        }
        assert "crisis_detected" in kinds

    def test_late_subscriber_catches_up_from_journal(self, fleet):
        """A standby started after the fact replays the suffix."""
        # No checkpoints -> nothing compacted -> full journal history.
        prim = fleet("prim", checkpoint_every_epochs=10_000)
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 6})
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)],
                     checkpoint_every_epochs=10_000)
        wait_converged(prim, stby)
        assert stby.replicator.stats()["snapshot_needed"] == []

    def test_standby_restart_resumes_from_cursor(self, fleet, tmp_path):
        """Seq-based resume: a bounced standby re-ships only the tail."""
        prim = fleet("prim", checkpoint_every_epochs=10_000)
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)],
                     checkpoint_every_epochs=10_000)
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 4})
        wait_converged(prim, stby)
        stby.close()  # graceful: checkpoints its cursor
        run_load(LOCAL, prim.port, start_epoch=4,
                 **{**LOAD, "n_epochs": 8})
        stby2 = IngestServer(
            repl_cfg(checkpoint_every_epochs=10_000),
            tmp_path / "stby", standby_of=[(LOCAL, prim.port)],
        )
        stby2.start()
        try:
            wait_converged(prim, stby2)
            # The subscription resumed past the checkpointed cursor
            # instead of re-shipping from seq 1.
            assert stby2.replicator.records_applied < sum(
                applied_seqs(prim).values()
            )
        finally:
            stby2.close(checkpoint=False)

    def test_cold_standby_behind_compaction_needs_snapshot(self, fleet):
        """A cursor below the compaction horizon cannot log-catch-up."""
        prim = fleet("prim", checkpoint_every_epochs=2)
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 8})
        with prim._lock:
            prim.supervisor.checkpoint_all()  # compacts the journals
            compacted = {
                t: prim.supervisor.peek(t).runtime.compacted_through
                for t in prim.supervisor.tenants()
            }
        assert all(v > 0 for v in compacted.values())
        stby = fleet("fresh-stby", standby_of=[(LOCAL, prim.port)])
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            needed = stby.replicator.stats()["snapshot_needed"]
            if set(needed) == set(compacted):
                break
            time.sleep(0.05)
        assert set(stby.replicator.stats()["snapshot_needed"]) == set(
            compacted
        ), "hub should have answered snapshot-needed for every tenant"

    def test_replication_survives_partition_chaos(self, fleet):
        """Seeded partitions/link drops/delayed acks; still converges."""
        chaos_cfg = ServingChaosConfig(
            partition=0.15, link_drop=0.1, delayed_ack=0.3, seed=5
        )
        # Compaction is disabled so a partition window can never push
        # the standby behind the horizon — log catch-up always works
        # (the snapshot-needed path has its own test above).
        prim = fleet("prim", chaos=ServingChaosInjector(chaos_cfg),
                     checkpoint_every_epochs=10_000)
        stby = fleet(
            "stby", standby_of=[(LOCAL, prim.port)],
            chaos=ServingChaosInjector(chaos_cfg),
            checkpoint_every_epochs=10_000,
        )
        result = run_load(LOCAL, prim.port, **LOAD)
        assert result.rejected == 0
        wait_converged(prim, stby, timeout=30.0)
        stats = stby.replicator.stats()
        hub = prim.hub.stats()
        # The schedule actually severed the link at least once...
        assert (
            stats["partitions"] > 0
            or hub["subscribers_reaped"] > 0
            or stats["subscriptions"] > 1
        ), f"chaos never fired: {stats} / {hub}"
        # ...and the states still match exactly.
        for t in range(LOAD["n_tenants"]):
            tenant = f"tenant-{t}"
            assert tenant_state(prim, tenant) == tenant_state(
                stby, tenant
            )

    def test_standby_converges_on_a_pre_batch_journal(self, fleet, tmp_path):
        """A primary whose journal still holds single ``report`` records
        (written before reports became one-row batches) ships them as
        stored; the standby parses each into its one-row batch and ends
        in the state of the same stream sent as one-row batches."""
        old_journal(
            tmp_path / "prim",
            *(traffic([e], one_row=False) for e in range(12)),
            traffic([12], one_row=False, machines=range(3), close=False),
        )
        # No compaction: the standby must catch up from the log alone.
        prim = fleet("prim", checkpoint_every_epochs=10_000)
        stby = fleet(
            "stby", standby_of=[(LOCAL, prim.port)],
            checkpoint_every_epochs=10_000,
        )
        wait_converged(prim, stby)
        ref = serve(
            tmp_path / "ref", repl_cfg(checkpoint_every_epochs=10_000),
            traffic(range(12), one_row=True)
            + traffic([12], one_row=True, machines=range(3), close=False),
        )
        want = ref.state()
        ref.close()
        assert any(e["type"] == "crisis_detected" for e in want["events"])
        assert tenant_state(prim, "tenant-0") == want
        assert tenant_state(stby, "tenant-0") == want


class TestNoDelay:
    def test_replication_link_disables_nagle_on_both_ends(self, fleet):
        prim = fleet("prim")
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)])
        deadline = time.monotonic() + 10.0
        while not (stby.replicator.connected and prim.hub._subs):
            assert time.monotonic() < deadline, "standby never subscribed"
            time.sleep(0.02)
        nodelay = (socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert stby.replicator._sock.getsockopt(*nodelay)
        # The hub pushes frames and heartbeats down the accepted socket.
        assert prim.hub._subs[0].conn.getsockopt(*nodelay)


class TestHeartbeats:
    def test_idle_subscription_survives_slow_loris_window(self, fleet):
        """Heartbeats keep a quiet-but-alive link from being dropped."""
        prim = fleet("prim")  # idle_timeout_s=0.6 << the idle window
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)])
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 2})
        wait_converged(prim, stby)
        acks_before = stby.replicator.acks_sent
        time.sleep(2.0)  # > 3x idle_timeout_s, zero frames shipped
        stats = stby.replicator.stats()
        assert stats["connected"], "idle subscription was dropped"
        assert stby.replicator.subscriptions == 1, "link was rebuilt"
        assert stby.replicator.acks_sent > acks_before, (
            "no heartbeat acks flowed during the idle window"
        )
        assert prim.slowloris_drops == 0
        # And replication still works after the quiet spell.
        run_load(LOCAL, prim.port, start_epoch=2,
                 **{**LOAD, "n_epochs": 4})
        wait_converged(prim, stby)

    def test_dead_subscriber_is_reaped(self, fleet):
        """A subscriber that stops acking releases its retention pin."""
        prim = fleet("prim", repl_ack_timeout_s=0.5,
                     heartbeat_interval_s=0.1)
        sock = socket.create_connection((LOCAL, prim.port), timeout=5)
        sock.sendall(wire.encode_frame(
            {"op": "repl_subscribe", "cursors": {}}
        ))
        sock.settimeout(5.0)
        buf = b""
        while b"\n" not in buf:
            buf += sock.recv(65536)
        assert wire.decode_frame(buf.split(b"\n", 1)[0])["ok"]
        # Never ack: the hub must reap us after repl_ack_timeout_s.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if prim.hub.stats()["subscribers_reaped"] == 1:
                break
            time.sleep(0.05)
        assert prim.hub.stats()["subscribers_reaped"] == 1
        assert prim.hub.stats()["subscribers"] == []
        assert prim.hub.retention_floor("tenant-0") is None
        sock.close()


class TestFencing:
    def test_stale_token_rejected_newer_token_seals(self, fleet):
        prim = fleet("prim")
        with ServingClient(LOCAL, prim.port) as client:
            r = client.request({
                "op": "report", "tenant": "t", "machine": "m0",
                "epoch": 0, "values": [1.0, 2.0, 3.0, 4.0],
                "violation": False,
            })
            assert r["ok"]
        # A token *below* the node's epoch is a stale writer.
        prim.fencing.mint()  # node is now at epoch 1
        raw = socket.create_connection((LOCAL, prim.port), timeout=5)
        raw.sendall(wire.encode_frame({
            "op": "close_epoch", "tenant": "t", "epoch": 0, "fence": 0,
        }))
        buf = b""
        while b"\n" not in buf:
            buf += raw.recv(65536)
        resp = wire.decode_frame(buf.split(b"\n", 1)[0])
        assert resp["error"] == "stale-fence" and resp["fence"] == 1
        raw.close()
        assert prim.stale_fence_rejects == 1
        assert not prim.fencing.fenced

    def test_split_brain_sealed_and_seal_survives_restart(
        self, fleet, tmp_path
    ):
        prim = fleet("prim")
        stby = fleet("stby", standby_of=[(LOCAL, prim.port)])
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 3})
        wait_converged(prim, stby)
        epoch = stby.promote()
        assert stby.role == "primary" and epoch == 1

        # First post-promotion write to reach the old primary carries
        # the new token and seals it permanently.
        client = ServingClient(
            endpoints=[(LOCAL, prim.port), (LOCAL, stby.port)], seed=3
        )
        client.fence = epoch
        client.connect()
        resp = client.request({
            "op": "report", "tenant": "tenant-0", "machine": "m0",
            "epoch": 3, "values": [1.0, 2.0, 3.0, 4.0],
            "violation": False,
        })
        client.close()
        # The write failed over to the promoted standby and was acked.
        assert resp["ok"] and client.failovers >= 1
        assert prim.fencing.fenced and prim.fencing.epoch == epoch

        # The sealed node can never journal again, on any path: the
        # supervisor sheds as FENCED and the journal itself refuses.
        with prim._lock:
            results = prim.supervisor.dispatch_batch("tenant-0", [{
                "op": "close_epoch", "tenant": "tenant-0", "epoch": 3,
            }])
            assert [s for s, _ in results] == [FENCED]
            runtime = prim.supervisor.peek("tenant-0").runtime
            with pytest.raises(StaleFencingToken):
                runtime.journal.append_many([{"op": "noop"}])
        # No acked-write divergence: the promoted node holds everything
        # the fenced node ever acked.
        assert applied_seqs(stby)["tenant-0"] >= applied_seqs(
            prim
        )["tenant-0"]

        # kill -9 the fenced node; the seal is durable state.
        prim.close(checkpoint=False)
        revived = IngestServer(repl_cfg(), tmp_path / "prim")
        revived.start()
        try:
            assert revived.fencing.fenced
            assert revived.fencing.epoch == epoch
            with ServingClient(
                LOCAL, revived.port, max_retries=1
            ) as c2:
                with pytest.raises(TimeoutError):
                    c2.request({
                        "op": "report", "tenant": "tenant-0",
                        "machine": "m0", "epoch": 3,
                        "values": [1.0, 2.0, 3.0, 4.0],
                        "violation": False,
                    })
        finally:
            revived.close(checkpoint=False)


class TestClientBackoff:
    """Satellite: the client's reconnect schedule is seeded policy."""

    @staticmethod
    def _dead_endpoint():
        # Reserve a port, then close it so nothing listens there.
        sock = socket.socket()
        sock.bind((LOCAL, 0))
        port = sock.getsockname()[1]
        sock.close()
        return (LOCAL, port)

    def test_backoff_schedule_is_seeded_and_reproducible(self):
        dead = self._dead_endpoint()

        def schedule(seed):
            client = ServingClient(
                endpoints=[dead], seed=seed,
                reconnect_attempts=5, reconnect_delay=0.001,
            )
            with pytest.raises(ConnectionError):
                client.connect()
            return list(client.backoff_delays)

        a = schedule(seed=7)
        b = schedule(seed=7)
        other = schedule(seed=8)
        assert len(a) == 5
        # Same seed -> the exact same jittered schedule: a retry storm
        # replays identically under a debugger.
        assert a == b
        # The jitter is real: consecutive delays differ, and a
        # different seed lands on a different schedule.
        assert len(set(a)) > 1
        assert a != other
        # Exponential shape survives the jitter: later attempts back
        # off at least as far as the base of the first.
        assert max(a[2:]) > a[0]

    def test_backoff_caps_at_policy_ceiling(self):
        dead = self._dead_endpoint()
        client = ServingClient(
            endpoints=[dead], seed=3,
            reconnect_attempts=12, reconnect_delay=0.0001,
        )
        with pytest.raises(ConnectionError):
            client.connect()
        assert len(client.backoff_delays) == 12
        assert max(client.backoff_delays) <= client.policy.max_delay


class TestFailoverController:
    def test_promotes_survivor_and_repoints_other_standby(self, fleet):
        prim = fleet("prim")
        peers = [(LOCAL, prim.port)]
        stby1 = fleet("stby1", standby_of=peers)
        # stby2 knows both the primary and its sibling, so after the
        # failover it can find the new primary by rotation.
        stby2_endpoints = [(LOCAL, prim.port), (LOCAL, stby1.port)]
        stby2 = fleet("stby2", standby_of=stby2_endpoints)
        run_load(LOCAL, prim.port, **{**LOAD, "n_epochs": 4})
        wait_converged(prim, stby1)
        wait_converged(prim, stby2)

        controller = FailoverController(
            [(LOCAL, prim.port), (LOCAL, stby1.port),
             (LOCAL, stby2.port)],
            grace_probes=2, probe_timeout=1.0,
        )
        assert controller.step()["action"] == "healthy"

        prim.close(checkpoint=False)  # the primary vanishes
        assert controller.step()["action"] == "wait"  # grace period
        result = controller.step()
        assert result["action"] == "promoted"
        assert result["fence"] == 1
        promoted_port = result["endpoint"][1]
        promoted, other = (
            (stby1, stby2) if promoted_port == stby1.port
            else (stby2, stby1)
        )
        assert promoted.role == "primary"
        assert not other.fencing.fenced, (
            "controller must not seal a surviving standby"
        )
        assert controller.step()["action"] == "healthy"

        # Post-failover writes land on the new primary; the surviving
        # standby re-points (by endpoint rotation) and keeps tailing.
        run_load(
            LOCAL, promoted.port, start_epoch=4,
            **{**LOAD, "n_epochs": 8},
            endpoints=[(LOCAL, promoted.port)],
        )
        if other is stby2:
            wait_converged(promoted, other, timeout=20.0)


# --------------------------------------------------------------------------
# The headline proof: SIGKILL the primary, promote, bit-identical state.
# --------------------------------------------------------------------------

TENANTS = ("tenant-0", "tenant-1")
SERVE_ARGS = [
    "--metrics", "6", "--relevant", "3", "--epoch-minutes", "144",
    "--window-days", "2", "--refresh-epochs", "5",
    "--min-history-epochs", "8", "--checkpoint-every", "4",
    "--heartbeat-interval", "0.1", "--repl-ack-timeout", "2.0",
    "--seed", "7",
]
PROOF_LOAD = dict(
    seed=42, n_tenants=len(TENANTS), n_machines=12, n_epochs=14,
    n_metrics=6, crisis_epochs=(9, 10, 11),
)


def start_node(root, standby_of=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    argv = (
        [sys.executable, "-m", "repro", "serve", "--root", str(root)]
        + SERVE_ARGS
    )
    if standby_of is not None:
        argv += ["--standby-of", standby_of]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True,
    )
    line = proc.stdout.readline().strip()
    tag, host, port = line.split()
    assert tag == "SERVING"
    return proc, host, int(port)


def tenant_states(host, port):
    states = {}
    with ServingClient(host, port) as client:
        for tenant in TENANTS:
            states[tenant] = client.request(
                {"op": "state", "tenant": tenant}
            )["state"]
    return states


def assert_bit_identical(got, ref):
    for tenant in TENANTS:
        a, b = got[tenant], ref[tenant]
        assert a["events"] == b["events"], (
            f"{tenant}: event history diverged after failover"
        )
        assert a["next_epoch"] == b["next_epoch"]
        assert a["library_labels"] == b["library_labels"]
        assert a["untrusted_epochs"] == b["untrusted_epochs"]
        np.testing.assert_array_equal(
            np.asarray(a["thresholds"]["cold"]),
            np.asarray(b["thresholds"]["cold"]),
        )
        np.testing.assert_array_equal(
            np.asarray(a["thresholds"]["hot"]),
            np.asarray(b["thresholds"]["hot"]),
        )


@pytest.fixture(scope="module")
def reference_states(tmp_path_factory):
    """A primary that is never killed, fed the identical workload."""
    root = tmp_path_factory.mktemp("failover-ref")
    proc, host, port = start_node(root)
    try:
        result = run_load(host, port, **PROOF_LOAD)
        assert result.rejected == 0
        states = tenant_states(host, port)
    finally:
        proc.kill()
        proc.wait()
    kinds = {e["type"] for t in states for e in states[t]["events"]}
    assert {"crisis_detected", "identification", "crisis_ended"} <= kinds
    return states


class TestKillFailover:
    def test_sigkill_primary_promote_standby_bit_identical(
        self, tmp_path, reference_states
    ):
        prim_proc, host, prim_port = start_node(tmp_path / "prim")
        stby_proc, _, stby_port = start_node(
            tmp_path / "stby", standby_of=f"{LOCAL}:{prim_port}"
        )
        try:
            kill_epoch = 8
            run_load(host, prim_port,
                     **{**PROOF_LOAD, "n_epochs": kill_epoch})
            # Half of kill_epoch's reports are acked when the axe falls.
            from repro.serving.loadgen import synthetic_report
            with ServingClient(host, prim_port) as client:
                for t in range(PROOF_LOAD["n_tenants"]):
                    for m in range(PROOF_LOAD["n_machines"] // 2):
                        client.request(synthetic_report(
                            PROOF_LOAD["seed"], t, kill_epoch, m,
                            PROOF_LOAD["n_metrics"],
                            PROOF_LOAD["crisis_epochs"],
                        ))
            os.kill(prim_proc.pid, signal.SIGKILL)
            prim_proc.wait()

            # The controller notices, promotes, and fences.
            controller = FailoverController(
                [(LOCAL, prim_port), (LOCAL, stby_port)],
                grace_probes=1, probe_timeout=2.0,
            )
            t0 = time.perf_counter()
            result = controller.step()
            promotion_s = time.perf_counter() - t0
            assert result["action"] == "promoted"
            assert result["endpoint"] == (LOCAL, stby_port)
            assert promotion_s < 30

            # Replication is asynchronous, so the standby may be
            # missing the acked tail.  The client's contract is
            # at-least-once: re-offer the deterministic workload
            # against the survivor; epoch-addressed idempotency
            # absorbs everything already replicated.
            result = run_load(
                host, stby_port, **PROOF_LOAD,
                endpoints=[(LOCAL, stby_port)],
            )
            assert result.rejected == 0
            got = tenant_states(host, stby_port)
        finally:
            stby_proc.send_signal(signal.SIGTERM)
            assert stby_proc.wait(timeout=15) == 0
        assert_bit_identical(got, reference_states)
