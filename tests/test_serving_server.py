"""Front-door behavior over real sockets: admission, defense, isolation."""

import socket
import threading
import time

import pytest

from repro.config import ServingConfig
from repro.serving import wire
from repro.serving.loadgen import ServingClient, run_load, synthetic_report
from repro.serving.server import IngestServer
from repro.telemetry.chaos import (
    InjectedTenantCrash,
    ServingChaosConfig,
    ServingChaosInjector,
)


def small_cfg(**over):
    base = dict(
        n_metrics=4, n_relevant=2, epoch_minutes=144, window_days=2,
        threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=4, max_inflight=256,
        idle_timeout_s=0.4, restart_base_delay=0.01,
        restart_max_delay=0.05, seed=11,
    )
    base.update(over)
    return ServingConfig(**base)


@pytest.fixture
def server(tmp_path):
    servers = []

    def make(**over):
        srv = IngestServer(small_cfg(**over), tmp_path)
        srv.start()
        servers.append(srv)
        return srv

    yield make
    for srv in servers:
        srv.close()


def report(epoch, tenant="t", machine="m0"):
    return {
        "op": "report", "tenant": tenant, "machine": machine,
        "epoch": epoch, "values": [1.0, 2.0, 3.0, 4.0],
        "violation": False,
    }


class TestBasicProtocol:
    def test_ping_report_close_state(self, server):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            assert client.request({"op": "ping"})["op"] == "pong"
            resp = client.request(report(0))
            assert resp["ok"] and resp["seq"] == 1
            resp = client.request(
                {"op": "close_epoch", "tenant": "t", "epoch": 0}
            )
            assert resp["ok"]
            state = client.request(
                {"op": "state", "tenant": "t"}
            )["state"]
            assert state["next_epoch"] == 1

    def test_state_unknown_tenant_is_error_not_mkdir(
        self, server, tmp_path
    ):
        """The read-only state op must not mint tenant directories for
        arbitrary queried names (adopt_existing would then resurrect
        them at every startup)."""
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            resp = client.request({"op": "state", "tenant": "ghost"})
            assert not resp["ok"]
            assert resp["error"] == "unknown-tenant"
            assert not (tmp_path / "tenants" / "ghost").exists()
            # Journaled verbs still create tenants normally.
            assert client.request(report(0, tenant="real"))["ok"]
            assert client.request({"op": "state", "tenant": "real"})["ok"]
            assert (tmp_path / "tenants" / "real").exists()

    def test_duplicate_report_is_acked_not_reapplied(self, server):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            client.request(report(0))
            client.request({"op": "close_epoch", "tenant": "t", "epoch": 0})
            resp = client.request(report(0))  # stale resend
            assert resp["ok"] and resp["status"] == "duplicate"
            stats = client.request({"op": "stats"})
            assert stats["tenants"]["t"]["next_epoch"] == 1

    def test_future_epoch_rejected(self, server):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            resp = client.request(report(7))
            assert not resp["ok"] and resp["error"] == "bad-epoch"

    def test_malformed_frames_answered_not_fatal(self, server):
        srv = server()
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        sock.sendall(b"this is not json\n")
        sock.sendall(b'{"op": 42}\n')
        buf = b""
        while buf.count(b"\n") < 2:
            buf += sock.recv(4096)
        lines = buf.decode().strip().split("\n")
        import json
        for line in lines:
            resp = json.loads(line)
            assert resp["ok"] is False and resp["error"] == "malformed"
        # The connection (and server) survive; valid traffic still works.
        with ServingClient("127.0.0.1", srv.port) as client:
            assert client.request({"op": "ping"})["op"] == "pong"
        sock.close()
        assert srv.malformed_frames == 2

    def test_chaos_corrupted_frames_all_rejected_cleanly(self, server):
        srv = server()
        chaos = ServingChaosInjector(
            ServingChaosConfig(malformed_frame=1.0, seed=3)
        )
        from repro.serving import wire
        frames = [
            chaos.corrupt_frame(wire.encode_frame(report(0)), i)
            for i in range(12)
        ]
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        sock.sendall(b"".join(frames))
        deadline = time.time() + 5
        buf = b""
        # Empty-line corruptions are skipped, the rest get error acks.
        expected = sum(1 for f in frames if f.strip())
        while buf.count(b"\n") < expected and time.time() < deadline:
            buf += sock.recv(4096)
        import json
        for line in buf.decode().strip().split("\n"):
            assert json.loads(line)["ok"] is False
        sock.close()
        with ServingClient("127.0.0.1", srv.port) as client:
            assert client.request({"op": "ping"})["op"] == "pong"


def read_frames(sock, n, timeout=5.0):
    """The next ``n`` response frames on a raw socket."""
    sock.settimeout(timeout)
    buf = b""
    while buf.count(b"\n") < n:
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    return [wire.decode_frame(line) for line in buf.split(b"\n")[:n]]


class TestUntrustedNumbers:
    def test_out_of_range_numbers_are_answered_malformed(self, server):
        """Integers beyond float64 range or past the decoder's digit
        limit used to escape the parser and drop the whole connection,
        taking the good frames around them down too."""
        srv = server()
        huge = dict(report(0, machine="m1"), values=[1.0, 2.0, 10 ** 400])
        long_literal = wire.encode_frame(report(0, machine="m2")).replace(
            b"[1.0,", b"[" + b"9" * 5000 + b","
        )
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        sock.sendall(
            wire.encode_frame(report(0)) + wire.encode_frame(huge)
            + long_literal + wire.encode_frame(report(0, machine="m3"))
        )
        resps = read_frames(sock, 4)
        sock.close()
        assert [r.get("error") for r in resps] == [
            None, "malformed", "malformed", None,
        ]
        assert resps[0]["ok"] and resps[3]["ok"]
        assert srv.malformed_frames == 2

    def test_wrong_width_is_rejected_not_quarantined(self, server):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            resp = client.request(dict(report(0), values=[1.0, 2.0]))
            assert not resp["ok"] and resp["error"] == "bad-shape"
            resp = client.request({
                "op": "report_batch", "tenant": "t", "epoch": 0,
                "machines": ["m1", "m2"],
                "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                "violations": [False, False],
            })
            assert not resp["ok"] and resp["error"] == "bad-shape"
            assert client.request(report(0))["ok"]
            tenant = client.request({"op": "stats"})["tenants"]["t"]
        assert tenant["state"] == "running"
        assert tenant["applied_seq"] == 1  # only the good frame


class TestOneReportPath:
    def test_single_report_is_journaled_as_a_one_row_batch(self, server):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            ack = client.request(report(0))
            assert ack["ok"] and ack["n"] == 1
            client.request({"op": "close_epoch", "tenant": "t", "epoch": 0})
        with srv._lock:
            records = srv.supervisor.peek("t").runtime.journal.replay()
        assert [r["op"] for r in records] == ["report_batch", "close_epoch"]
        assert records[0]["machines"] == ["m0"]
        assert records[0]["values"] == [[1.0, 2.0, 3.0, 4.0]]


class TestOneParsePerFrame:
    def test_every_frame_is_parsed_once(self, server, monkeypatch):
        """The receive loop decodes and validates each frame exactly
        once, including across the hand-off of a ``repl_subscribe``
        to the replication hub, which parses the acks after it."""
        ops = []
        parse = wire.parse_request

        def spy(obj):
            ops.append(obj.get("op"))
            return parse(obj)

        monkeypatch.setattr(wire, "parse_request", spy)
        srv = server()
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        batch = {
            "op": "report_batch", "tenant": "t", "epoch": 0,
            "machines": ["m1", "m2"], "values": [[1.0] * 4, [2.0] * 4],
            "violations": [False, True],
        }
        first = [
            report(0), batch, {"op": "nope"},
            {"op": "close_epoch", "tenant": "t", "epoch": 0},
            {"op": "ping"},
        ]
        sock.sendall(
            b"".join(wire.encode_frame(f) for f in first) + b"\n"
        )
        assert [r.get("error") for r in read_frames(sock, 5)] == [
            None, None, "malformed", None, None,
        ]
        second = [
            report(1),
            {"op": "repl_subscribe", "cursors": {}},
            {"op": "repl_ack", "cursors": {"t": 1}},
            {"op": "repl_ack", "cursors": {"t": 3}},
        ]
        sock.sendall(b"".join(wire.encode_frame(f) for f in second))
        report_ack, subscribed = read_frames(sock, 2)
        assert report_ack["ok"] and subscribed["op"] == "repl_subscribe"
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            subs = srv.hub.stats()["subscribers"]
            if subs and subs[0]["acked"].get("t") == 3:
                break
            time.sleep(0.02)
        sock.close()
        assert ops == [f["op"] for f in first + second]


class _NoDelayProbe(IngestServer):
    """Records ``TCP_NODELAY`` on each connection as it is served."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nodelay = []

    def _serve_connection(self, conn, addr):
        self.nodelay.append(
            conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        super()._serve_connection(conn, addr)


class TestNoDelay:
    def test_both_ends_of_a_serving_connection_disable_nagle(
        self, tmp_path
    ):
        srv = _NoDelayProbe(small_cfg(), tmp_path)
        srv.start()
        try:
            for _ in range(2):
                with ServingClient("127.0.0.1", srv.port) as client:
                    assert client.request({"op": "ping"})["ok"]
                    assert client._sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
            assert len(srv.nodelay) == 2 and all(srv.nodelay)
        finally:
            srv.close()


class TestSlowLoris:
    def test_stalled_partial_frame_is_dropped(self, server):
        srv = server(idle_timeout_s=0.2)
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        sock.sendall(b'{"op": "ping"')  # no newline, then stall
        # The server drops us; recv sees EOF.
        sock.settimeout(5.0)
        assert sock.recv(4096) == b""
        sock.close()
        assert srv.slowloris_drops == 1
        # Healthy clients are unaffected.
        with ServingClient("127.0.0.1", srv.port) as client:
            assert client.request({"op": "ping"})["op"] == "pong"

    def test_oversized_frame_is_rejected(self, server):
        srv = server(max_frame_bytes=256)
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        sock.sendall(b'{"op": "' + b"x" * 1024)
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
        import json
        if buf:
            assert json.loads(buf.split(b"\n")[0])["error"] == (
                "frame-too-long"
            )
        sock.close()


class TestOverloadProof:
    def test_shed_with_retry_after_and_bounded_queue(self, server):
        # An admission budget far below the offered concurrency.
        srv = server(max_inflight=2)
        n_threads, per_thread = 8, 25
        overloads = []
        acked = []

        def hammer(k):
            with ServingClient("127.0.0.1", srv.port) as client:
                for i in range(per_thread):
                    resp = client.request(report(0, machine=f"m{k}-{i}"))
                    acked.append(resp["ok"])
                overloads.append(client.overloads)

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        # Every report was eventually acked (clients retried through
        # the explicit retry-after sheds)...
        assert all(acked) and len(acked) == n_threads * per_thread
        # ...the server shed explicitly rather than queueing...
        assert srv.overload_responses > 0
        assert sum(overloads) == srv.overload_responses
        # ...and the in-flight bound was never exceeded.
        assert srv.peak_inflight <= 2
        assert srv.inflight == 0  # fully drained

    def test_healthy_tenant_keeps_identifying_while_one_crash_loops(
        self, tmp_path
    ):
        # The overload-proof acceptance criterion's isolation half:
        # tenant "bad" crash-loops into quarantine while "tenant-0"
        # sails through a full crisis lifecycle.
        def poison(tenant):
            if tenant != "bad":
                return None

            def hook(record):
                if record["op"] == "report_batch":
                    raise InjectedTenantCrash("poison")

            return hook

        srv = IngestServer(
            small_cfg(max_restarts=2), tmp_path,
            fault_hook_factory=poison,
        )
        srv.start()
        try:
            with ServingClient("127.0.0.1", srv.port) as bad_client:
                statuses = set()
                for _ in range(8):
                    resp = bad_client.request(report(0, tenant="bad"))
                    statuses.add(resp.get("error"))
                    if resp.get("error") == "quarantined":
                        break
                    time.sleep(0.05)
                assert "quarantined" in statuses
            result = run_load(
                "127.0.0.1", srv.port, seed=42, n_tenants=1,
                n_machines=20, n_epochs=14, n_metrics=4,
                crisis_epochs=(9, 10, 11),
            )
            assert result.rejected == 0
            kinds = {e["type"] for e in result.events}
            assert "crisis_detected" in kinds
            assert "identification" in kinds
            assert "crisis_ended" in kinds
            with ServingClient("127.0.0.1", srv.port) as client:
                stats = client.request({"op": "stats"})
            assert stats["tenants"]["bad"]["state"] == "quarantined"
            assert stats["tenants"]["tenant-0"]["state"] == "running"
        finally:
            srv.close()


class TestAdminOps:
    def test_unquarantine_over_the_wire(self, tmp_path):
        """Operator releases a quarantined tenant without a restart."""
        poisoned = {"on": True}

        def poison(tenant):
            if tenant != "bad":
                return None

            def hook(record):
                if poisoned["on"] and record["op"] == "report_batch":
                    raise InjectedTenantCrash("poison")

            return hook

        srv = IngestServer(
            small_cfg(max_restarts=2), tmp_path,
            fault_hook_factory=poison,
        )
        srv.start()
        try:
            with ServingClient("127.0.0.1", srv.port) as client:
                for _ in range(12):
                    resp = client.request(report(0, tenant="bad"))
                    if resp.get("error") == "quarantined":
                        break
                    time.sleep(0.05)
                assert resp.get("error") == "quarantined"
                # Releasing a tenant that is not quarantined is a typed
                # error, not a silent no-op.
                resp = client.request(
                    {"op": "unquarantine", "tenant": "never-seen"}
                )
                assert resp["error"] == "not-quarantined"
                # Fix the poison, then release: tenant serves again.
                poisoned["on"] = False
                resp = client.request(
                    {"op": "unquarantine", "tenant": "bad"}
                )
                assert resp["ok"]
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    resp = client.request(
                        report(0, tenant="bad", machine="m9")
                    )
                    if resp.get("ok"):
                        break
                    time.sleep(0.05)
                assert resp.get("ok"), resp
                stats = client.request({"op": "stats"})
                assert stats["tenants"]["bad"]["state"] == "running"
        finally:
            srv.close()


class TestGracefulShutdown:
    def test_close_checkpoints_tenants(self, server, tmp_path):
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            client.request(report(0))
            client.request({"op": "close_epoch", "tenant": "t", "epoch": 0})
        srv.close()
        assert (tmp_path / "tenants" / "t" / "checkpoint.npz").exists()


class TestIncidentsOp:
    def test_unknown_tenant_is_error_not_mkdir(self, server, tmp_path):
        """Like ``state``, the read-only incidents op must never mint a
        tenant directory for an arbitrary queried name."""
        srv = server()
        with ServingClient("127.0.0.1", srv.port) as client:
            resp = client.request({"op": "incidents", "tenant": "ghost"})
            assert not resp["ok"]
            assert resp["error"] == "unknown-tenant"
            assert not (tmp_path / "tenants" / "ghost").exists()

    def test_live_tenant_reports_catalog(self, server):
        srv = server(discovery_enabled=True)
        with ServingClient("127.0.0.1", srv.port) as client:
            client.request(report(0))
            client.request({"op": "close_epoch", "tenant": "t", "epoch": 0})
            resp = client.request({"op": "incidents", "tenant": "t"})
            assert resp["ok"]
            assert resp["tenant"] == "t"
            assert resp["crises"] == []  # one quiet epoch: no crises yet
            assert resp["library_labels"] == []
            disc = resp["discovery"]
            assert disc["attached"] is True
            assert disc["n_clusters"] == 0

    def test_discovery_disabled_reports_none(self, server):
        srv = server()  # discovery_enabled defaults to False
        with ServingClient("127.0.0.1", srv.port) as client:
            client.request(report(0))
            resp = client.request({"op": "incidents", "tenant": "t"})
            assert resp["ok"] and resp["discovery"] is None

    def test_discovery_survives_recovery(self, tmp_path):
        """A restart restores the tenant with its discovery engine
        attached (embedded in the checkpoint, or re-attached fresh)."""
        cfg = small_cfg(discovery_enabled=True)
        srv = IngestServer(cfg, tmp_path)
        srv.start()
        try:
            with ServingClient("127.0.0.1", srv.port) as client:
                client.request(report(0))
                client.request(
                    {"op": "close_epoch", "tenant": "t", "epoch": 0}
                )
        finally:
            srv.close()  # graceful: checkpoints the tenant

        srv = IngestServer(cfg, tmp_path)
        srv.start()
        try:
            with ServingClient("127.0.0.1", srv.port) as client:
                resp = client.request({"op": "incidents", "tenant": "t"})
                assert resp["ok"]
                assert resp["discovery"]["attached"] is True
        finally:
            srv.close()
