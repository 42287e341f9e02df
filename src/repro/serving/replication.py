"""Journal-shipping replication: warm standby over the wire protocol.

The durability story of PR 6 ends at the machine boundary: the journal
survives ``kill -9`` of the *process*, but not loss of the *node*.
This module closes that gap with a hot standby that tails the primary's
per-tenant write-ahead journals over the existing JSON-lines protocol:

* :class:`ReplicationHub` (primary side) — owns the subscriber set.  A
  standby sends ``repl_subscribe`` with per-tenant sequence cursors;
  the hub replays the journal suffix past each cursor, then streams
  every subsequently journaled batch (``repl_frames``) down the same
  connection, heartbeating on idle so the subscription is never
  mistaken for a slow-loris.  Subscriber acks (``repl_ack``) drive lag
  accounting, pin journal compaction (a record is only compacted once
  the slowest live subscriber has acked past it), and a subscriber that
  stops acking is reaped so a dead standby cannot pin the journal
  forever.

* :class:`StandbyReplicator` (standby side) — maintains the
  subscription, filters each pushed batch down to unseen sequence
  numbers, and applies it through the standby's **own**
  journal-then-apply path (:meth:`TenantSupervisor.dispatch_batch`).
  Because the standby journals the byte-identical record stream in the
  same order, its locally assigned sequence numbers must equal the
  primary's — checked record-for-record; a mismatch is
  :class:`ReplicationDivergence`, never silently absorbed.  Standby
  state is therefore bit-identical *by construction*: both sides run
  the same apply code over the same journal stream.

A standby whose cursor has fallen behind the primary's compaction
horizon cannot be caught up from the log alone; the hub answers
``snapshot-needed`` for that tenant and the operator re-seeds the
standby from the primary's state directory (runbook in
``docs/operations.md``).

Chaos seams (:class:`~repro.telemetry.chaos.ServingChaosConfig`):
``partition`` severs the link from the standby side, ``link_drop``
severs it from the primary side, and ``delayed_ack`` suppresses an ack
round — all pure functions of ``(seed, kind, index)``, so a chaos run's
damage schedule replays exactly.
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving import wire
from repro.serving.tenant import APPLIED
from repro.serving.wire import MalformedFrame
from repro.telemetry.reliability import RetryPolicy

logger = logging.getLogger(__name__)


class ReplicationDivergence(RuntimeError):
    """The standby's journal stream no longer matches the primary's.

    Raised when a replicated record lands under a different local
    sequence number (or fails to apply) — the standby's state can no
    longer be trusted to be bit-identical and must be re-seeded.
    """


class _InjectedPartition(ConnectionError):
    """Chaos: the replication link was severed mid-stream."""


class _Subscriber:
    """One standby's live subscription on the primary."""

    _ids = itertools.count(1)

    def __init__(self, conn: socket.socket, addr, cursors: Dict[str, int]):
        self.sid = next(self._ids)
        self.conn = conn
        self.addr = addr
        #: Highest seq per tenant the standby has durably applied.
        self.acked: Dict[str, int] = dict(cursors)
        #: Tenants this subscriber cannot log-catch-up on
        #: (snapshot-needed): live frames for them are withheld and
        #: their acks ignored until the standby is re-seeded.
        self.skip: set = set()
        self.queue: deque = deque()
        self.cond = threading.Condition()
        self.last_ack = time.monotonic()
        self.closed = False

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class ReplicationHub:
    """Primary-side fan-out of the journal stream to subscribed standbys."""

    def __init__(self, server, chaos=None):
        self.server = server
        self.chaos = chaos
        self._subs: List[_Subscriber] = []
        self._subs_lock = threading.Lock()
        self.frames_shipped = 0
        self.subscribers_reaped = 0

    # -- supervisor taps ---------------------------------------------------

    def publish(self, tenant: str, records: List[dict]) -> None:
        """Enqueue a freshly journaled batch to every live subscriber.

        Called under the server's dispatch lock, immediately after the
        records hit the primary's journal — the same lock the catch-up
        snapshot in :meth:`serve_subscriber` is taken under, so each
        subscriber sees every record exactly once: in the catch-up
        replay if journaled before registration, in the queue after.
        """
        with self._subs_lock:
            subs = list(self._subs)
        for sub in subs:
            with sub.cond:
                if not sub.closed:
                    sub.queue.append((tenant, [dict(r) for r in records]))
                    sub.cond.notify_all()

    def retention_floor(self, tenant: str) -> Optional[int]:
        """Lowest acked cursor any live subscriber holds for ``tenant``.

        Journal compaction must keep everything past this floor so the
        subscriber can resume from its cursor after a reconnect.  A
        subscriber that never acks is reaped (``repl_ack_timeout_s``),
        releasing its pin.  Only subscribers actually *tracking* the
        tenant count — one already behind the compaction horizon
        (snapshot-needed) has no cursor here and must not freeze
        compaction at zero forever.  ``None`` when nobody tracks it.
        """
        with self._subs_lock:
            subs = [s for s in self._subs if not s.closed]
        cursors = [
            sub.acked[tenant] for sub in subs if tenant in sub.acked
        ]
        return min(cursors) if cursors else None

    # -- subscription lifecycle --------------------------------------------

    def serve_subscriber(
        self, conn: socket.socket, addr, request: dict,
        leftover: List[bytes], tail: bytes = b"",
    ) -> None:
        """Run one replication subscription; returns when the link dies.

        Runs on the connection's accept thread: sends the subscribe
        response and the catch-up suffix, spawns a writer for live
        frames + heartbeats, and consumes ``repl_ack`` frames until the
        subscriber disappears or is reaped.
        """
        server = self.server
        sub_fence = request.get("fence")
        if sub_fence is not None and sub_fence > server.fencing.epoch:
            # The subscriber has seen a newer primary than us: we are
            # the stale side of a partition.  Seal ourselves.
            server.fencing.fence(sub_fence)
            conn.sendall(wire.encode_frame(wire.error_response(
                "fenced", fence=server.fencing.epoch,
            )))
            return
        cursors = request["cursors"]
        catchup: List[Tuple[str, List[dict]]] = []
        snapshot_needed: List[str] = []
        start_cursors: Dict[str, int] = {}
        with server._lock:
            for tenant in server.supervisor.tenants():
                slot = server.supervisor.peek(tenant)
                runtime = slot.runtime if slot is not None else None
                if runtime is None:
                    continue  # quarantined/restarting: resumes later
                cursor = cursors.get(tenant, 0)
                if cursor < runtime.compacted_through:
                    # The journal no longer holds the suffix this
                    # subscriber needs; it must be re-seeded.
                    snapshot_needed.append(tenant)
                    continue
                records = runtime.journal.replay(after_seq=cursor)
                start_cursors[tenant] = cursor
                if records:
                    catchup.append((tenant, records))
            sub = _Subscriber(conn, addr, start_cursors)
            sub.skip = set(snapshot_needed)
            with self._subs_lock:
                self._subs.append(sub)
        try:
            conn.sendall(wire.encode_frame(wire.ok_response(
                op="repl_subscribe",
                fence=server.fencing.epoch,
                tenants=start_cursors,
                snapshot_needed=snapshot_needed,
            )))
            writer = threading.Thread(
                target=self._writer, args=(sub, catchup),
                name=f"repl-writer-{sub.sid}", daemon=True,
            )
            writer.start()
            self._reader(sub, leftover, tail)
        finally:
            sub.close()
            with self._subs_lock:
                if sub in self._subs:
                    self._subs.remove(sub)

    def _send_frames(self, sub: _Subscriber, batch) -> None:
        tenant, records = batch
        cap = self.server.cfg.repl_batch_records
        for i in range(0, len(records), cap):
            sub.conn.sendall(wire.encode_frame({
                "op": "repl_frames",
                "tenant": tenant,
                "records": records[i:i + cap],
            }))
            self.frames_shipped += 1

    def _writer(self, sub: _Subscriber, catchup) -> None:
        cfg = self.server.cfg
        try:
            for batch in catchup:
                self._send_frames(sub, batch)
            last_sent = time.monotonic()
            while not sub.closed and not self.server._stopping.is_set():
                with sub.cond:
                    if not sub.queue:
                        sub.cond.wait(timeout=cfg.heartbeat_interval_s / 2)
                    batches = []
                    while sub.queue:
                        batches.append(sub.queue.popleft())
                if sub.closed:
                    return
                now = time.monotonic()
                if now - sub.last_ack > cfg.repl_ack_timeout_s:
                    # Dead subscriber: reap it so its retention pin and
                    # socket do not outlive the standby it belonged to.
                    self.subscribers_reaped += 1
                    logger.warning(
                        "reaping replication subscriber %s "
                        "(no ack for %.1fs)", sub.addr, now - sub.last_ack,
                    )
                    return
                if batches and self.chaos is not None:
                    idx = self.chaos.next_index("link_drop")
                    if self.chaos.fires("link_drop", idx):
                        logger.warning(
                            "chaos: dropping replication link %s", sub.addr
                        )
                        return
                for batch in batches:
                    if batch[0] in sub.skip:
                        # This tenant's suffix is gone from the log;
                        # pushing its live tail would only wedge the
                        # standby on an epoch gap.  Re-seed resolves it.
                        continue
                    self._send_frames(sub, batch)
                    last_sent = time.monotonic()
                if (
                    not batches
                    and time.monotonic() - last_sent
                    >= cfg.heartbeat_interval_s
                ):
                    # Idle link: heartbeat so the subscriber knows the
                    # primary is alive and the subscription is never
                    # dropped as a slow-loris.
                    sub.conn.sendall(
                        wire.encode_frame({"op": "repl_heartbeat"})
                    )
                    last_sent = time.monotonic()
        except OSError:
            pass
        finally:
            sub.close()

    def _reader(
        self, sub: _Subscriber, leftover: List[bytes], tail: bytes = b""
    ) -> None:
        """Consume ``repl_ack`` frames until the link dies."""
        buffer = bytes(tail)
        lines = deque(line for line in leftover if line.strip())
        sub.conn.settimeout(0.2)
        while not sub.closed and not self.server._stopping.is_set():
            while lines:
                line = lines.popleft()
                try:
                    request = wire.parse_request(wire.decode_frame(line))
                except MalformedFrame:
                    logger.warning(
                        "malformed frame on replication link %s", sub.addr
                    )
                    return
                if request["op"] != "repl_ack":
                    logger.warning(
                        "unexpected op %r on replication link %s",
                        request["op"], sub.addr,
                    )
                    return
                for tenant, seq in request["cursors"].items():
                    if tenant in sub.skip:
                        continue  # stale by definition: no retention pin
                    if seq > sub.acked.get(tenant, 0):
                        sub.acked[tenant] = seq
                sub.last_ack = time.monotonic()
            try:
                chunk = sub.conn.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            if b"\n" in buffer:
                *complete, buffer = buffer.split(b"\n")
                lines.extend(line for line in complete if line.strip())

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Per-subscriber acked cursors and lag, for the ``stats`` verb."""
        with self._subs_lock:
            subs = [s for s in self._subs if not s.closed]
        out = []
        now = time.monotonic()
        with self.server._lock:
            last_seqs = {
                tenant: slot.runtime.journal.last_seq
                for tenant in self.server.supervisor.tenants()
                for slot in [self.server.supervisor.peek(tenant)]
                if slot is not None and slot.runtime is not None
            }
        for sub in subs:
            lag = {
                tenant: max(0, last_seqs.get(tenant, 0)
                            - sub.acked.get(tenant, 0))
                for tenant in last_seqs
            }
            out.append({
                "id": sub.sid,
                "acked": dict(sub.acked),
                "lag": lag,
                "ack_age_s": now - sub.last_ack,
            })
        return {
            "subscribers": out,
            "frames_shipped": self.frames_shipped,
            "subscribers_reaped": self.subscribers_reaped,
        }

    def close(self) -> None:
        with self._subs_lock:
            subs = list(self._subs)
            self._subs.clear()
        for sub in subs:
            sub.close()


class StandbyReplicator:
    """Standby-side tailer: subscribe, apply, ack — reconnect forever.

    Owns a single daemon thread.  Applies every pushed batch through the
    standby server's supervisor under the server's dispatch lock (the
    standby still answers reads and admin verbs concurrently), verifies
    sequence-number parity with the primary, and acks its durable
    cursor.  Connection loss — including injected partitions — is
    retried against the endpoint list with the supervisor's seeded
    jittered backoff, resuming from the acked cursors (seq-based
    resume), so a flapping link re-ships only the unacked suffix.
    """

    def __init__(
        self,
        server,
        endpoints: Sequence[Tuple[str, int]],
        chaos=None,
        sleep=time.sleep,
    ):
        if not endpoints:
            raise ValueError("standby needs at least one primary endpoint")
        self.server = server
        self.endpoints = [(h, int(p)) for h, p in endpoints]
        self.chaos = chaos
        self.sleep = sleep
        self.policy = RetryPolicy(
            max_attempts=server.cfg.max_restarts,
            base_delay=server.cfg.restart_base_delay,
            max_delay=server.cfg.restart_max_delay,
            seed=server.cfg.seed,
        )
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._sock: Optional[socket.socket] = None
        self._ep = 0
        self.connected = False
        self.subscriptions = 0
        self.frames_applied = 0
        self.records_applied = 0
        self.acks_sent = 0
        self.acks_suppressed = 0
        self.partitions = 0
        self.last_frame_at: Optional[float] = None
        self.last_error: Optional[str] = None
        self.snapshot_needed: List[str] = []
        self.diverged = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="standby-replicator", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # -- cursors and acks --------------------------------------------------

    def _cursors(self) -> Dict[str, int]:
        with self.server._lock:
            out = {}
            for tenant in self.server.supervisor.tenants():
                slot = self.server.supervisor.peek(tenant)
                if slot is not None and slot.runtime is not None:
                    out[tenant] = slot.runtime.applied_seq
            return out

    def _send_ack(self) -> None:
        if self.chaos is not None:
            idx = self.chaos.next_index("delayed_ack")
            if self.chaos.fires("delayed_ack", idx):
                # Chaos: hold this ack; the cursor still advances
                # locally and rides out with the next ack round, so the
                # only observable effect is transient reported lag.
                self.acks_suppressed += 1
                return
        self._sock.sendall(wire.encode_frame({
            "op": "repl_ack", "cursors": self._cursors(),
        }))
        self.acks_sent += 1

    # -- the apply path ----------------------------------------------------

    def _apply(self, tenant: str, records: List[dict]) -> None:
        """Apply one pushed batch through the live dispatch path."""
        with self.server._lock:
            slot = self.server.supervisor.peek(tenant)
            current = (
                slot.runtime.applied_seq
                if slot is not None and slot.runtime is not None else 0
            )
            fresh = [r for r in records if r["seq"] > current]
            if not fresh:
                return
            expected = [r["seq"] for r in fresh]
            stripped = [
                {k: v for k, v in r.items() if k != "seq"} for r in fresh
            ]
            results = self.server.supervisor.dispatch_batch(
                tenant, stripped
            )
        for (status, payload), want in zip(results, expected):
            if status != APPLIED:
                # Shed/quarantine on the standby: the cursor did not
                # advance; drop the link and let seq-based resume
                # re-ship after the supervisor's backoff.
                raise _InjectedPartition(
                    f"standby could not apply seq {want} for tenant "
                    f"{tenant!r} (status {status}); resuming from cursor"
                )
            got = payload.get("seq")
            if got != want:
                self.diverged = True
                raise ReplicationDivergence(
                    f"tenant {tenant!r}: primary seq {want} landed as "
                    f"local seq {got}; standby must be re-seeded"
                )
        self.frames_applied += 1
        self.records_applied += len(fresh)

    # -- the subscription loop ---------------------------------------------

    def _read_frame(self, buffer: bytearray) -> dict:
        sock = self._sock
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("replication link closed")
            buffer.extend(chunk)
        line, _, rest = bytes(buffer).partition(b"\n")
        buffer[:] = rest
        return wire.decode_frame(line)

    def _loop(self) -> None:
        attempt = 0
        while not self._stopping.is_set():
            endpoint = self.endpoints[self._ep % len(self.endpoints)]
            try:
                self._run_subscription(endpoint)
                attempt = 0
            except ReplicationDivergence as exc:
                self.last_error = str(exc)
                self.connected = False
                logger.critical("replication divergence: %s", exc)
                return  # fatal: re-seed required, never auto-resume
            except (OSError, ConnectionError, MalformedFrame) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self.connected = False
                self._ep += 1
                if self._stopping.is_set():
                    return
                delay = self.policy.backoff(
                    min(attempt, self.policy.max_attempts - 1)
                )
                attempt += 1
                self.sleep(delay)

    def _run_subscription(self, endpoint: Tuple[str, int]) -> None:
        cfg = self.server.cfg
        sock = socket.create_connection(endpoint, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        try:
            sock.sendall(wire.encode_frame({
                "op": "repl_subscribe",
                "cursors": self._cursors(),
                "fence": self.server.fencing.epoch,
            }))
            buffer = bytearray()
            sock.settimeout(5.0)
            resp = self._read_frame(buffer)
            if not resp.get("ok"):
                raise ConnectionError(
                    f"subscription rejected: {resp.get('error')}"
                )
            fence = resp.get("fence")
            if fence is not None:
                self.server.fencing.observe(int(fence))
            self.snapshot_needed = list(resp.get("snapshot_needed", []))
            if self.snapshot_needed:
                logger.error(
                    "standby is behind the primary's compaction horizon "
                    "for tenants %s: re-seed required (see the failover "
                    "runbook)", self.snapshot_needed,
                )
            self.subscriptions += 1
            self.connected = True
            # The primary heartbeats on idle; silence beyond the ack
            # timeout means the link (or the primary) is gone.
            sock.settimeout(cfg.repl_ack_timeout_s)
            batch_idx = 0
            skip = set(self.snapshot_needed)
            while not self._stopping.is_set():
                push = wire.parse_repl_push(self._read_frame(buffer))
                self.last_frame_at = time.monotonic()
                if push["op"] == "repl_heartbeat":
                    self._send_ack()
                    continue
                if push["tenant"] in skip:
                    # Behind the compaction horizon for this tenant:
                    # only a re-seed can fix it; applying the live
                    # tail would wedge on the epoch gap.
                    continue
                if self.chaos is not None:
                    idx = self.chaos.next_index("partition")
                    if self.chaos.fires("partition", idx):
                        self.partitions += 1
                        raise _InjectedPartition(
                            f"chaos: partition at batch {batch_idx}"
                        )
                batch_idx += 1
                self._apply(push["tenant"], push["records"])
                self._send_ack()
        finally:
            self.connected = False
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        now = time.monotonic()
        return {
            "endpoints": [f"{h}:{p}" for h, p in self.endpoints],
            "connected": self.connected,
            "subscriptions": self.subscriptions,
            "frames_applied": self.frames_applied,
            "records_applied": self.records_applied,
            "acks_sent": self.acks_sent,
            "acks_suppressed": self.acks_suppressed,
            "partitions": self.partitions,
            "last_frame_age_s": (
                None if self.last_frame_at is None
                else now - self.last_frame_at
            ),
            "snapshot_needed": list(self.snapshot_needed),
            "diverged": self.diverged,
            "last_error": self.last_error,
        }


__all__ = [
    "ReplicationDivergence",
    "ReplicationHub",
    "StandbyReplicator",
]
