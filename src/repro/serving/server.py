"""Threaded TCP front door: admission control, batching, durability.

One accept loop plus one thread per connection; per-tenant work is
serialized by the supervisor lock, so tenant engines never see
concurrent applies.  The receive loop drains *every* complete frame
available on the socket before dispatching, which is where group commit
comes from: a pipelined client's burst becomes one journal fsync per
tenant per drain, not one per report.

**Admission control.**  A global in-flight budget
(``cfg.max_inflight``) bounds accepted-but-unapplied requests across
all connections.  Beyond it the server answers
``{"ok": false, "error": "overloaded", "retry_after": s}`` — an
explicit shed, never a silent drop and never an unbounded queue.
``peak_inflight`` records the high-water mark so tests can prove the
bound was honored.

**Slow-loris defense.**  A connection that leaves a partial frame
unfinished for ``cfg.idle_timeout_s`` is dropped, as is any frame
longer than ``cfg.max_frame_bytes``.

**Fatality.**  A torn journal write
(:class:`~repro.serving.journal.JournalTornWrite`) means the store can
no longer be trusted to ack — the server stops accepting and shuts
down; the on-disk state is exactly what a mid-write power cut leaves,
and restart-time replay truncates the torn tail.

**Roles (PR 7).**  A server runs as ``primary`` (accepts writes, fans
journaled batches out to subscribed standbys via
:class:`~repro.serving.replication.ReplicationHub`) or ``standby``
(rejects client writes with an explicit ``standby`` error, tails the
primary's journal stream through a
:class:`~repro.serving.replication.StandbyReplicator`, and answers
reads/stats).  :meth:`IngestServer.promote` flips a standby to primary,
minting a fresh fencing epoch; write requests carrying a stale fencing
token are rejected (``stale-fence``), and a token *newer* than the
node's own fences the node permanently (split-brain guard — see
:mod:`repro.serving.fencing`).
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import ServingConfig
from repro.serving import wire
from repro.serving.fencing import FencingState
from repro.serving.journal import JournalTornWrite
from repro.serving.replication import ReplicationHub, StandbyReplicator
from repro.serving.supervisor import FENCED, TenantSupervisor

logger = logging.getLogger(__name__)

#: How statuses from the tenant/supervisor layer map onto the wire.
_OK_STATUSES = {"applied", "duplicate"}


class IngestServer:
    """The durable multi-tenant ingestion service."""

    def __init__(
        self,
        cfg: ServingConfig,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_hook_factory: Optional[Callable[[str], Optional[Callable]]] = None,
        fault_hook_factory: Optional[Callable[[str], Optional[Callable]]] = None,
        standby_of: Optional[Sequence[Tuple[str, int]]] = None,
        repl_chaos=None,
    ):
        self.cfg = cfg
        self.host = host
        self.port = port
        self.role = "standby" if standby_of else "primary"
        self.fencing = FencingState(root)
        # Every server owns a hub: a standby's hub simply has no
        # subscribers until the node is promoted (and chained standbys
        # work for free).  The hub pins journal compaction at the
        # slowest live subscriber's acked cursor.
        self.hub = ReplicationHub(self, chaos=repl_chaos)
        self.supervisor = TenantSupervisor(
            cfg, root,
            journal_hook_factory=journal_hook_factory,
            fault_hook_factory=fault_hook_factory,
            fencing=self.fencing,
            on_journaled=self.hub.publish,
            retention_floor=self.hub.retention_floor,
        )
        self.replicator: Optional[StandbyReplicator] = None
        if standby_of:
            self.replicator = StandbyReplicator(
                self, standby_of, chaos=repl_chaos
            )
        self.standby_rejects = 0
        self.stale_fence_rejects = 0
        self._lock = threading.Lock()  # serializes supervisor access
        self._admission = threading.Lock()  # guards in-flight counters
        self.inflight = 0
        self.peak_inflight = 0
        self.overload_responses = 0
        self.malformed_frames = 0
        self.slowloris_drops = 0
        self.accepted_total = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self.fatal_error: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Recover existing tenants, bind, and serve; returns the port."""
        adopted = self.supervisor.adopt_existing()
        if adopted:
            logger.info("recovered tenants at startup: %s", adopted)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serving-accept", daemon=True
        )
        self._accept_thread.start()
        if self.replicator is not None:
            self.replicator.start()
        return self.port

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            # Acks are small writes answering pipelined frames one by
            # one; with Nagle on, each ack after the first in a window
            # waits for the client's delayed ACK of the previous one.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"serving-conn-{addr[1]}",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]

    def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, checkpoint tenants."""
        self._stopping.set()
        if self.replicator is not None:
            self.replicator.stop()
        self.hub.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        with self._lock:
            if checkpoint and self.fatal_error is None:
                self.supervisor.checkpoint_all()
            self.supervisor.close()

    def promote(self) -> int:
        """Flip this node to primary under a fresh fencing epoch.

        Stops the standby replicator *before* taking the dispatch lock
        (the replicator thread may be blocked on it mid-apply), then
        mints the new epoch — strictly above everything this node has
        observed from its old primary, so the displaced primary's token
        is stale everywhere and the displaced primary fences itself on
        first contact with any post-promotion writer.
        """
        replicator = self.replicator
        if replicator is not None:
            self.replicator = None
            replicator.stop()
        with self._lock:
            epoch = self.fencing.mint()
            self.role = "primary"
        logger.warning("promoted to primary at fencing epoch %d", epoch)
        return epoch

    def _fatal(self, message: str) -> None:
        # The journal can no longer guarantee the ack contract: stop the
        # world.  On-disk state is a valid crash image; restart recovers.
        self.fatal_error = message
        logger.critical("fatal serving error, shutting down: %s", message)
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    # -- connection handling ----------------------------------------------

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        conn.settimeout(self.cfg.idle_timeout_s)
        buffer = b""
        try:
            while not self._stopping.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    if buffer:
                        # Mid-frame stall: the slow-loris signature.
                        self.slowloris_drops += 1
                        logger.warning(
                            "dropping slow-loris connection %s "
                            "(%d bytes stalled mid-frame)",
                            addr, len(buffer),
                        )
                        return
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                if b"\n" not in buffer:
                    if len(buffer) > self.cfg.max_frame_bytes:
                        conn.sendall(wire.encode_frame(
                            wire.error_response("frame-too-long")
                        ))
                        return
                    continue
                *lines, buffer = buffer.split(b"\n")
                responses, handoff = self._handle_lines(lines)
                if responses:
                    conn.sendall(b"".join(
                        wire.encode_frame(r) for r in responses
                    ))
                if handoff is not None:
                    # The connection now belongs to the replication
                    # hub: it pushes frames/heartbeats and reads acks
                    # until the subscriber disappears or is reaped.
                    request, leftover = handoff
                    conn.settimeout(None)
                    self.hub.serve_subscriber(
                        conn, addr, request, leftover, buffer
                    )
                    return
        except JournalTornWrite as exc:
            self._fatal(str(exc))
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _admit(self, n: int) -> int:
        """Reserve in-flight slots; returns how many were granted."""
        with self._admission:
            granted = max(0, min(n, self.cfg.max_inflight - self.inflight))
            self.inflight += granted
            self.peak_inflight = max(self.peak_inflight, self.inflight)
        return granted

    def _release(self, n: int) -> None:
        with self._admission:
            self.inflight -= n

    def _handle_lines(
        self, lines: List[bytes]
    ) -> Tuple[List[dict], Optional[Tuple[dict, List[bytes]]]]:
        """Parse, admit, and dispatch one drained batch of frames.

        Each frame is decoded and validated exactly once.  Journaled
        verbs for the same tenant that sit adjacently in the batch are
        dispatched together (one group commit); control verbs are
        answered inline.  Response order matches frame order.

        Returns ``(responses, handoff)``.  A valid ``repl_subscribe``
        ends the batch: ``handoff`` is that request plus the unparsed
        lines after it, which belong to the replication hub (they are
        the subscriber's acks).  Otherwise ``handoff`` is ``None``.
        """
        parsed: List[Tuple[Optional[dict], Optional[dict]]] = []
        admitted = 0
        handoff: Optional[Tuple[dict, List[bytes]]] = None
        for i, line in enumerate(lines):
            if not line.strip():
                continue  # blank keep-alive lines are ignored
            if len(line) > self.cfg.max_frame_bytes:
                parsed.append((None, wire.error_response("frame-too-long")))
                continue
            try:
                request = wire.parse_request(wire.decode_frame(line))
            except wire.MalformedFrame as exc:
                self.malformed_frames += 1
                parsed.append(
                    (None, wire.error_response("malformed", detail=str(exc)))
                )
                continue
            if request["op"] == "repl_subscribe":
                handoff = (request, lines[i + 1:])
                break
            if request["op"] in wire.JOURNALED_OPS:
                if self.role != "primary":
                    # A standby never acks client writes: an ack here
                    # could be lost when the real primary's stream is
                    # replayed over this node.
                    self.standby_rejects += 1
                    parsed.append((None, wire.error_response(
                        "standby", fence=self.fencing.epoch,
                    )))
                    continue
                token = request.pop("fence", None)
                if token is not None:
                    if token > self.fencing.epoch:
                        # The writer has seen a newer primary: we are
                        # the stale side of a failover.  Seal this node
                        # permanently before another byte is journaled.
                        self.fencing.fence(token)
                        parsed.append((None, wire.error_response(
                            "fenced", fence=self.fencing.epoch,
                        )))
                        continue
                    if token < self.fencing.epoch:
                        # Stale writer: reject with the current epoch
                        # so the client adopts it and retries.
                        self.stale_fence_rejects += 1
                        parsed.append((None, wire.error_response(
                            "stale-fence", fence=self.fencing.epoch,
                        )))
                        continue
                if self._admit(1) == 0:
                    self.overload_responses += 1
                    parsed.append((None, wire.error_response(
                        "overloaded", retry_after=0.05,
                    )))
                    continue
                admitted += 1
                self.accepted_total += 1
                parsed.append((request, None))
            else:
                parsed.append((request, None))
        responses: List[Optional[dict]] = [resp for _, resp in parsed]
        try:
            # Dispatch journaled verbs tenant-batch by tenant-batch,
            # preserving order within the drained buffer.
            i = 0
            while i < len(parsed):
                request, pre = parsed[i]
                if request is None:
                    i += 1
                    continue
                if request["op"] not in wire.JOURNALED_OPS:
                    responses[i] = self._control(request)
                    i += 1
                    continue
                tenant = request["tenant"]
                j = i
                batch: List[dict] = []
                slots: List[int] = []
                while j < len(parsed):
                    req_j, _ = parsed[j]
                    if (
                        req_j is None
                        or req_j.get("tenant") != tenant
                        or req_j["op"] not in wire.JOURNALED_OPS
                    ):
                        break
                    batch.append(dict(req_j))
                    slots.append(j)
                    j += 1
                with self._lock:
                    results = self.supervisor.dispatch_batch(tenant, batch)
                for slot_i, (status, payload) in zip(slots, results):
                    responses[slot_i] = self._wire_response(status, payload)
                i = j
        finally:
            self._release(admitted)
        return [r for r in responses if r is not None], handoff

    def _wire_response(self, status: str, payload: dict) -> dict:
        if status in _OK_STATUSES:
            # Report acks carry n = machine reports the frame covered,
            # so clients can tally per-machine acked/duplicate counts.
            extra = {"n": payload["n"]} if "n" in payload else {}
            return wire.ok_response(
                seq=payload.get("seq"),
                events=payload.get("events", []),
                status=status,
                **extra,
            )
        if status == "shed":
            return wire.error_response(
                "restarting",
                retry_after=payload.get("retry_after", 0.1),
                detail=payload.get("detail"),
            )
        if status == "quarantined":
            return wire.error_response(
                "quarantined", detail=payload.get("detail")
            )
        if status == FENCED:
            return wire.error_response(
                "fenced", fence=payload.get("fence")
            )
        # bad-epoch / bad-shape / unknown-crisis: client-side errors.
        return wire.error_response(status)

    def _control(self, request: dict) -> dict:
        op = request["op"]
        if op == "ping":
            return wire.ok_response(op="pong")
        if op == "stats":
            replicator = self.replicator
            replication = {
                "hub": self.hub.stats(),
                "standby": (
                    replicator.stats() if replicator is not None else None
                ),
            }
            with self._lock:
                tenants = self.supervisor.stats()
            return wire.ok_response(
                role=self.role,
                fence=self.fencing.epoch,
                fenced=self.fencing.fenced,
                tenants=tenants,
                replication=replication,
                inflight=self.inflight,
                peak_inflight=self.peak_inflight,
                overload_responses=self.overload_responses,
                malformed_frames=self.malformed_frames,
                slowloris_drops=self.slowloris_drops,
                standby_rejects=self.standby_rejects,
                stale_fence_rejects=self.stale_fence_rejects,
                accepted_total=self.accepted_total,
            )
        if op == "promote":
            epoch = self.promote()
            return wire.ok_response(role=self.role, fence=epoch)
        if op == "fence":
            # Operator/controller verb: seal this node if the given
            # epoch supersedes it (idempotent; a node never fences
            # itself below or at its own minted epoch).
            fenced = self.fencing.fence(request["epoch"])
            return wire.ok_response(
                fence=self.fencing.epoch, fenced=fenced
            )
        if op == "unquarantine":
            tenant = request["tenant"]
            with self._lock:
                try:
                    self.supervisor.clear_quarantine(tenant)
                except KeyError:
                    return wire.error_response(
                        "not-quarantined", detail=tenant
                    )
            return wire.ok_response(tenant=tenant, status="restarting")
        if op == "repl_ack":
            # An ack outside a live subscription has nothing to update.
            return wire.error_response("not-subscribed")
        # state / incidents / forecasts: one tenant's read-side
        # snapshot.  All read-only: an unknown name is an error, never a
        # freshly minted tenant directory (only journaled verbs create
        # slots).
        tenant = request["tenant"]
        with self._lock:
            slot = self.supervisor.peek(tenant)
            if slot is None:
                return wire.error_response(
                    "unknown-tenant", detail=tenant
                )
            if slot.runtime is None:
                return wire.error_response(
                    slot.state, detail=slot.last_error
                )
            if op == "incidents":
                return wire.ok_response(**slot.runtime.incidents())
            if op == "forecasts":
                return wire.ok_response(**slot.runtime.forecasts())
            return wire.ok_response(state=slot.runtime.state())


__all__ = ["IngestServer"]
