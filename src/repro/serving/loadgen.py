"""Deterministic load generator and resend-on-reconnect client.

The client half of the durability contract: the server only guarantees
*acked* reports survive, so :class:`ServingClient` keeps every sent
frame in an unacked window and, on reconnect after a connection drop
(e.g. the server was ``kill -9``'d), resends the window verbatim.
Epoch-addressed idempotency on the server turns re-delivered
already-applied records into duplicate acks, so at-least-once delivery
composes into effectively-exactly-once application.

The synthetic workload is a pure function of ``(seed, tenant, epoch,
machine)`` — :func:`synthetic_report` — so an interrupted run and an
uninterrupted reference run offer the server byte-identical input, the
precondition for the kill/recover bit-identity proof.  Crisis windows
shift a metric group and raise SLA-violation flags on a deterministic
subset of machines, driving the full detect → identify → end event
sequence downstream.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import wire
from repro.serving.wire import MalformedFrame
from repro.telemetry.reliability import RetryPolicy


def synthetic_report(
    seed: int,
    tenant_idx: int,
    epoch: int,
    machine_idx: int,
    n_metrics: int,
    crisis_epochs: Sequence[int] = (),
) -> dict:
    """One machine's report, reproducible from its coordinates alone."""
    rng = np.random.default_rng([seed, tenant_idx, epoch, machine_idx])
    values = rng.normal(10.0, 2.0, size=n_metrics)
    in_crisis = epoch in crisis_epochs
    if in_crisis:
        # Crises shift the leading metric group fleet-wide.
        values[: max(1, n_metrics // 4)] += 25.0
    # 30% of machines violate their SLA during a crisis — above the
    # paper's 10%-of-machines detection rule.
    violation = in_crisis and machine_idx % 10 < 3
    return {
        "op": "report",
        "tenant": f"tenant-{tenant_idx}",
        "machine": f"m{machine_idx:04d}",
        "epoch": epoch,
        "values": [float(v) for v in values],
        "violation": bool(violation),
    }


def synthetic_batch(
    seed: int,
    tenant_idx: int,
    epoch: int,
    machine_indices: Sequence[int],
    n_metrics: int,
    crisis_epochs: Sequence[int] = (),
) -> dict:
    """One ``report_batch`` frame covering many machines of one tenant.

    Built from :func:`synthetic_report` per machine, so the values a
    batched run offers the server are byte-identical to the unbatched
    workload's — the precondition for batched-vs-unbatched parity
    proofs.
    """
    reports = [
        synthetic_report(
            seed, tenant_idx, epoch, m, n_metrics, crisis_epochs
        )
        for m in machine_indices
    ]
    return {
        "op": "report_batch",
        "tenant": f"tenant-{tenant_idx}",
        "epoch": epoch,
        "machines": [r["machine"] for r in reports],
        "values": [r["values"] for r in reports],
        "violations": [r["violation"] for r in reports],
    }


def workload(
    seed: int,
    n_tenants: int,
    n_machines: int,
    n_epochs: int,
    n_metrics: int,
    crisis_epochs: Sequence[int] = (),
) -> Iterator[dict]:
    """The full request stream: reports then close, epoch by epoch."""
    for epoch in range(n_epochs):
        for t in range(n_tenants):
            for m in range(n_machines):
                yield synthetic_report(
                    seed, t, epoch, m, n_metrics, crisis_epochs
                )
            yield {
                "op": "close_epoch",
                "tenant": f"tenant-{t}",
                "epoch": epoch,
            }


class ServingClient:
    """Pipelined JSON-lines client with resend-after-reconnect.

    ``request_many`` pipelines requests a window at a time and collects
    their acks; ``request`` is a window of one.  Any frame without a
    terminal response when the connection drops is resent on the next
    connect, in order.  Overload and restarting sheds are retried after
    the server's ``retry_after`` hint (bounded by ``max_retries``).

    **Failover.**  ``endpoints`` lists every serving node (primary and
    standbys).  Connection failures and ``standby`` / ``fenced``
    rejections rotate to the next endpoint and resend the unacked
    window — epoch-addressed idempotency makes the resend safe even
    when the old primary had already applied it.  Reconnect pacing is a
    seeded-jitter :class:`~repro.telemetry.reliability.RetryPolicy`
    (exponential backoff, jitter drawn from ``seed``), so a fleet of
    clients does not thundering-herd a recovering server and a test can
    replay the exact schedule; each delay slept is recorded in
    ``backoff_delays``.

    **Fencing.**  The client remembers the highest fencing epoch any
    response has carried and stamps it on every journaled request; a
    ``stale-fence`` rejection updates the token and retries, so after a
    failover the client converges on the new primary's epoch — and its
    stamped requests are what seal a resurfacing old primary.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 10.0,
        max_retries: int = 200,
        reconnect_delay: float = 0.05,
        reconnect_attempts: int = 100,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
        seed: int = 0,
    ):
        if endpoints is None:
            if host is None or port is None:
                raise ValueError("need host+port or an endpoints list")
            endpoints = [(host, port)]
        self.endpoints = [(h, int(p)) for h, p in endpoints]
        self.host, self.port = self.endpoints[0]
        self.timeout = timeout
        self.max_retries = max_retries
        self.reconnect_delay = reconnect_delay
        self.reconnect_attempts = reconnect_attempts
        self.policy = RetryPolicy(
            max_attempts=max(reconnect_attempts, 1),
            base_delay=reconnect_delay,
            max_delay=1.0,
            jitter=0.25,
            seed=seed,
        )
        self._ep = 0
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self.fence = 0
        self.responses: List[dict] = []
        self.events: List[dict] = []
        self.retries = 0
        self.overloads = 0
        self.reconnects = 0
        self.failovers = 0
        self.backoff_delays: List[float] = []

    # -- connection --------------------------------------------------------

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The endpoint the client is currently pointed at."""
        return self.endpoints[self._ep % len(self.endpoints)]

    def connect(self) -> None:
        last: Optional[Exception] = None
        for attempt in range(self.reconnect_attempts):
            host, port = self.endpoint
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self.timeout)
                self._sock = sock
                self._buffer = b""
                return
            except OSError as exc:
                last = exc
                # Unreachable node: try the next endpoint after a
                # seeded-jitter backoff (capped exponent so a long
                # outage polls steadily instead of overflowing).
                self._ep += 1
                delay = self.policy.backoff(min(attempt, 8))
                self.backoff_delays.append(delay)
                time.sleep(delay)
        raise ConnectionError(
            f"could not connect to any of {self.endpoints}: {last}"
        )

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServingClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _reconnect(self) -> None:
        self.close()
        self.reconnects += 1
        self.connect()

    def _rotate(self) -> None:
        """This endpoint cannot serve writes: fail over to the next."""
        self._ep += 1
        self.failovers += 1
        self._reconnect()

    # -- fencing tokens ----------------------------------------------------

    def _stamp(self, obj: dict) -> dict:
        """Attach the highest observed fencing token to a write."""
        if self.fence > 0 and obj.get("op") in wire.JOURNALED_OPS:
            return {**obj, "fence": self.fence}
        return obj

    def _absorb_fence(self, resp: dict) -> None:
        fence = resp.get("fence")
        if isinstance(fence, int) and fence > self.fence:
            self.fence = fence

    # -- request/response --------------------------------------------------

    def _read_response(self) -> dict:
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return wire.decode_frame(line)

    def request(self, obj: dict) -> dict:
        """Send one request and wait for its terminal response.

        A window of one: :meth:`request_many` retries it through sheds,
        reconnects, failovers and fencing-token updates.
        """
        return self.request_many([obj], window=1)[0]

    def request_many(
        self, objs: Sequence[dict], window: int = 64
    ) -> List[dict]:
        """Pipeline requests ``window`` at a time, collecting all acks.

        The pipelined window is exactly the unacked set: if the
        connection drops, the whole window is resent after reconnect
        (safe because requests are epoch-addressed).  Within a window,
        overload/restarting sheds are retried after the server's
        ``retry_after``, ``standby`` / ``fenced`` rejections rotate to
        the next endpoint, and ``stale-fence`` rejections adopt the
        newer token and retry.
        """
        out: List[dict] = []
        pending = list(objs)
        while pending:
            chunk, pending = pending[:window], pending[window:]
            unacked = list(chunk)
            acked: List[dict] = []
            attempts = 0
            while unacked:
                attempts += 1
                if attempts > self.max_retries:
                    raise TimeoutError(
                        f"{len(unacked)} requests unacked after "
                        f"{self.max_retries} rounds"
                    )
                try:
                    self._sock.sendall(b"".join(
                        wire.encode_frame(self._stamp(o)) for o in unacked
                    ))
                    round_resps = [
                        self._read_response() for _ in unacked
                    ]
                except (OSError, ConnectionError, MalformedFrame):
                    # Kill mid-window: reconnect and resend every frame
                    # still lacking a terminal response.
                    self._reconnect()
                    continue
                still_unacked: List[dict] = []
                max_retry_after = 0.0
                rotate = False
                for obj, resp in zip(unacked, round_resps):
                    err = None if resp.get("ok") else resp.get("error")
                    if err in ("overloaded", "restarting"):
                        self.retries += 1
                        if err == "overloaded":
                            self.overloads += 1
                        still_unacked.append(obj)
                        max_retry_after = max(
                            max_retry_after,
                            float(resp.get("retry_after", 0.05)),
                        )
                        continue
                    if err in ("standby", "fenced"):
                        # Wrong node for writes: fail the window over.
                        self._absorb_fence(resp)
                        self.retries += 1
                        still_unacked.append(obj)
                        rotate = True
                        continue
                    if err == "stale-fence":
                        self._absorb_fence(resp)
                        self.retries += 1
                        still_unacked.append(obj)
                        continue
                    acked.append(resp)
                    self.responses.append(resp)
                    self.events.extend(resp.get("events") or [])
                unacked = still_unacked
                if rotate:
                    self._rotate()
                elif unacked:
                    time.sleep(min(max_retry_after, 0.5))
            out.extend(acked)
        return out


@dataclass
class LoadResult:
    """What one load-generation run observed."""

    reports_sent: int = 0
    acked: int = 0
    duplicates: int = 0
    rejected: int = 0
    overloads: int = 0
    reconnects: int = 0
    failovers: int = 0
    latencies_s: List[float] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    @property
    def p99_latency_ms(self) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(self.latencies_s, 99) * 1e3)

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.mean(self.latencies_s) * 1e3)


def run_load(
    host: str,
    port: int,
    seed: int,
    n_tenants: int,
    n_machines: int,
    n_epochs: int,
    n_metrics: int,
    crisis_epochs: Sequence[int] = (),
    window: int = 64,
    start_epoch: int = 0,
    endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    batch_size: Optional[int] = None,
) -> LoadResult:
    """Drive the synthetic workload against a server, measuring ingest.

    Latency is measured per pipelined window (wall time / window size),
    which is what an agent batching its fleet's reports experiences.
    ``endpoints`` (when given) supersedes ``host``/``port`` and enables
    client-side failover across primary + standbys.  With ``batch_size``
    set, machine reports travel as ``report_batch`` frames of at most
    that many machines (same values, same epochs — the batched and
    unbatched workloads are byte-identical per machine); acked/duplicate
    counts still tally individual machine reports via the ``n`` field
    batch acks carry.
    """
    result = LoadResult()
    with ServingClient(
        host, port, endpoints=endpoints, seed=seed
    ) as client:
        for epoch in range(start_epoch, n_epochs):
            for t in range(n_tenants):
                if batch_size is None:
                    batch = [
                        synthetic_report(
                            seed, t, epoch, m, n_metrics, crisis_epochs
                        )
                        for m in range(n_machines)
                    ]
                else:
                    batch = [
                        synthetic_batch(
                            seed, t, epoch,
                            range(lo, min(lo + batch_size, n_machines)),
                            n_metrics, crisis_epochs,
                        )
                        for lo in range(0, n_machines, batch_size)
                    ]
                batch.append({
                    "op": "close_epoch",
                    "tenant": f"tenant-{t}",
                    "epoch": epoch,
                })
                start = time.perf_counter()
                resps = client.request_many(batch, window=window)
                elapsed = time.perf_counter() - start
                result.reports_sent += n_machines
                result.latencies_s.extend(
                    [elapsed / len(batch)] * len(batch)
                )
                for resp in resps:
                    if resp.get("ok"):
                        # Batch acks carry n = machine reports covered.
                        n_covered = int(resp.get("n", 1))
                        if resp.get("status") == "duplicate":
                            result.duplicates += n_covered
                        else:
                            result.acked += n_covered
                    else:
                        result.rejected += 1
        result.overloads = client.overloads
        result.reconnects = client.reconnects
        result.failovers = client.failovers
        result.events = list(client.events)
    return result


__all__ = [
    "LoadResult",
    "ServingClient",
    "run_load",
    "synthetic_batch",
    "synthetic_report",
    "workload",
]
