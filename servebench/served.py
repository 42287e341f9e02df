"""The served run: a real ``python -m repro serve`` driven over loopback.

One client process, one connection, a closed loop: each window of
pre-encoded frames is sent with one ``sendall`` and the next window goes
out only when every frame of this one is acked, as
``ServingClient.request_many`` does.  A frame's latency runs from the send
of its window to the receipt of its own ack.

Client and server share one CPU (:func:`hostspeed.pin`), and a host-speed
probe runs after every window, outside the measured time; the end-to-end
times are scaled by it (see ``hostspeed``).
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

import hostspeed
from repro.serving.supervisor import TenantSupervisor
from workloads import CLOSE, DIAGNOSE, REPORT, Traffic

#: Launches per run for ``setup_s`` (scaled, reported by median).
SETUP_LAUNCHES = 7
#: In-process recoveries of the crash image, printed by median,
#: after one untimed recovery that warms imports and the page cache (the
#: first one took 2.5 times as long as the rest on crisis-online).
RECOVERIES = 15

#: Seconds a server may take to print its port before the run fails.
START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not start, answer or exit as the run requires."""


class Server:
    """One ``repro serve`` subprocess on a state directory."""

    def __init__(self, src: str, root: str, args: List[str]):
        env = dict(os.environ, PYTHONPATH=src)
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", root,
             "--port", "0", *args],
            stdout=subprocess.PIPE, env=env,
        )
        line = self._read_line()
        parts = line.split()
        if len(parts) != 3 or parts[0] != b"SERVING":
            self.kill()
            raise ServerError(f"server did not start: {line!r}")
        self.host, self.port = parts[1].decode(), int(parts[2])
        try:
            self.sock = socket.create_connection((self.host, self.port))
        except OSError:
            self.kill()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""

    def _read_line(self) -> bytes:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                self.kill()
                raise ServerError("server printed nothing in time")
        return self.proc.stdout.readline()

    def request(self, obj: dict) -> dict:
        """One control request, answered before anything else is sent."""
        self.sock.sendall(json.dumps(obj).encode() + b"\n")
        return self.read_acks(1)[0][0]

    def read_acks(self, n: int):
        """``n`` decoded acks, each with the time its bytes arrived."""
        out = []
        while len(out) < n:
            chunk = self.sock.recv(1 << 20)
            now = time.perf_counter()
            if not chunk:
                raise ServerError("server closed the connection")
            self._pending += chunk
            *lines, self._pending = self._pending.split(b"\n")
            out.extend((line, now) for line in lines)
        return [(json.loads(line), t) for line, t in out]

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def kill(self) -> None:
        """SIGKILL and reap: the crash the recovery path must survive."""
        self._close_socket()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> int:
        """SIGTERM (graceful: checkpoints every tenant) and reap."""
        self._close_socket()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server ignored SIGTERM")
        self.proc.stdout.close()
        return code

    def _close_socket(self) -> None:
        sock, self.sock = getattr(self, "sock", None), None
        if sock is not None:
            sock.close()


@dataclass
class ServedResult:
    #: Launch → first ``ping`` on an empty root, and its speed factors.
    setup_s: List[float] = field(default_factory=list)
    setup_f: List[float] = field(default_factory=list)
    #: The served restart after the SIGKILL: launch → first ``state``.
    restart_s: List[float] = field(default_factory=list)
    #: In-process recoveries of the crash image, and their speed factors.
    recovery_s: List[float] = field(default_factory=list)
    recovery_f: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    windows: int = 0
    epochs: int = 0
    frames: int = 0
    failed: int = 0
    reports_sent: int = 0
    reports_acked: int = 0
    closes: int = 0
    #: Windows, reports acked and closes of the first ``stat_epochs``.
    stat_windows: int = 0
    stat_reports: int = 0
    stat_closes: int = 0
    #: Per window sent: closed-loop seconds, and the probe after it.
    window_s: List[float] = field(default_factory=list)
    probe_s: List[float] = field(default_factory=list)
    #: Frame latencies; a close's also with the index of its window.
    ack_ms: List[float] = field(default_factory=list)
    close_ms: List[float] = field(default_factory=list)
    close_window: List[int] = field(default_factory=list)
    rss_mb: float = 0.0
    #: Wire events from close acks, per tenant, in send order.
    events: List[List[dict]] = field(default_factory=list)
    #: Final ``state`` response per tenant.
    states: List[dict] = field(default_factory=list)
    #: ``stats`` counters summed (peak: max) over both server processes.
    counters: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _merge_stats(counters: Dict[str, int], stats: dict) -> None:
    for key in ("overload_responses", "malformed_frames"):
        counters[key] = counters.get(key, 0) + int(stats.get(key, 0))
    counters["peak_inflight"] = max(
        counters.get("peak_inflight", 0), int(stats.get("peak_inflight", 0))
    )


def _launch(src: str, root: str, args: List[str]):
    """Start a server on an empty root and wait for its first ``ping``."""
    return _first_answer(Server(src, root, args), {"op": "ping"})


def _restart(src: str, root: str, args: List[str], tenant: str, samples):
    """Restart on a crash image; time to the first successful ``state``."""
    request = {"op": "state", "tenant": tenant}
    return _first_answer(Server(src, root, args), request, samples)


def _first_answer(server: Server, request: dict, samples=None):
    """Wait for the first ``ok`` answer, timing it from launch into
    ``samples`` if given; kill the server on any failure."""
    try:
        resp = server.request(request)
        if not resp.get("ok"):
            raise ServerError(f"{request['op']} failed: {resp}")
    except BaseException:
        server.kill()
        raise
    if samples is not None:
        samples.append(time.perf_counter() - server.launched)
    return server


def recover(traffic: Traffic, root: str) -> None:
    """Recover every tenant of a crash image in-process, as a restart does."""
    supervisor = TenantSupervisor(traffic.spec.serving_config(), root)
    try:
        supervisor.adopt_existing()
        for name in traffic.tenant_names:
            slot = supervisor.peek(name)
            if slot is None or slot.runtime is None:
                raise ServerError(f"{name} did not recover from {root}")
    finally:
        supervisor.close()


def served_run(
    traffic: Traffic, src: str, work: str, seconds: float
) -> ServedResult:
    """The timed closed loop with one SIGKILL, then the final reads.

    The first setup sample is the run's own server; the remaining setup
    samples and the recoveries (in-process, on copies of the crash image)
    are taken after the loop.
    """
    out = ServedResult(events=[[] for _ in traffic.tenant_names])
    args = traffic.spec.serve_args()
    tenant = traffic.tenant_names[0]
    root = os.path.join(work, "root")
    crash = os.path.join(work, "crash-image")
    server = hostspeed.timed(
        lambda: _launch(src, root, args), out.setup_s, out.setup_f
    )
    rss = 0.0
    try:
        elapsed = 0.0
        for index, window in enumerate(traffic.windows):
            data = b"".join(window.pieces)
            start = time.perf_counter()
            server.sock.sendall(data)
            acks = server.read_acks(len(window.kinds))
            elapsed += acks[-1][1] - start
            out.window_s.append(acks[-1][1] - start)
            _account(out, window, acks, start)
            out.windows += 1
            if index == traffic.kill_window:
                rss = max(rss, server.peak_rss_mb())
                _merge_stats(out.counters, server.request({"op": "stats"}))
                server.kill()
                shutil.copytree(root, crash)
                server = _restart(src, root, args, tenant, out.restart_s)
            out.probe_s.append(hostspeed.probe())
            if window.last_of_epoch:
                out.epochs = window.epoch + 1
                if out.epochs == traffic.spec.stat_epochs:
                    out.stat_windows = out.windows
                    out.stat_reports = out.reports_acked
                    out.stat_closes = out.closes
                if (elapsed >= seconds and index > traffic.kill_window
                        and out.stat_windows):
                    break
        else:
            out.problems.append(
                f"input ran out after {out.epochs} epochs, "
                f"{elapsed:.1f}s < {seconds}s"
            )
        out.wall_s = elapsed
        _merge_stats(out.counters, server.request({"op": "stats"}))
        for name in traffic.tenant_names:
            resp = server.request({"op": "state", "tenant": name})
            out.states.append(resp.get("state") or {})
        out.rss_mb = max(rss, server.peak_rss_mb())
    except BaseException:
        server.kill()
        raise
    code = server.stop()
    if code != 0:
        out.problems.append(f"server exited {code} on SIGTERM")
    for i in range(1, SETUP_LAUNCHES):
        setup = os.path.join(work, f"setup-{i}")
        hostspeed.timed(
            lambda: _launch(src, setup, args), out.setup_s, out.setup_f
        ).stop()
    warm = os.path.join(work, "recover-warm")
    shutil.copytree(crash, warm)
    recover(traffic, warm)
    for i in range(RECOVERIES):
        copy = os.path.join(work, f"recover-{i}")
        shutil.copytree(crash, copy)
        hostspeed.timed(
            lambda: recover(traffic, copy), out.recovery_s, out.recovery_f
        )
    return out


def _account(out: ServedResult, window, acks, start: float) -> None:
    position = out.windows
    for kind, n, tenant, (resp, t) in zip(
        window.kinds, window.reports, window.tenants, acks
    ):
        out.frames += 1
        out.reports_sent += n
        latency_ms = (t - start) * 1e3
        if not resp.get("ok") or resp.get("status") != "applied":
            out.failed += 1
            continue
        if kind == REPORT:
            out.reports_acked += int(resp.get("n", 1))
            out.ack_ms.append(latency_ms)
        elif kind == CLOSE:
            out.closes += 1
            out.close_ms.append(latency_ms)
            out.close_window.append(position)
            out.events[tenant].extend(resp.get("events") or [])
        elif kind != DIAGNOSE:
            raise ValueError(f"unknown frame kind {kind}")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(out: ServedResult) -> Dict[str, float]:
    """The end-to-end metrics of one served run.

    Every time is scaled to the reference host by the probes around it
    (:mod:`hostspeed`).  Throughput and latencies cover
    the workload's first ``stat_epochs`` epochs.  The tail is p95: the
    highest percentile with about ten closes beyond it in an ingest-batch
    run.
    """
    n = out.stat_windows
    scale = hostspeed.factors(out.probe_s)
    seconds = sum(s * f for s, f in zip(out.window_s[:n], scale))
    close = [
        ms * scale[w] for ms, w in zip(out.close_ms, out.close_window)
        if w < n
    ]
    return {
        "setup_s": statistics.median(
            s * f for s, f in zip(out.setup_s, out.setup_f)
        ),
        "reports_per_s": out.stat_reports / seconds,
        "epochs_per_s": out.stat_closes / seconds,
        "close_p50_ms": percentile(close, 50),
        "close_p95_ms": percentile(close, 95),
        "server_rss_mb": out.rss_mb,
    }
