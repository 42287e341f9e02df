"""In-process replays of the served frames, untraced and traced.

Both replays feed the exact windows the served run sent through
``wire.decode_frame``/``wire.parse_request`` → ``TenantSupervisor.dispatch_batch``
→ ``wire.encode_frame``, grouping adjacent frames of one tenant into one
dispatch as the server's drain does, and stand in for the SIGKILL by
dropping the supervisor without a checkpoint and recovering a new one.

The traced replay records spans from *outside* the program: the
:class:`Tracer` replaces the public entry points of each ``repro`` module
with wrappers for the duration of the replay and restores them after.
Spans (name, start, end, parent, request id) stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import collections
import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import checkpoint as ckpt_mod
from repro.core import streaming as streaming_mod
from repro.core.columnar import EpochBlock
from repro.core.engine import EpochStateEngine
from repro.core.identification import UNKNOWN
from repro.core.streaming import StreamingCrisisMonitor
from repro.discovery.engine import DiscoveryEngine
from repro.forecast.engine import ForecastEngine
from repro.index.base import backend_class, backend_names
from repro.serving import tenant as tenant_mod
from repro.serving import wire
from repro.serving.journal import WriteAheadJournal
from repro.serving.supervisor import TenantSupervisor
from repro.serving.tenant import TenantRuntime
from repro.telemetry.reliability import AgentHealthTracker

from workloads import CLOSE, REPORT, Traffic

#: The traced wall may exceed the summed self times by at most this share
#: (the tracer's own bookkeeping between window spans).
RECONCILE_TOLERANCE = 0.02

_APPLY_SPANS = {
    "report": "tenant.apply_report",
    "report_batch": "tenant.apply_report",
    "close_epoch": "tenant.close",
    "diagnose": "tenant.diagnose",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.request = -1
        self.counts: Dict[str, int] = collections.Counter()
        self._stack = [-1]
        self._patches = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        raw = owner.__dict__[attr]
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        plain = [
            (TenantSupervisor, "dispatch_batch", "supervisor.dispatch"),
            (WriteAheadJournal, "replay", "journal.replay"),
            (AgentHealthTracker, "add_agent", "health"),
            (AgentHealthTracker, "observe_report", "health"),
            (AgentHealthTracker, "close_epoch", "health"),
            (EpochBlock, "put", "columnar.put"),
            (EpochBlock, "put_batch", "columnar.put"),
            (tenant_mod, "summarize_epoch", "quantiles.summarize"),
            (StreamingCrisisMonitor, "ingest", "monitor.ingest"),
            (EpochStateEngine, "observe", "engine.observe"),
            (EpochStateEngine, "refresh_thresholds", "engine.refresh"),
            (streaming_mod, "fingerprint_from_window", "ident.fingerprint"),
            (streaming_mod, "estimate_threshold_online", "ident.threshold"),
            (DiscoveryEngine, "observe", "discovery.observe"),
            (ForecastEngine, "observe_epoch", "forecast.observe"),
            (ckpt_mod, "save_monitor", "checkpoint.save"),
            (ckpt_mod, "load_monitor", "checkpoint.load"),
            (os, "fsync", "os.fsync"),
        ]
        plain += [
            (cls, "query", "index.query")
            for cls in {backend_class(n) for n in backend_names()}
            if "query" in cls.__dict__
        ]
        for owner, attr, name in plain:
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], name))
        tracer = self
        counts = self.counts

        append_many = WriteAheadJournal.append_many

        def traced_append(journal, records):
            before = os.stat(journal.path).st_size
            index = tracer.open("journal.append")
            try:
                return append_many(journal, records)
            finally:
                tracer.close(index)
                counts["journal.records"] += len(records)
                counts["journal.bytes"] += (
                    os.stat(journal.path).st_size - before
                )

        compact = WriteAheadJournal.compact

        def traced_compact(journal, applied_seq):
            index = tracer.open("journal.compact")
            try:
                kept = compact(journal, applied_seq)
            finally:
                tracer.close(index)
            counts["journal.compact_records"] += kept
            return kept

        apply = TenantRuntime.apply

        def traced_apply(runtime, record):
            index = tracer.open(_APPLY_SPANS[record["op"]])
            try:
                return apply(runtime, record)
            finally:
                tracer.close(index)

        checkpoint = TenantRuntime.checkpoint

        def traced_checkpoint(runtime):
            index = tracer.open("tenant.checkpoint")
            try:
                checkpoint(runtime)
            finally:
                tracer.close(index)
            counts["checkpoint.bytes"] += os.stat(
                runtime.checkpoint_path
            ).st_size

        recover = TenantRuntime.__dict__["recover"].__func__
        self._patch(WriteAheadJournal, "append_many", traced_append)
        self._patch(WriteAheadJournal, "compact", traced_compact)
        self._patch(TenantRuntime, "apply", traced_apply)
        self._patch(TenantRuntime, "checkpoint", traced_checkpoint)
        self._patch(
            TenantRuntime, "recover",
            classmethod(self.wrap(recover, "tenant.recover")),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as columns, with self time and root span precomputed."""
        labels, codes = np.unique(np.array(self.names), return_inverse=True)
        start = np.array(self.starts)
        end = np.array(self.ends)
        parent = np.array(self.parents, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=dur[child], minlength=len(dur)
        )
        root = np.where(child, parent, np.arange(len(dur)))
        while True:
            nxt = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "labels": labels, "name": codes, "start": start, "end": end,
            "parent": parent, "request": np.array(self.requests),
            "dur": dur, "self": dur - covered, "root": root,
        }

    def write(self, path) -> None:
        """Dump the recorded spans (names, times, parents, request ids)."""
        cols = self.arrays()
        np.savez_compressed(path, **{
            k: cols[k]
            for k in ("labels", "name", "start", "end", "parent", "request")
        })


@dataclass
class Replay:
    wall_s: float = 0.0
    frames: int = 0
    reports: int = 0
    bytes: int = 0
    failed: int = 0
    events: List[List[dict]] = field(default_factory=list)
    #: Per tenant, from the monitor after the last window.
    thresholds: List[Optional[dict]] = field(default_factory=list)
    library_size: int = 0
    store_epochs: int = 0
    store_bytes: int = 0
    untrusted_epochs: int = 0


def _response(status: str, payload: dict) -> dict:
    if status in ("applied", "duplicate"):
        extra = {"n": payload["n"]} if "n" in payload else {}
        return wire.ok_response(
            seq=payload.get("seq"), events=payload.get("events", []),
            status=status, **extra,
        )
    return wire.error_response(status)


def replay(
    traffic: Traffic, n_windows: int, root: str,
    tracer: Optional[Tracer] = None,
) -> Replay:
    """Drive ``n_windows`` windows through the serving stack in-process."""
    cfg = traffic.spec.serving_config()
    out = Replay(events=[[] for _ in traffic.tenant_names])
    span = tracer.span if tracer is not None else (
        lambda name: contextlib.nullcontext()
    )
    supervisor = TenantSupervisor(cfg, root)
    try:
        for index in range(n_windows):
            window = traffic.windows[index]
            data = b"".join(window.pieces)
            start = time.perf_counter()
            if tracer is not None:
                tracer.request = index
                top = tracer.open("bench.window")
            with span("wire.decode"):
                requests = [
                    wire.parse_request(wire.decode_frame(line))
                    for line in data.split(b"\n")[:-1]
                ]
            results = []
            i = 0
            while i < len(requests):
                tenant = requests[i]["tenant"]
                j = i + 1
                while j < len(requests) and requests[j]["tenant"] == tenant:
                    j += 1
                results.extend(
                    supervisor.dispatch_batch(tenant, requests[i:j])
                )
                i = j
            responses = [_response(s, p) for s, p in results]
            with span("wire.encode"):
                b"".join(wire.encode_frame(r) for r in responses)
            if tracer is not None:
                tracer.close(top)
            out.wall_s += time.perf_counter() - start
            out.frames += len(window.kinds)
            out.bytes += len(data)
            for kind, n, t, resp in zip(
                window.kinds, window.reports, window.tenants, responses
            ):
                if resp.get("status") != "applied":
                    out.failed += 1
                if kind == REPORT:
                    out.reports += n
                elif kind == CLOSE:
                    out.events[t].extend(resp.get("events") or [])
            if index == traffic.kill_window:
                # SIGKILL stand-in: every acked record is already fsynced,
                # so dropping the supervisor without a checkpoint leaves
                # the same crash image; recovery rebuilds from it.
                supervisor.close()
                with span("bench.restart"):
                    supervisor = TenantSupervisor(cfg, root)
                    supervisor.adopt_existing()
        for tenant in traffic.tenant_names:
            monitor = supervisor.peek(tenant).runtime.monitor
            th = monitor.thresholds
            out.thresholds.append(None if th is None else {
                "cold": th.cold.tolist(), "hot": th.hot.tolist(),
            })
            out.library_size += len(monitor.library_labels)
            out.store_epochs += len(monitor.store)
            out.store_bytes += monitor.store.values().nbytes
            out.untrusted_epochs += monitor.untrusted_epochs
    finally:
        supervisor.close()
    return out


def traced_replay(traffic: Traffic, n_windows: int, root: str):
    tracer = Tracer()
    tracer.install()
    try:
        result = replay(traffic, n_windows, root, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


class _Spans:
    """Aggregates over the span columns of one traced replay."""

    def __init__(self, cols: Dict[str, np.ndarray]):
        self.cols = cols
        labels = list(cols["labels"])
        self.code = {name: i for i, name in enumerate(labels)}
        name = cols["name"]
        roots = name[cols["root"]]
        window = self.code.get("bench.window", -1)
        self.phase = {
            "window": roots == window,
            "restart": roots == self.code.get("bench.restart", -2),
        }
        parent_name = np.where(
            cols["parent"] >= 0, name[np.maximum(cols["parent"], 0)], -1
        )
        self.parent_name = parent_name

    def mask(self, name: str, phase: str = "window", parents=None):
        m = (self.cols["name"] == self.code.get(name, -1)) & self.phase[phase]
        if parents is not None:
            codes = [self.code.get(p, -3) for p in parents]
            m &= np.isin(self.parent_name, codes)
        return m

    def count(self, name, phase="window", parents=None) -> int:
        return int(self.mask(name, phase, parents).sum())

    def total(self, name, phase="window", parents=None) -> float:
        return float(self.cols["dur"][self.mask(name, phase, parents)].sum())

    def self_time(self, name, phase="window") -> float:
        return float(self.cols["self"][self.mask(name, phase)].sum())

    def table(self, phase: str):
        """``[(name, calls, total s, self s)]`` by descending self time."""
        rows = []
        for name, code in self.code.items():
            m = (self.cols["name"] == code) & self.phase[phase]
            if m.any():
                rows.append((
                    name, int(m.sum()), float(self.cols["dur"][m].sum()),
                    float(self.cols["self"][m].sum()),
                ))
        return sorted(rows, key=lambda r: -r[3])


def span_cost_s(n: int = 200_000) -> float:
    """Seconds a traced call costs beyond a plain one (empty function)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(n):
        traced()
    mid = time.perf_counter()
    for _ in range(n):
        noop()
    return ((mid - start) - (time.perf_counter() - mid)) / n


def _per(value: float, n: float, scale: float = 1.0) -> float:
    return value / n * scale if n else 0.0


def layer_metrics(
    traced: Replay, tracer: Tracer, untraced: Replay,
    served_wall_s: float, server: Dict[str, int], lines: List[str],
):
    """Per-layer metrics of one traced replay.

    Appends the waterfall to ``lines`` and returns ``(metrics, absent,
    reconciled)``: ``{name: (value, unit)}``, why each zero metric reads
    0, and whether the self times reconcile with the traced wall.
    """
    s = _Spans(tracer.arrays())
    reports, frames = traced.reports, traced.frames
    events = [e for per in traced.events for e in per]
    idents = [e for e in events if e["type"] == "identification"]
    dispatches = s.count("supervisor.dispatch")
    journal_fsyncs = s.count(
        "os.fsync", parents=("journal.append", "journal.compact")
    )
    identify = sum(
        s.total(n, parents=("monitor.ingest",))
        for n in ("ident.fingerprint", "ident.threshold", "index.query")
    )

    def mean_ms(name, phase="window"):
        return _per(s.total(name, phase), s.count(name, phase), 1e3)

    c = tracer.counts
    m = {
        "wire.decode_us_per_report": (
            _per(s.total("wire.decode"), reports, 1e6), "us"),
        "wire.bytes_per_report": (_per(traced.bytes, reports), "bytes"),
        "wire.encode_us_per_response": (
            _per(s.total("wire.encode"), frames, 1e6), "us"),
        "server.overload_responses": (server["overload_responses"], "count"),
        "server.peak_inflight": (server["peak_inflight"], "count"),
        "server.malformed_frames": (server["malformed_frames"], "count"),
        "supervisor.dispatch_ms": (
            _per(s.self_time("supervisor.dispatch"), dispatches, 1e3), "ms"),
        "supervisor.records_per_commit": (
            _per(c["journal.records"], dispatches), "records"),
        "journal.append_us_per_report": (
            _per(s.total("journal.append"), reports, 1e6), "us"),
        "journal.bytes_per_report": (
            _per(c["journal.bytes"], reports), "bytes"),
        "journal.fsyncs_per_1k_reports": (
            _per(journal_fsyncs, reports, 1e3), "count"),
        "journal.compact_ms": (mean_ms("journal.compact"), "ms"),
        "journal.compact_records": (
            _per(c["journal.compact_records"],
                 s.count("journal.compact")), "records"),
        "journal.replay_ms": (
            s.total("journal.replay", "restart") * 1e3, "ms"),
        "tenant.apply_us_per_report": (
            _per(s.self_time("tenant.apply_report"), reports, 1e6), "us"),
        "tenant.close_ms": (
            _per(s.self_time("tenant.close"), s.count("tenant.close"), 1e3),
            "ms"),
        "tenant.checkpoint_ms": (mean_ms("tenant.checkpoint"), "ms"),
        "tenant.checkpoint_bytes": (
            _per(c["checkpoint.bytes"], s.count("tenant.checkpoint")),
            "bytes"),
        "tenant.recover_ms": (
            s.total("tenant.recover", "restart") * 1e3, "ms"),
        "health.us_per_report": (
            _per(s.total("health"), reports, 1e6), "us"),
        "columnar.put_us_per_report": (
            _per(s.total("columnar.put"), reports, 1e6), "us"),
        "quantiles.summarize_ms": (mean_ms("quantiles.summarize"), "ms"),
        "monitor.ingest_ms": (
            _per(s.self_time("monitor.ingest"),
                 s.count("monitor.ingest"), 1e3), "ms"),
        "monitor.events": (len(events), "count"),
        "monitor.untrusted_epochs": (traced.untrusted_epochs, "count"),
        "engine.observe_ms": (mean_ms("engine.observe"), "ms"),
        "engine.refresh_ms": (mean_ms("engine.refresh"), "ms"),
        "engine.refreshes": (s.count("engine.refresh"), "count"),
        "ident.identify_ms": (_per(identify, len(idents), 1e3), "ms"),
        "ident.threshold_estimate_ms": (mean_ms("ident.threshold"), "ms"),
        "index.query_ms": (mean_ms("index.query"), "ms"),
        "ident.library_size": (traced.library_size, "count"),
        "ident.dont_know_frac": (
            _per(sum(e["label"] == UNKNOWN for e in idents), len(idents)),
            "fraction"),
        "discovery.observe_ms": (mean_ms("discovery.observe"), "ms"),
        "forecast.observe_ms": (mean_ms("forecast.observe"), "ms"),
        "checkpoint.save_ms": (mean_ms("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (mean_ms("checkpoint.load", "restart"), "ms"),
        "store.epochs": (traced.store_epochs, "count"),
        "store.bytes": (traced.store_bytes, "bytes"),
        "transport.ms_per_frame": (
            _per(served_wall_s - untraced.wall_s, frames, 1e3), "ms"),
        "trace.overhead_frac": (
            _per(traced.wall_s, untraced.wall_s) - 1.0, "fraction"),
    }
    # Why a metric reads 0: its layer never ran on this workload.
    sources = {
        "journal.compact_ms": "journal.compact",
        "journal.compact_records": "journal.compact",
        "tenant.checkpoint_ms": "tenant.checkpoint",
        "tenant.checkpoint_bytes": "tenant.checkpoint",
        "engine.refresh_ms": "engine.refresh",
        "ident.threshold_estimate_ms": "ident.threshold",
        "index.query_ms": "index.query",
        "discovery.observe_ms": "discovery.observe",
        "forecast.observe_ms": "forecast.observe",
        "checkpoint.save_ms": "checkpoint.save",
    }
    absent = {
        k: f"no {v} call on this workload"
        for k, v in sources.items() if s.count(v) == 0
    }
    if not idents:
        absent["ident.identify_ms"] = "no identification on this workload"
    if not s.count("checkpoint.load", "restart"):
        absent["checkpoint.load_ms"] = "no checkpoint before the SIGKILL"

    traced_wall = traced.wall_s
    n_spans = len(tracer.names)
    cost = span_cost_s()
    lines.append(
        f"traced replay: {traced.frames} frames, {traced.reports} reports, "
        f"wall {traced_wall:.3f}s (untraced {untraced.wall_s:.3f}s, "
        f"tracing overhead {m['trace.overhead_frac'][0]:+.1%}; "
        f"{n_spans} spans x {cost * 1e6:.2f}us predict "
        f"{_per(n_spans * cost, untraced.wall_s):+.1%})"
    )
    lines.append(
        f"  {'layer span':<22}{'calls':>9}{'total ms':>11}"
        f"{'self ms':>11}{'self %':>8}"
    )
    self_sum = 0.0
    for name, calls, total, own in s.table("window"):
        self_sum += own
        lines.append(
            f"  {name:<22}{calls:>9}{total * 1e3:>11.1f}"
            f"{own * 1e3:>11.1f}{own / traced_wall:>8.1%}"
        )
    gap = (traced_wall - self_sum) / traced_wall
    verdict = "ok" if abs(gap) <= RECONCILE_TOLERANCE else "FAILED"
    lines.append(
        f"reconciliation: sum of self times {self_sum:.3f}s vs traced wall "
        f"{traced_wall:.3f}s, unattributed {gap:+.2%} "
        f"(tolerance {RECONCILE_TOLERANCE:.0%}): {verdict}"
    )
    m["trace.unattributed_frac"] = (gap, "fraction")
    lines.append("restart (SIGKILL stand-in) spans:")
    for name, calls, total, own in s.table("restart"):
        lines.append(
            f"  {name:<22}{calls:>9}{total * 1e3:>11.1f}{own * 1e3:>11.1f}"
        )
    return m, absent, verdict == "ok"
