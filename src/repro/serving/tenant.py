"""One tenant's durable streaming engine.

A :class:`TenantRuntime` owns everything the front door knows about one
tenant: the write-ahead journal, the pending-epoch report buffer, the
agent-health tracker, the :class:`~repro.core.streaming.StreamingCrisisMonitor`
(one :class:`~repro.core.engine.EpochStateEngine` and its crisis library
under the hood), and the checkpoint that ties them together.

**Apply is replay.**  Every state change flows through
:meth:`TenantRuntime.apply` on a journaled record — the live path and
crash recovery execute the *same* code, which is how recovery is
bit-identical: checkpoint restore rebuilds the monitor exactly
(:mod:`repro.core.checkpoint`), the journal cursor (``applied_seq``)
stored in the checkpoint's ``extra`` header says where to resume, and
replaying the journal suffix re-derives precisely the state an
uninterrupted run would hold.

**Epoch-addressed idempotency.**  Records carry the epoch they belong
to; a record for an already-closed epoch is a duplicate no-op (acked,
never re-applied), a report for the current epoch overwrites by machine
id.  A client may therefore resend everything unacked after a reconnect
without corrupting state.

**One report record.**  Reports arrive as ``report_batch`` records (the
wire parser turns a single ``report`` into a one-row batch); only
recovery meets the ``report`` records of older journals, and converts
them with the parser's own :func:`~repro.serving.wire.report_as_batch`.

**Checkpoint cadence.**  Every ``checkpoint_every_epochs`` closed
epochs, the runtime checkpoints the monitor with the journal cursor,
agent-health counters, the retained event log, and the open epoch's
pending report buffer in the head's ``extra`` — appended segments plus
one head rename (:mod:`repro.core.checkpoint`) — then compacts the
journal down to the unapplied suffix.  Checkpointing mid-epoch
(graceful shutdown) is safe: the pending buffer rides inside the head,
so journaled-and-acked reports for the open epoch survive the
compaction that follows.  A tenant's durable state is its whole
directory: journal, head and segments.
"""

from __future__ import annotations

import itertools
import pathlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import (
    FingerprintingConfig,
    QuantileConfig,
    ReliabilityConfig,
    ServingConfig,
    ThresholdConfig,
)
from repro.core import checkpoint as ckpt
from repro.core.columnar import EpochBlock
from repro.core.streaming import StreamingCrisisMonitor
from repro.serving.journal import WriteAheadJournal
from repro.serving.wire import event_to_wire, report_as_batch
from repro.telemetry.collector import EpochQuality, close_health, is_report
from repro.telemetry.epochs import EpochClock
from repro.telemetry.quantiles import summarize_epoch
from repro.telemetry.reliability import AgentHealthTracker, QuorumPolicy

#: Apply statuses, also used as ack detail on the wire.
APPLIED = "applied"
DUPLICATE = "duplicate"
BAD_EPOCH = "bad-epoch"
BAD_SHAPE = "bad-shape"
UNKNOWN_CRISIS = "unknown-crisis"


def monitor_config(cfg: ServingConfig) -> FingerprintingConfig:
    """The method configuration a serving tenant runs under."""
    return FingerprintingConfig(
        quantiles=QuantileConfig(quantiles=tuple(cfg.quantiles)),
        thresholds=ThresholdConfig(window_days=cfg.window_days),
    )


def _build_monitor(cfg: ServingConfig) -> StreamingCrisisMonitor:
    monitor = StreamingCrisisMonitor(
        n_metrics=cfg.n_metrics,
        relevant_metrics=list(range(cfg.n_relevant)),
        config=monitor_config(cfg),
        threshold_refresh_epochs=cfg.resolved_refresh_epochs(),
        min_history_epochs=cfg.resolved_min_history(),
        reliability=ReliabilityConfig(coverage_floor=cfg.coverage_floor),
        clock=EpochClock(epoch_minutes=cfg.epoch_minutes),
    )
    _attach_discovery(monitor, cfg)
    _attach_forecast(monitor, cfg)
    return monitor


def _attach_discovery(monitor: StreamingCrisisMonitor, cfg: ServingConfig):
    """Attach a discovery engine when the tenant opts in.

    A monitor restored from a checkpoint that already embeds discovery
    state comes back with its engine attached; this only fills the gap
    for fresh monitors and for checkpoints taken before the tenant
    enabled discovery.
    """
    if cfg.discovery_enabled and monitor.discovery is None:
        from repro.discovery.engine import DiscoveryEngine

        monitor.attach_discovery(DiscoveryEngine(cfg.discovery))


def _attach_forecast(monitor: StreamingCrisisMonitor, cfg: ServingConfig):
    """Attach a forecast engine when the tenant opts in.

    Like discovery, a checkpoint that embeds forecast state restores
    with the engine (and its trained detector) already attached; this
    fills the gap for fresh monitors and pre-forecast checkpoints,
    seeding from ``cfg.forecast_model`` when a trained model file is
    configured.
    """
    if cfg.forecast_enabled and monitor.forecast is None:
        from repro.forecast.engine import ForecastEngine, load_forecast

        if cfg.forecast_model:
            engine = load_forecast(cfg.forecast_model)
        else:
            engine = ForecastEngine(cfg.forecast)
        monitor.attach_forecast(engine)


class TenantRuntime:
    """Journal + engine + checkpoint for one tenant.

    ``fault_hook``, when set, is called with every record at the top of
    :meth:`apply` — the chaos seam for injected tenant crashes (and the
    mechanism by which a *poison record* crash-loops: the record was
    journaled before the crash, so recovery replays it and crashes
    again, which is exactly what the supervisor's quarantine exists
    for).
    """

    def __init__(
        self,
        tenant: str,
        cfg: ServingConfig,
        root,
        journal_hook: Optional[Callable[[bytes], Optional[bytes]]] = None,
        fault_hook: Optional[Callable[[dict], None]] = None,
        fence_check: Optional[Callable[[], None]] = None,
        retention_floor: Optional[Callable[[], Optional[int]]] = None,
    ):
        self.tenant = tenant
        self.cfg = cfg
        self.dir = pathlib.Path(root) / "tenants" / tenant
        self.dir.mkdir(parents=True, exist_ok=True)
        self.journal = WriteAheadJournal(
            self.dir / "journal.wal", write_hook=journal_hook,
            fence_check=fence_check,
        )
        self.checkpoint_path = self.dir / "checkpoint.npz"
        self.fault_hook = fault_hook
        #: When set, compaction never drops records past this floor —
        #: the replication hub pins it at the slowest live subscriber's
        #: acked cursor so a standby can always resume from its seq.
        self.retention_floor = retention_floor
        self.monitor = _build_monitor(cfg)
        self.health: Optional[AgentHealthTracker] = None
        self.next_epoch = 0
        self.applied_seq = 0
        #: Highest seq ever dropped by compaction: a subscriber whose
        #: cursor sits below this has a gap the journal can no longer
        #: fill and must be re-seeded (``snapshot-needed``).
        self.compacted_through = 0
        self.epochs_since_checkpoint = 0
        self.event_log: List[dict] = []  # wire-encoded, cumulative
        #: Reports currently buffered for ``next_epoch``, keyed by
        #: machine id.  A columnar :class:`EpochBlock` (preallocated
        #: value matrix + violation bitmap, machine ids interned once)
        #: replacing the historical ``Dict[str, Tuple[List[float],
        #: bool]]`` — its mapping facade keeps dict-style reads
        #: (``len`` / ``in`` / iteration / ``pending[machine]``)
        #: working, and re-delivered reports still overwrite by
        #: machine id.
        self.pending = EpochBlock(cfg.n_metrics)
        #: The collector's default quorum: one report summarizes.
        self.quorum = QuorumPolicy(min_fraction=0.0, min_count=1)

    # -- record application (live path AND replay path) --------------------

    def classify(
        self, record: dict, next_epoch: Optional[int] = None
    ) -> str:
        """What :meth:`apply` would do with this record, without doing it.

        The supervisor consults this *before* journaling, against the
        epoch cursor it predicts for a pipelined batch (``next_epoch``,
        default the tenant's own), so duplicates, out-of-order records
        and report rows that are not ``n_metrics`` wide are answered
        without a disk write.
        """
        kind = record["op"]
        if kind == "diagnose":
            numbers = {
                s.number for s in self.monitor._library
            }
            return APPLIED if record["crisis"] in numbers else UNKNOWN_CRISIS
        if kind not in ("report_batch", "close_epoch"):
            raise ValueError(f"unjournalable record kind {kind!r}")
        if kind == "report_batch" and any(
            len(row) != self.cfg.n_metrics for row in record["values"]
        ):
            return BAD_SHAPE
        if next_epoch is None:
            next_epoch = self.next_epoch
        epoch = record["epoch"]
        if epoch < next_epoch:
            return DUPLICATE
        if epoch > next_epoch:
            return BAD_EPOCH
        return APPLIED

    def apply(self, record: dict) -> Tuple[str, List[dict]]:
        """Apply one journaled record; returns ``(status, wire events)``."""
        if self.fault_hook is not None:
            self.fault_hook(record)
        status = self.classify(record)
        seq = record.get("seq")
        if seq is not None:
            # Advance the cursor first, so a cadence checkpoint inside
            # the close covers the close that triggered it.  An apply
            # that raises takes the runtime down with it; recovery
            # re-reads the cursor from disk.
            self.applied_seq = max(self.applied_seq, seq)
        events: List[dict] = []
        if status == APPLIED:
            kind = record["op"]
            if kind == "report_batch":
                self._apply_report_batch(record)
            elif kind == "close_epoch":
                events = self._apply_close(record)
            else:
                self.monitor.diagnose(record["crisis"], record["label"])
        return status, events

    def _apply_report_batch(self, record: dict) -> None:
        machines = record["machines"]
        values = np.asarray(record["values"], dtype=float)
        if self.health is None:
            self.health = AgentHealthTracker(list(machines))
        else:
            for machine in machines:
                self.health.add_agent(machine)
        epoch = record["epoch"]
        for machine in itertools.compress(machines, is_report(values)):
            self.health.observe_report(machine, epoch)
        self.pending.put_batch(machines, values, record["violations"])

    def _apply_close(self, record: dict) -> List[dict]:
        epoch = record["epoch"]
        nq = len(self.cfg.quantiles)
        samples, violations = self.pending.gather()
        # A machine's last delivery is its report, unless nothing in it
        # is finite.
        reported = is_report(samples)
        if not reported.all():
            samples, violations = samples[reported], violations[reported]
        if self.health is None:
            # No machine has ever reported: the fleet is unknown.
            fleet, n_stale, n_dead = None, 0, 0
        else:
            fleet, n_stale, n_dead = close_health(self.health, epoch)
        n = len(samples)
        quorum_met = self.quorum.met(n, fleet)
        if quorum_met and n:
            # Non-finite entries are missing samples, dropped for their
            # metric alone; the column sort makes machine order
            # irrelevant, and a mean of 0/1 floats is exact.
            summary = summarize_epoch(samples, self.cfg.quantiles)
            violation = float(violations.astype(float).mean())
        else:
            # A silent fleet still closes its epoch: a NaN summary fails
            # the monitor's validation gate, so the epoch is quarantined
            # rather than poisoning thresholds.
            summary = np.full((self.cfg.n_metrics, nq), np.nan)
            violation = 0.0
        quality = EpochQuality(
            epoch=epoch,
            n_reporting=n,
            fleet_size=fleet,
            dropped_samples=int(samples.size - np.isfinite(samples).sum()),
            n_stale_agents=n_stale,
            n_dead_agents=n_dead,
            quorum_met=quorum_met,
        )
        raw = self.monitor.ingest(summary, violation, quality)
        wire_events = [event_to_wire(e) for e in raw]
        self.event_log.extend(wire_events)
        retain = self.cfg.event_log_retain
        if len(self.event_log) > retain:
            del self.event_log[: len(self.event_log) - retain]
        self.pending.clear()
        self.next_epoch = epoch + 1
        self.epochs_since_checkpoint += 1
        if self.epochs_since_checkpoint >= self.cfg.checkpoint_every_epochs:
            self.checkpoint()
        return wire_events

    # -- durability --------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot monitor + journal cursor atomically, then compact.

        The snapshot carries the open epoch's ``pending`` buffer (and
        the per-epoch health flags), so a mid-epoch checkpoint — the
        graceful-shutdown path — never loses journaled-and-acked
        reports to the compaction below.  A crash between the snapshot
        rename and the journal compaction is safe: replay of
        already-applied records is a sequence of idempotent overwrites
        and duplicate no-ops.
        """
        floor = self.applied_seq
        if self.retention_floor is not None:
            pinned = self.retention_floor()
            if pinned is not None:
                # Never compact past the slowest live subscriber: its
                # next resume must find every record after its cursor.
                floor = min(floor, pinned)
        floor = max(floor, self.compacted_through)
        extra = {
            "applied_seq": self.applied_seq,
            "next_epoch": self.next_epoch,
            "compacted_through": floor,
            "events": self.event_log,
            # The block serializes to the historical dict form, so old
            # and new checkpoints stay mutually loadable.
            "pending": {
                machine: {"values": values, "violation": violation}
                for machine, (values, violation) in self.pending.items()
            },
        }
        if self.health is not None:
            # Columns, stored as raw arrays beside the JSON header.
            extra.update(self.health.to_arrays(prefix="health_"))
        ckpt.save_monitor(self.monitor, self.checkpoint_path, extra=extra)
        self.journal.compact(floor)
        self.compacted_through = floor
        self.epochs_since_checkpoint = 0

    @classmethod
    def recover(
        cls,
        tenant: str,
        cfg: ServingConfig,
        root,
        journal_hook: Optional[Callable[[bytes], Optional[bytes]]] = None,
        fault_hook: Optional[Callable[[dict], None]] = None,
        fence_check: Optional[Callable[[], None]] = None,
        retention_floor: Optional[Callable[[], Optional[int]]] = None,
    ) -> "TenantRuntime":
        """Restore from checkpoint + journal; safe after ``kill -9``.

        A corrupt checkpoint raises
        :class:`~repro.core.checkpoint.CheckpointCorruptError` (typed,
        never a raw ``KeyError``) — the supervisor surfaces it and
        quarantines the tenant rather than crashing the service.

        A ``kill -9`` between a write's ``mkstemp`` and its rename
        leaves the temp file of a checkpoint head (``tmp*.tmp``) or of a
        journal compaction (``tmp*.wal.tmp``) behind, a whole copy of
        either; one during a checkpoint can also leave segment files the
        head does not name.  Recovery deletes them.  One process owns a
        tenant directory and recovery runs before any write, so every
        such file is an orphan.
        """
        runtime = cls(
            tenant, cfg, root,
            journal_hook=journal_hook, fault_hook=fault_hook,
            fence_check=fence_check, retention_floor=retention_floor,
        )
        for orphan in runtime.dir.glob("tmp*.tmp"):
            orphan.unlink(missing_ok=True)
        if runtime.checkpoint_path.exists():
            runtime.monitor, extra = ckpt.load_monitor_and_extra(
                runtime.checkpoint_path,
                config=monitor_config(cfg),
                reliability=ReliabilityConfig(
                    coverage_floor=cfg.coverage_floor
                ),
            )
            _attach_discovery(runtime.monitor, cfg)
            _attach_forecast(runtime.monitor, cfg)
            runtime.applied_seq = int(extra.get("applied_seq", 0))
            runtime.next_epoch = int(extra.get("next_epoch", 0))
            # Pre-replication checkpoints always compacted to the
            # cursor, so their floor defaults to applied_seq.
            runtime.compacted_through = int(
                extra.get("compacted_through", runtime.applied_seq)
            )
            runtime.event_log = list(extra.get("events", []))
            for machine, entry in (extra.get("pending") or {}).items():
                runtime.pending.put(
                    machine, entry["values"], entry["violation"]
                )
            if "health_ids" in extra:
                runtime.health = AgentHealthTracker.from_arrays(
                    extra, prefix="health_"
                )
            elif extra.get("health"):
                # Checkpoints before the columns held a JSON map.
                runtime.health = AgentHealthTracker.from_dict(
                    extra["health"]
                )
            # The compacted journal may be empty while the checkpoint
            # cursor is far along; pin the seq high-water mark so fresh
            # appends can never reuse sequence numbers at or below it
            # (replay would silently skip them on the next recovery).
            runtime.journal.reserve_seq(runtime.applied_seq)
            ckpt.remove_orphan_segments(
                runtime.checkpoint_path, runtime.monitor
            )
        else:
            ckpt.remove_orphan_segments(runtime.checkpoint_path)
        # A torn tail is the expected signature of a crash mid-append;
        # everything past the last intact record was never acked.
        runtime.journal.truncate_tail()
        for record in runtime.journal.replay(after_seq=runtime.applied_seq):
            if record["op"] == "report":
                # Journaled before single reports became one-row batches.
                record = report_as_batch(record)
            runtime.apply(record)
        return runtime

    def state(self) -> dict:
        """Wire-safe snapshot of recovery-relevant state (for tests/ops)."""
        thresholds = self.monitor.thresholds
        return {
            "tenant": self.tenant,
            "next_epoch": self.next_epoch,
            "applied_seq": self.applied_seq,
            "pending": sorted(self.pending),
            "ready": self.monitor.ready,
            "crises": self.monitor._crisis_counter,
            "untrusted_epochs": self.monitor.untrusted_epochs,
            "library_labels": list(self.monitor.library_labels),
            "thresholds": None if thresholds is None else {
                "cold": thresholds.cold.tolist(),
                "hot": thresholds.hot.tolist(),
            },
            "events": list(self.event_log),
        }

    def incidents(self) -> dict:
        """Wire-safe incident-catalog view (``admin incidents``).

        Read-only companion to :meth:`state`: the crises the monitor
        retains with their current labels, the distinct labels the
        supervised path can match, and — when a discovery engine rides
        this tenant — its cluster statistics.
        """
        discovery = self.monitor.discovery
        return {
            "tenant": self.tenant,
            "crises": [
                {"number": s.number, "label": s.label}
                for s in self.monitor._library
            ],
            "library_labels": sorted(
                {s.label for s in self.monitor._library if s.label}
            ),
            "discovery": None if discovery is None else discovery.stats(),
        }

    def forecasts(self) -> dict:
        """Wire-safe early-warning view (``admin forecasts``).

        Read-only: the forecast engine's runtime statistics plus its
        retained alarms, or ``forecast: None`` when the tenant never
        opted in.
        """
        forecast = self.monitor.forecast
        return {
            "tenant": self.tenant,
            "forecast": None if forecast is None else forecast.stats(),
            "alarms": [] if forecast is None else forecast.forecasts(),
        }

    def close(self) -> None:
        self.journal.close()


__all__ = [
    "APPLIED",
    "BAD_EPOCH",
    "BAD_SHAPE",
    "DUPLICATE",
    "TenantRuntime",
    "UNKNOWN_CRISIS",
    "monitor_config",
]
