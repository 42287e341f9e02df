"""Seeded traffic for the served benchmark, encoded before any clock starts.

Every byte a run sends is a pure function of ``(workload, seed)``.  Metric
values come from a seeded pool of epoch *variants* per tenant: a set of
normal variants plus a set per crisis type.  Each epoch draws one variant,
so a frame is ``head + body``, where the body (machine ids, values,
violation flags) is encoded once per variant and only the small head
(op, tenant, epoch number) is new per epoch.  That keeps the supply of
input unbounded at a fixed memory cost: a run can send for as long as
``--seconds`` asks, however fast the server becomes.

The same pool feeds :func:`reference_replay`, which computes what a correct
server must answer from the numbers alone, without the wire, the journal
or the tenant runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import ReliabilityConfig, ServingConfig
from repro.core.streaming import StreamingCrisisMonitor
from repro.serving.tenant import monitor_config
from repro.serving.wire import event_to_wire
from repro.telemetry.epochs import EpochClock
from repro.telemetry.quantiles import summarize_epoch

#: Frame kinds, in the order a window lists them.
REPORT, CLOSE, DIAGNOSE = 0, 1, 2

#: Ten epochs a day keeps the paper's day-based windows short in epochs.
EPOCH_MINUTES = 144
#: Value variants per tenant: normal ones, and per crisis type.
NORMAL_VARIANTS = 16
CRISIS_VARIANTS = 4


@dataclass(frozen=True)
class Spec:
    """One traffic shape.  See README.md for why each was chosen."""

    name: str
    tenants: int
    machines: int
    metrics: int
    relevant: int
    #: Machines per ``report_batch`` frame.
    batch: int
    #: Frames per pipelined window (the closed loop's unacked set).
    window: int
    window_days: int
    min_history: int
    #: Inclusive epoch range the SIGKILL point is drawn from.
    kill_epochs: Tuple[int, int]
    crisis_start: int
    crisis_gap: Tuple[int, int]
    crisis_len: Tuple[int, int]
    crisis_types: int
    diagnose: bool
    discovery: bool
    forecast: bool
    #: Generous ceiling on epochs/s; sizes the epoch-number supply.
    max_epoch_rate: float
    #: Epochs the end-to-end statistics cover, from the first; a run sends
    #: at least this many.  A fixed count keeps the history the server
    #: holds, and so its checkpoint cost, the same in every run however
    #: fast the host is that day.
    stat_epochs: int

    def serve_args(self) -> List[str]:
        """``repro serve`` flags for this shape."""
        args = [
            "--metrics", str(self.metrics),
            "--relevant", str(self.relevant),
            "--epoch-minutes", str(EPOCH_MINUTES),
            "--window-days", str(self.window_days),
            "--min-history-epochs", str(self.min_history),
        ]
        if self.discovery:
            args.append("--discovery")
        if self.forecast:
            args.append("--forecast")
        return args

    def serving_config(self) -> ServingConfig:
        """The config ``repro serve`` builds from :meth:`serve_args`."""
        return ServingConfig(
            n_metrics=self.metrics,
            n_relevant=self.relevant,
            epoch_minutes=EPOCH_MINUTES,
            window_days=self.window_days,
            min_history_epochs=self.min_history,
            discovery_enabled=self.discovery,
            forecast_enabled=self.forecast,
        )


SPECS: Dict[str, Spec] = {
    # The front door under wide batches: wire decode, journal encode and
    # compaction, EpochBlock.put_batch, summarize_epoch over 2048 rows.
    "ingest-batch": Spec(
        name="ingest-batch", tenants=1, machines=2048, metrics=32,
        relevant=8, batch=256, window=4, window_days=1, min_history=10,
        kill_epochs=(12, 20), crisis_start=25, crisis_gap=(40, 60),
        crisis_len=(2, 4), crisis_types=1, diagnose=False,
        discovery=False, forecast=False, max_epoch_rate=40.0,
        stat_epochs=130,
    ),
    # The paper's online setting: a small fleet with ~100 metrics, a
    # history longer than the 30-day threshold window, five crisis types
    # diagnosed as they end, discovery and forecast attached.
    "crisis-online": Spec(
        name="crisis-online", tenants=1, machines=8, metrics=100,
        relevant=30, batch=8, window=3, window_days=30, min_history=70,
        kill_epochs=(580, 640), crisis_start=90, crisis_gap=(10, 22),
        crisis_len=(3, 6), crisis_types=5, diagnose=True,
        discovery=True, forecast=True, max_epoch_rate=300.0,
        stat_epochs=900,
    ),
}


@dataclass
class Window:
    """Frames sent together; the client waits for all acks before more."""

    pieces: List[bytes]
    kinds: List[int]
    reports: List[int]  # machine reports each frame carries
    tenants: List[int]
    epoch: int
    last_of_epoch: bool


@dataclass
class Traffic:
    spec: Spec
    windows: List[Window]
    #: SIGKILL the server once this window is acked.
    kill_window: int
    #: ``plan[e, t]`` = pool variant tenant ``t`` reports in epoch ``e``.
    plan: np.ndarray
    #: ``values[t][v]`` = (machines, metrics) matrix of variant ``v``.
    values: List[np.ndarray]
    #: ``violations[v]`` = per-machine SLA flags of variant ``v``.
    violations: np.ndarray
    #: epoch -> [(crisis number, label)] diagnosed after that epoch's close.
    diagnoses: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)

    @property
    def tenant_names(self) -> List[str]:
        return [f"tenant-{t}" for t in range(self.spec.tenants)]


def _variant_pool(spec: Spec, rng: np.random.Generator):
    """Per-tenant value matrices and shared violation flags per variant."""
    n_var = NORMAL_VARIANTS + spec.crisis_types * CRISIS_VARIANTS
    group = max(1, spec.relevant // spec.crisis_types)
    machine_ids = np.arange(spec.machines)
    violations = np.zeros((n_var, spec.machines), dtype=bool)
    # 30% of machines violate during a crisis: above the paper's 10% rule.
    violations[NORMAL_VARIANTS:] = machine_ids % 10 < 3
    values = []
    for _ in range(spec.tenants):
        mu = rng.uniform(5.0, 50.0, spec.metrics)
        sigma = 0.1 * mu
        pool = rng.normal(mu, sigma, (n_var, spec.machines, spec.metrics))
        for k in range(spec.crisis_types):
            lo = NORMAL_VARIANTS + k * CRISIS_VARIANTS
            block = pool[lo:lo + CRISIS_VARIANTS]
            # Type k drives its own relevant-metric group hot and the
            # next type's group cold, so fingerprints tell types apart.
            hot = slice(k * group, (k + 1) * group)
            block[:, :, hot] += 5.0 * sigma[hot]
            if spec.crisis_types > 1:
                j = (k + 1) % spec.crisis_types
                cold = slice(j * group, j * group + max(1, group // 2))
                block[:, :, cold] -= 4.0 * sigma[cold]
        values.append(pool)
    return values, violations


def _crisis_schedule(spec: Spec, rng: np.random.Generator, n_epochs: int):
    """``[(start, length, type)]``; crises never overlap or abut."""
    crises = []
    epoch = spec.crisis_start + int(rng.integers(0, spec.crisis_gap[0]))
    while epoch < n_epochs:
        length = int(rng.integers(spec.crisis_len[0], spec.crisis_len[1] + 1))
        kind = int(rng.integers(spec.crisis_types))
        crises.append((epoch, length, kind))
        epoch += length + int(
            rng.integers(spec.crisis_gap[0], spec.crisis_gap[1] + 1)
        )
    return crises


def _bodies(spec: Spec, values: np.ndarray, violations: np.ndarray):
    """``bodies[v]`` = ``[(encoded body, reports)]``, one per report frame."""
    names = [f"m{m:04d}" for m in range(spec.machines)]
    dump = lambda obj: json.dumps(obj, separators=(",", ":"))  # noqa: E731
    bodies = []
    for v in range(values.shape[0]):
        rows = values[v].tolist()  # Python floats: JSON round-trips them
        flags = violations[v].tolist()
        bodies.append([
            (('"machines":%s,"values":%s,"violations":%s}\n' % (
                dump(names[lo:lo + spec.batch]),
                dump(rows[lo:lo + spec.batch]),
                dump(flags[lo:lo + spec.batch]),
            )).encode(), len(names[lo:lo + spec.batch]))
            for lo in range(0, spec.machines, spec.batch)
        ])
    return bodies


def generate(name: str, seed: int, seconds: float) -> Traffic:
    """All frames a run may send, encoded, plus what checks them."""
    spec = SPECS[name]
    n_epochs = max(
        int(np.ceil(spec.max_epoch_rate * max(seconds, 1.0))),
        spec.stat_epochs,
    ) + spec.kill_epochs[1] + 1
    # One stream per purpose: a longer run extends the traffic of a
    # shorter one instead of reshuffling it.
    rng_values, rng_crises, rng_plan, rng_crisis_plan, rng_kill = (
        np.random.default_rng([seed, sorted(SPECS).index(name), purpose])
        for purpose in range(5)
    )
    values, violations = _variant_pool(spec, rng_values)
    crises = _crisis_schedule(spec, rng_crises, n_epochs)
    plan = rng_plan.integers(0, NORMAL_VARIANTS, (n_epochs, spec.tenants))
    diagnoses: Dict[int, List[Tuple[int, str]]] = {}
    for number, (start, length, kind) in enumerate(crises, start=1):
        stop = min(start + length, n_epochs)
        plan[start:stop] = (
            NORMAL_VARIANTS + kind * CRISIS_VARIANTS
            + rng_crisis_plan.integers(
                0, CRISIS_VARIANTS, (stop - start, spec.tenants)
            )
        )
        if spec.diagnose and start + length < n_epochs:
            # The crisis ends at its first normal epoch; the operators'
            # diagnosis follows that epoch's close.
            diagnoses.setdefault(start + length, []).append(
                (number, f"type-{kind}")
            )
    bodies = [
        _bodies(spec, values[t], violations) for t in range(spec.tenants)
    ]
    windows: List[Window] = []
    # The kill always lands one epoch past a checkpoint, part-way through
    # the epoch, so every seed replays the same amount of journal on
    # recovery, and away from any crisis, so the replay never identifies
    # one; the seed picks which checkpoint cycle.
    cycle = spec.serving_config().checkpoint_every_epochs
    calm = (plan < NORMAL_VARIANTS).all(axis=1)
    candidates = [
        e for e in range(spec.kill_epochs[0], spec.kill_epochs[1] + 1)
        if e % cycle == 1
    ]
    kill_epoch = int(rng_kill.choice([
        e for e in candidates if calm[e - cycle:e + 2].all()
    ] or candidates))
    kill_window = -1
    for epoch in range(n_epochs):
        first = len(windows)
        for t, tenant in enumerate(f"tenant-{i}" for i in range(spec.tenants)):
            frames = []  # (pieces, kind, reports, tenant)
            head = b'{"op":"report_batch","tenant":"%s","epoch":%d,' % (
                tenant.encode(), epoch
            )
            for body, n in bodies[t][plan[epoch, t]]:
                frames.append(((head, body), REPORT, n, t))
            frames.append(((
                b'{"op":"close_epoch","tenant":"%s","epoch":%d}\n'
                % (tenant.encode(), epoch),
            ), CLOSE, 0, t))
            for number, label in diagnoses.get(epoch, []):
                frames.append(((
                    b'{"op":"diagnose","tenant":"%s","crisis":%d,'
                    b'"label":"%s"}\n' % (
                        tenant.encode(), number, label.encode()
                    ),
                ), DIAGNOSE, 0, t))
            # Windows never straddle tenants, so each tenant's close rides
            # in the same position of the same-sized window every epoch.
            for lo in range(0, len(frames), spec.window):
                part = frames[lo:lo + spec.window]
                windows.append(Window(
                    pieces=[p for f in part for p in f[0]],
                    kinds=[f[1] for f in part],
                    reports=[f[2] for f in part],
                    tenants=[f[3] for f in part],
                    epoch=epoch,
                    last_of_epoch=False,
                ))
        windows[-1].last_of_epoch = True
        if epoch == kill_epoch:
            kill_window = first + (len(windows) - first) // 4
    return Traffic(
        spec=spec, windows=windows, kill_window=kill_window,
        plan=plan, values=values, violations=violations,
        diagnoses=diagnoses,
    )


def reference_monitor(cfg: ServingConfig) -> StreamingCrisisMonitor:
    """A fresh monitor configured as a serving tenant's."""
    monitor = StreamingCrisisMonitor(
        n_metrics=cfg.n_metrics,
        relevant_metrics=list(range(cfg.n_relevant)),
        config=monitor_config(cfg),
        threshold_refresh_epochs=cfg.resolved_refresh_epochs(),
        min_history_epochs=cfg.resolved_min_history(),
        reliability=ReliabilityConfig(coverage_floor=cfg.coverage_floor),
        clock=EpochClock(epoch_minutes=cfg.epoch_minutes),
    )
    if cfg.discovery_enabled:
        from repro.discovery.engine import DiscoveryEngine

        monitor.attach_discovery(DiscoveryEngine(cfg.discovery))
    if cfg.forecast_enabled:
        from repro.forecast.engine import ForecastEngine

        monitor.attach_forecast(ForecastEngine(cfg.forecast))
    return monitor


def reference_replay(traffic: Traffic, n_epochs: int):
    """Events and final thresholds a correct server reports, per tenant.

    Summarizes each epoch's rows with ``summarize_epoch`` and feeds a fresh
    :class:`StreamingCrisisMonitor`, applying the same diagnoses after the
    same closes.  Returns ``(events, thresholds)``: wire-form event lists
    and ``{"cold": ..., "hot": ...}`` (or ``None``) per tenant.
    """
    cfg = traffic.spec.serving_config()
    monitors = [reference_monitor(cfg) for _ in traffic.tenant_names]
    events: List[List[dict]] = [[] for _ in monitors]
    for epoch in range(n_epochs):
        for t, monitor in enumerate(monitors):
            variant = traffic.plan[epoch, t]
            summary = summarize_epoch(
                traffic.values[t][variant], cfg.quantiles
            )
            violation = float(
                traffic.violations[variant].astype(float).mean()
            )
            events[t].extend(
                event_to_wire(e) for e in monitor.ingest(summary, violation)
            )
            for number, label in traffic.diagnoses.get(epoch, []):
                monitor.diagnose(number, label)
    thresholds: List[Optional[dict]] = []
    for monitor in monitors:
        th = monitor.thresholds
        thresholds.append(None if th is None else {
            "cold": th.cold.tolist(), "hot": th.hot.tolist(),
        })
    return events, thresholds
