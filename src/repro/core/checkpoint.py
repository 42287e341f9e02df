"""Crash-safe checkpoint/restore for the live fingerprinting service.

A process restart must not lose streaming state: hot/cold thresholds take
days of history to rebuild, the crisis library *is* the method's knowledge,
and a crisis in progress must resume its identification protocol where it
left off.  This module snapshots a
:class:`~repro.core.streaming.StreamingCrisisMonitor` or a
:class:`~repro.core.pipeline.FingerprintPipeline` to a single ``.npz``
archive (array payloads plus a JSON header, the
:mod:`repro.persistence` idiom) and restores it to a bit-identical state:
replaying the same epochs after a restore emits exactly the events an
uninterrupted run would.

Writes are atomic — the archive is written to a temporary file in the
destination directory, fsynced, and renamed over the target — so a crash
mid-checkpoint leaves the previous snapshot intact, never a torn file.

Method configuration (:class:`~repro.config.FingerprintingConfig`) is
code, not state: the caller passes the same config to ``load_*`` that the
original object was built with.

A monitor archive keeps only the threshold window of epoch history (the
tracker's ring, at most ``window_epochs`` rows) plus the count of epochs
seen, so its size is bounded by the window, not by uptime.  Archives
written before that held the full history; they load unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import EPOCH_MINUTES, FingerprintingConfig, ReliabilityConfig
# The error types live with the reader; callers import them from here.
from repro.core.atomicio import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    atomic_write_npz,
    pack_header,
    read_npz,
)
from repro.core.columnar import WindowBlock
from repro.telemetry.epochs import EpochClock
from repro.core.pipeline import FingerprintPipeline, KnownCrisis
from repro.core.streaming import StreamingCrisisMonitor, _LiveCrisis, _StoredCrisis
from repro.core.thresholds import QuantileThresholds

#: Format version embedded in every checkpoint archive.
CHECKPOINT_FORMAT_VERSION = 1

# Shared with repro.index.snapshot; kept under their historical names so
# existing callers (and tests) of the private helpers keep working.
_atomic_write_npz = atomic_write_npz
_pack_header = pack_header


def read_checkpoint_extra(path, expected_kind: str = "monitor") -> dict:
    """The caller-supplied ``extra`` header of a checkpoint archive.

    The serving tier stores its journal cursor (applied sequence number,
    next epoch, agent health) here so a tenant snapshot stays one
    atomic file.  Archives written without ``extra`` return ``{}``.
    """
    with read_npz(path, CHECKPOINT_FORMAT_VERSION, expected_kind) as (
        header, _
    ):
        return header.get("extra") or {}


# ---------------------------------------------------------------------------
# Streaming monitor
# ---------------------------------------------------------------------------


def save_monitor(
    monitor: StreamingCrisisMonitor, path, extra: Optional[dict] = None
) -> None:
    """Snapshot a streaming monitor's full state atomically.

    ``extra`` is an optional JSON-serializable dict stored verbatim in the
    header and returned by :func:`read_checkpoint_extra` — the serving
    tier keeps its journal cursor there so snapshot + cursor are one
    atomic write.
    """
    live = monitor._live
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "monitor",
        "extra": extra or {},
        "n_metrics": monitor.n_metrics,
        "n_quantiles": monitor.store.n_quantiles,
        "store_epochs": len(monitor.store),
        "epoch_minutes": monitor.clock.epoch_minutes,
        "threshold_refresh_epochs": monitor.threshold_refresh_epochs,
        "min_history_epochs": monitor.min_history_epochs,
        "epochs_since_refresh": monitor._epochs_since_refresh,
        "crisis_counter": monitor._crisis_counter,
        "untrusted_epochs": monitor.untrusted_epochs,
        "has_thresholds": monitor.thresholds is not None,
        "live": None if live is None else {
            "number": live.number,
            "detected_epoch": live.detected_epoch,
            "identifications": live.identifications,
        },
        "library": [
            {"number": s.number, "label": s.label}
            for s in monitor._library
        ],
        "n_pre_buffer": len(monitor._pre_buffer),
    }
    # Opt-in discovery state rides inside the monitor archive so monitor
    # + engine stay one atomic snapshot.  Checkpoints written without an
    # engine (including every pre-discovery archive) omit the key.
    embedded: Dict[str, np.ndarray] = {}
    if monitor._discovery is not None:
        header["discovery"], disc_arrays = monitor._discovery.snapshot(
            prefix="discovery_"
        )
        embedded.update(disc_arrays)
    # Forecast state follows the same embedding contract: absent key for
    # every checkpoint written without an engine (pre-forecast archives
    # load unchanged), atomic with the monitor otherwise.
    if monitor._forecast is not None:
        header["forecast"], fc_arrays = monitor._forecast.snapshot(
            prefix="forecast_"
        )
        embedded.update(fc_arrays)
    # The header is complete now; encode it once.
    arrays: Dict[str, np.ndarray] = {
        "header": _pack_header(header),
        "relevant": np.asarray(monitor.relevant, dtype=int),
        "store_values": monitor.store.values(),
        "store_anomalous": monitor.store.anomalous_mask(),
        **embedded,
    }
    if monitor.thresholds is not None:
        arrays["thresholds_cold"] = monitor.thresholds.cold
        arrays["thresholds_hot"] = monitor.thresholds.hot
    if monitor._pre_buffer:
        arrays["pre_buffer"] = np.stack(monitor._pre_buffer)
    if live is not None and live.summaries is not None and len(live.summaries):
        arrays["live_summaries"] = live.summaries.snapshot()
    for i, stored in enumerate(monitor._library):
        arrays[f"library_window_{i}"] = stored.quantile_window
    _atomic_write_npz(path, arrays)


def load_monitor(
    path,
    config: FingerprintingConfig = FingerprintingConfig(),
    reliability: ReliabilityConfig = ReliabilityConfig(),
) -> StreamingCrisisMonitor:
    """Restore a monitor saved by :func:`save_monitor`.

    ``config`` and ``reliability`` must match the original monitor's; they
    are code-side parameters and are not serialized.  The archive holds
    only the original threshold window of history, so a ``config`` whose
    window needs more rows than it holds raises
    :class:`CheckpointFormatError` rather than restoring thresholds over a
    shorter window than an uninterrupted run would use.

    A damaged archive raises :class:`CheckpointCorruptError` (never a raw
    ``KeyError``/``zipfile`` error), so a caller holding older snapshots
    can fall back instead of crashing.
    """
    return load_monitor_and_extra(path, config, reliability)[0]


def load_monitor_and_extra(
    path,
    config: FingerprintingConfig = FingerprintingConfig(),
    reliability: ReliabilityConfig = ReliabilityConfig(),
) -> Tuple[StreamingCrisisMonitor, dict]:
    """:func:`load_monitor` plus the archive's ``extra`` header, from one
    open and one decode of the archive (what :func:`read_checkpoint_extra`
    would return).
    """
    with read_npz(path, CHECKPOINT_FORMAT_VERSION, "monitor") as (
        header, data
    ):
        monitor = StreamingCrisisMonitor(
            n_metrics=header["n_metrics"],
            relevant_metrics=data["relevant"],
            config=config,
            threshold_refresh_epochs=header["threshold_refresh_epochs"],
            min_history_epochs=header["min_history_epochs"],
            reliability=reliability,
            # Pre-engine checkpoints carry no clock; they were written
            # at the paper's 15-minute epochs.
            clock=EpochClock(
                epoch_minutes=header.get("epoch_minutes", EPOCH_MINUTES)
            ),
        )
        # The tracker's sorted heads and tails are derived state: prime
        # them from the stored window rather than serializing them.
        # Archives without ``store_epochs`` hold the full history.
        values = data["store_values"]
        epochs = header.get("store_epochs", values.shape[0])
        window = monitor.engine.window_epochs
        if values.shape[0] < min(epochs, window):
            raise CheckpointFormatError(
                f"{path} holds {values.shape[0]} epochs of history; a "
                f"{window}-epoch threshold window needs "
                f"{min(epochs, window)} (was it saved with a smaller "
                "window_days?)"
            )
        monitor.store.prime(values, data["store_anomalous"], epochs)
        if header["has_thresholds"]:
            monitor.thresholds = QuantileThresholds(
                cold=data["thresholds_cold"], hot=data["thresholds_hot"]
            )
        monitor._epochs_since_refresh = header["epochs_since_refresh"]
        monitor._crisis_counter = header["crisis_counter"]
        monitor.untrusted_epochs = header["untrusted_epochs"]
        if header["n_pre_buffer"]:
            monitor._pre_buffer = list(data["pre_buffer"])
        live_meta = header["live"]
        if live_meta is not None:
            live = _LiveCrisis(
                number=live_meta["number"],
                detected_epoch=live_meta["detected_epoch"],
            )
            if "live_summaries" in data:
                live.summaries = WindowBlock.from_array(
                    data["live_summaries"]
                )
            live.identifications = live_meta["identifications"]
            monitor._live = live
        monitor._library = [
            _StoredCrisis(
                number=meta["number"],
                label=meta["label"],
                quantile_window=data[f"library_window_{i}"],
            )
            for i, meta in enumerate(header["library"])
        ]
        # Archives written while the monitor cached per-slot indexes also
        # hold ``index_slots`` and ``index_slot{k}_*``: derived state, so
        # it is ignored.
        disc_header = header.get("discovery")
        if disc_header is not None:
            # Lazy import: repro.discovery depends on this module's
            # siblings, so the package import stays one-directional.
            from repro.discovery.engine import DiscoveryEngine

            engine = DiscoveryEngine.from_snapshot(
                disc_header, data, prefix="discovery_"
            )
            engine.attach(monitor)
        fc_header = header.get("forecast")
        if fc_header is not None:
            from repro.forecast.engine import ForecastEngine

            forecast = ForecastEngine.from_snapshot(
                fc_header, data, prefix="forecast_"
            )
            forecast.attach(monitor)
    return monitor, header.get("extra") or {}


# ---------------------------------------------------------------------------
# Replay pipeline
# ---------------------------------------------------------------------------


def save_pipeline(pipeline: FingerprintPipeline, path) -> None:
    """Snapshot a replay pipeline's parameter and library state.

    The trace itself is not serialized (it has its own persistence,
    :mod:`repro.persistence`); :func:`load_pipeline` reattaches one.
    """
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "pipeline",
        "recompute_past_fingerprints": pipeline.recompute_past_fingerprints,
        "exclude_kpis_from_selection": bool(pipeline._selection_exclude),
        "identification_threshold": pipeline.identification_threshold,
        "has_thresholds": pipeline.thresholds is not None,
        "has_relevant": pipeline.relevant is not None,
        "n_selections": len(pipeline._selections),
        "known": [
            {
                "crisis_id": k.crisis_id,
                "label": k.label,
                "detection_epoch": k.detection_epoch,
                "has_fingerprint": k.fingerprint is not None,
            }
            for k in pipeline.known
        ],
    }
    arrays: Dict[str, np.ndarray] = {"header": _pack_header(header)}
    if pipeline.thresholds is not None:
        arrays["thresholds_cold"] = pipeline.thresholds.cold
        arrays["thresholds_hot"] = pipeline.thresholds.hot
    if pipeline.relevant is not None:
        arrays["relevant"] = np.asarray(pipeline.relevant, dtype=int)
    for i, sel in enumerate(pipeline._selections):
        arrays[f"selection_{i}"] = np.asarray(sel, dtype=int)
    for i, k in enumerate(pipeline.known):
        arrays[f"known_window_{i}"] = k.quantile_window
        arrays[f"known_stale_{i}"] = k.stale_summary
        if k.fingerprint is not None:
            arrays[f"known_fingerprint_{i}"] = k.fingerprint
    _atomic_write_npz(path, arrays)


def load_pipeline(
    path,
    trace,
    config: FingerprintingConfig = FingerprintingConfig(),
) -> FingerprintPipeline:
    """Restore a pipeline saved by :func:`save_pipeline` onto ``trace``."""
    with read_npz(path, CHECKPOINT_FORMAT_VERSION, "pipeline") as (
        header, data
    ):
        pipeline = FingerprintPipeline(
            trace,
            config,
            recompute_past_fingerprints=header[
                "recompute_past_fingerprints"
            ],
            exclude_kpis_from_selection=header[
                "exclude_kpis_from_selection"
            ],
        )
        if header["has_thresholds"]:
            pipeline.thresholds = QuantileThresholds(
                cold=data["thresholds_cold"], hot=data["thresholds_hot"]
            )
        if header["has_relevant"]:
            pipeline.relevant = data["relevant"]
        pipeline.identification_threshold = header[
            "identification_threshold"
        ]
        pipeline._selections = [
            data[f"selection_{i}"] for i in range(header["n_selections"])
        ]
        for i, meta in enumerate(header["known"]):
            known = KnownCrisis(
                crisis_id=meta["crisis_id"],
                label=meta["label"],
                detection_epoch=meta["detection_epoch"],
                quantile_window=data[f"known_window_{i}"],
                stale_summary=data[f"known_stale_{i}"],
            )
            if meta["has_fingerprint"]:
                known.fingerprint = data[f"known_fingerprint_{i}"]
            pipeline.known.append(known)
    return pipeline


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "load_monitor",
    "load_monitor_and_extra",
    "load_pipeline",
    "read_checkpoint_extra",
    "save_monitor",
    "save_pipeline",
]
