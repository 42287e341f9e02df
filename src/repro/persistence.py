"""Trace persistence.

Generating a paper-scale trace takes tens of seconds; experiments want to
reuse one.  Traces serialize to a single ``.npz`` archive: array payloads
(quantiles, masks, raw crisis windows) plus a JSON header for everything
structured (metric names, SLA policy, crisis records).  The archive is
written atomically and read through :func:`repro.core.atomicio.read_npz`,
so a failed save keeps the previous trace and a damaged file raises a
typed :class:`~repro.core.atomicio.CheckpointError`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.atomicio import atomic_write_npz, pack_header, read_npz
from repro.datacenter.crises import CrisisInstance
from repro.datacenter.sla import KPIDefinition, SLAPolicy
from repro.datacenter.trace import CrisisRecord, DatacenterTrace, RawWindow

#: Format version embedded in every archive.
TRACE_FORMAT_VERSION = 1


def save_trace(trace: DatacenterTrace, path) -> None:
    """Write a trace to ``path`` (a ``.npz`` archive)."""
    header = {
        "format_version": TRACE_FORMAT_VERSION,
        "metric_names": trace.metric_names,
        "quantile_levels": list(trace.quantile_levels),
        "n_machines": trace.n_machines,
        "epochs_per_day": trace.epochs_per_day,
        "sla": {
            "violation_fraction": trace.sla.violation_fraction,
            "kpis": [
                {
                    "name": k.name,
                    "metric_index": k.metric_index,
                    "threshold": k.threshold,
                }
                for k in trace.sla.kpis
            ],
        },
        "crises": [
            {
                "index": c.index,
                "detected_epoch": c.detected_epoch,
                "instance": {
                    "type_code": c.instance.type_code,
                    "start_epoch": c.instance.start_epoch,
                    "duration_epochs": c.instance.duration_epochs,
                    "intensity": c.instance.intensity,
                    "machines": c.instance.machines.tolist(),
                    "labeled": c.instance.labeled,
                    "seed": c.instance.seed,
                },
                "raw_start_epoch": (
                    None if c.raw is None else c.raw.start_epoch
                ),
            }
            for c in trace.crises
        ],
    }
    arrays = {
        "quantiles": trace.quantiles,
        "anomalous": trace.anomalous,
        "kpi_violation_fraction": trace.kpi_violation_fraction,
        "header": pack_header(header),
    }
    for c in trace.crises:
        if c.raw is not None:
            arrays[f"raw_values_{c.index}"] = c.raw.values
            arrays[f"raw_violations_{c.index}"] = c.raw.violations
    atomic_write_npz(path, arrays)


def load_trace(path) -> DatacenterTrace:
    """Read a trace written by :func:`save_trace`."""
    with read_npz(path, TRACE_FORMAT_VERSION) as (header, data):
        sla = SLAPolicy(
            kpis=tuple(
                KPIDefinition(k["name"], k["metric_index"], k["threshold"])
                for k in header["sla"]["kpis"]
            ),
            violation_fraction=header["sla"]["violation_fraction"],
        )
        crises: List[CrisisRecord] = []
        for c in header["crises"]:
            inst = c["instance"]
            raw = None
            if c["raw_start_epoch"] is not None:
                raw = RawWindow(
                    start_epoch=c["raw_start_epoch"],
                    values=data[f"raw_values_{c['index']}"],
                    violations=data[f"raw_violations_{c['index']}"],
                )
            crises.append(
                CrisisRecord(
                    index=c["index"],
                    instance=CrisisInstance(
                        type_code=inst["type_code"],
                        start_epoch=inst["start_epoch"],
                        duration_epochs=inst["duration_epochs"],
                        intensity=inst["intensity"],
                        machines=np.asarray(inst["machines"], dtype=int),
                        labeled=inst["labeled"],
                        seed=inst["seed"],
                    ),
                    detected_epoch=c["detected_epoch"],
                    raw=raw,
                )
            )
        return DatacenterTrace(
            metric_names=list(header["metric_names"]),
            quantile_levels=tuple(header["quantile_levels"]),
            quantiles=data["quantiles"],
            anomalous=data["anomalous"],
            kpi_violation_fraction=data["kpi_violation_fraction"],
            sla=sla,
            crises=crises,
            n_machines=header["n_machines"],
            epochs_per_day=header["epochs_per_day"],
        )


__all__ = ["save_trace", "load_trace", "TRACE_FORMAT_VERSION"]
