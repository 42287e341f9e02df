"""Single-crisis dossier: everything an operator wants on one screen.

Combines detection facts, the rendered fingerprint, the hot/cold state of
each relevant metric, KPI impact, and the nearest library matches into one
plain-text report — the artifact the paper's operators used when they
"very quickly recognized most of the crises" from rendered fingerprints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FingerprintConfig
from repro.core.engine import fingerprint_from_summaries
from repro.core.summary import summary_vectors
from repro.core.thresholds import QuantileThresholds
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.viz.render import render_fingerprint


def _column_state(value: float) -> str:
    if value > 0.5:
        return "HOT"
    if value > 0.15:
        return "warm"
    if value < -0.5:
        return "COLD"
    if value < -0.15:
        return "cool"
    return "-"


def crisis_dossier(
    trace: DatacenterTrace,
    crisis: CrisisRecord,
    thresholds: QuantileThresholds,
    relevant: np.ndarray,
    matches: Optional[Sequence[Tuple[str, float]]] = None,
    max_metrics: int = 30,
) -> str:
    """Render the dossier for one detected crisis.

    ``matches`` carries ``(label, distance)`` pairs from the identifier,
    nearest first, if identification has run.
    """
    if crisis.detected_epoch is None:
        raise ValueError("crisis was never detected")
    det = crisis.detected_epoch
    relevant = np.asarray(relevant, dtype=int)

    window = trace.quantiles[FingerprintConfig().window(det, trace.n_epochs)]
    summaries = summary_vectors(window, thresholds)
    sub = summaries[:, relevant, :]
    flat = sub.reshape(sub.shape[0], -1)
    means = fingerprint_from_summaries(summaries, relevant)

    lines: List[str] = []
    day = det // trace.epochs_per_day
    tod = (det % trace.epochs_per_day) * 24.0 / trace.epochs_per_day
    lines.append(f"CRISIS DOSSIER — crisis #{crisis.index}")
    lines.append(
        f"detected: epoch {det} (day {day}, {int(tod):02d}:"
        f"{int((tod % 1) * 60):02d})"
    )
    frac = trace.kpi_violation_fraction[det]
    kpi_bits = ", ".join(
        f"{name}: {100 * f:.0f}% of machines violating"
        for name, f in zip(trace.kpi_names, frac)
    )
    lines.append(f"KPI impact at detection: {kpi_bits}")

    if matches:
        lines.append("")
        lines.append("nearest known crises:")
        for label, distance in matches:
            lines.append(f"  type {label}  (distance {distance:.2f})")
    lines.append("")
    lines.append(render_fingerprint(flat, title="fingerprint (-30m..+60m)"))

    lines.append("")
    lines.append("relevant metrics (window-average state per quantile):")
    header = f"  {'metric':32s} {'q25':>6s} {'q50':>6s} {'q95':>6s}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    n_q = trace.n_quantiles
    shown = 0
    order = np.argsort(
        -np.abs(means.reshape(len(relevant), n_q)).max(axis=1)
    )
    for m_pos in order:
        if shown >= max_metrics:
            lines.append(f"  ... {len(relevant) - shown} more")
            break
        m = relevant[m_pos]
        states = [
            _column_state(means[m_pos * n_q + q]) for q in range(n_q)
        ]
        if all(s == "-" for s in states):
            continue
        lines.append(
            f"  {trace.metric_names[m]:32s} "
            + " ".join(f"{s:>6s}" for s in states)
        )
        shown += 1
    if shown == 0:
        lines.append("  (no relevant metric left its normal band)")
    return "\n".join(lines)


__all__ = ["crisis_dossier"]
