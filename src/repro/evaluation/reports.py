"""One-shot evaluation report.

:func:`full_report` runs the complete evaluation battery on a trace —
discrimination, offline/quasi/online identification, sensitivity sweeps,
confusion structure, forecasting — and renders a single plain-text report.
Used by ``scripts/run_full_evaluation.py``; the per-figure benchmarks in
``benchmarks/`` remain the canonical reproduction artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import (
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.datacenter.trace import DatacenterTrace
from repro.evaluation.confusion import confusion_table, top_confusions
from repro.evaluation.discrimination import discrimination_roc
from repro.evaluation.experiments import (
    OfflineIdentificationExperiment,
    OnlineIdentificationExperiment,
)
from repro.evaluation.identification import IdentificationCurves
from repro.evaluation.results import format_percent, format_table
from repro.evaluation.uncertainty import accuracy_intervals
from repro.forecast.offline import OfflineCrisisForecaster
from repro.methods import (
    AllMetricsFingerprintMethod,
    FingerprintMethod,
    KPIMethod,
    SignaturesMethod,
)

OFFLINE_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=15)
)
ONLINE_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=30),
    thresholds=ThresholdConfig(window_days=240),
)


@dataclass
class EvaluationReport:
    """Structured results plus the rendered text."""

    aucs: Dict[str, float] = field(default_factory=dict)
    offline: Dict[str, Dict[str, float]] = field(default_factory=dict)
    online: Dict[str, Dict[str, float]] = field(default_factory=dict)
    forecasting: Dict[str, float] = field(default_factory=dict)
    text: str = ""


def _op_with_ci(
    exp, curves: IdentificationCurves
) -> Dict[str, float]:
    op = curves.operating_point()
    try:
        outcomes = exp.outcomes_at(op["alpha"])
        cis = accuracy_intervals(outcomes, n_resamples=500)
        for key, ci in cis.items():
            op[f"{key}_lo"] = ci.lower
            op[f"{key}_hi"] = ci.upper
    except (AttributeError, ValueError):
        pass
    return op


def full_report(
    trace: DatacenterTrace,
    n_offline_runs: int = 5,
    n_online_runs: int = 21,
    seed: int = 7,
    include_baselines: bool = True,
) -> EvaluationReport:
    """Run the battery and render the report (expensive: minutes)."""
    report = EvaluationReport()
    crises = trace.labeled_crises
    sections: List[str] = []

    # --- discrimination + offline identification per method ---------------
    methods = [FingerprintMethod(OFFLINE_CONFIG)]
    if include_baselines:
        methods += [
            SignaturesMethod(),
            AllMetricsFingerprintMethod(),
            KPIMethod(),
        ]
    rows = []
    fingerprint_exp: Optional[OfflineIdentificationExperiment] = None
    for method in methods:
        method.fit(trace, crises)
        roc = discrimination_roc(method, crises)
        report.aucs[method.name] = roc.auc
        exp = OfflineIdentificationExperiment(
            method, crises, n_runs=n_offline_runs, seed=seed
        )
        op = _op_with_ci(exp, exp.run())
        report.offline[method.name] = op
        if method.name == "fingerprints":
            fingerprint_exp = exp
        known = format_percent(op["known_accuracy"])
        if "known_accuracy_lo" in op:
            known += (f" [{format_percent(op['known_accuracy_lo'])}-"
                      f"{format_percent(op['known_accuracy_hi'])}]")
        rows.append(
            [
                method.name,
                round(roc.auc, 3),
                known,
                format_percent(op["unknown_accuracy"]),
                f"{op['mean_time_minutes']:.0f}m",
            ]
        )
    sections.append(
        format_table(
            ["method", "AUC", "known acc. [95% CI]", "unknown acc.",
             "time"],
            rows,
            title="Discrimination + offline identification",
        )
    )

    # --- online settings -----------------------------------------------------
    online_exp = OnlineIdentificationExperiment(trace, ONLINE_CONFIG)
    online_rows = []
    for name, mode, bootstrap in (
        ("quasi-online", "quasi-online", 2),
        ("online, bootstrap 10", "online", 10),
        ("online, bootstrap 2", "online", 2),
    ):
        curves = online_exp.run(
            mode=mode, bootstrap=bootstrap, n_runs=n_online_runs, seed=seed
        )
        op = curves.operating_point()
        report.online[name] = op
        online_rows.append(
            [
                name,
                format_percent(op["known_accuracy"]),
                format_percent(op["unknown_accuracy"]),
                f"{op['mean_time_minutes']:.0f}m",
            ]
        )
    sections.append(
        format_table(
            ["setting", "known acc.", "unknown acc.", "time"],
            online_rows,
            title="Online identification",
        )
    )

    # --- confusion structure ------------------------------------------------
    if fingerprint_exp is not None:
        alpha = report.offline["fingerprints"]["alpha"]
        outcomes = fingerprint_exp.outcomes_at(alpha)
        sections.append("Confusion structure (offline fingerprints)")
        sections.append(confusion_table(outcomes))
        top = top_confusions(outcomes, k=4)
        if top:
            sections.append(
                "top confusions: "
                + ", ".join(f"{t}->{e} x{n}" for t, e, n in top)
            )

    # --- forecasting ---------------------------------------------------------
    fp = FingerprintMethod(OFFLINE_CONFIG)
    fp.fit(trace, crises)
    train, test = crises[: max(len(crises) * 2 // 3, 1)], \
        crises[max(len(crises) * 2 // 3, 1):]
    if any(c.detected_epoch is not None for c in test):
        forecaster = OfflineCrisisForecaster(
            trace, fp.thresholds, fp.relevant,
            lead_epochs=1, window_epochs=3,
        ).fit(train)
        threshold = forecaster.calibrate_threshold()
        result = forecaster.evaluate(test, threshold=threshold)
        report.forecasting = {
            "recall": result.recall,
            "false_alarm_rate": result.false_alarm_rate,
            "n_crises": float(result.n_crises),
        }
        sections.append(
            f"Forecasting: {result.recall:.0%} of {result.n_crises} "
            f"held-out crises flagged early "
            f"({result.false_alarm_rate:.1%} false alarms)"
        )

    report.text = "\n\n".join(sections)
    return report


__all__ = ["EvaluationReport", "full_report"]
