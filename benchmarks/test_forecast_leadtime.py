"""Lead time vs precision: the online forecaster against Section 7.

The forecast subsystem's acceptance bar, asserted directly.  A
two-stage detector is trained once on the trace prefix ending before
the 8th labeled crisis, then the *full* trace is replayed online
through a fresh monitor with the trained engine attached, and every
crisis the schedule still holds — 12 of the 19 labeled crises,
spanning seven distinct types — is scored:

* **recall** must strictly beat the Section 7 offline demo (43% of its
  held-out crises at a 2% false-alarm budget, 1.7% realized) while the
  online detector is calibrated at *half* that budget (1%) and must
  also realize a lower false-alarm rate;
* the **median lead** must be at least 2 epochs — alarms that arrive
  with the SLA breach are not forecasts;
* stage-2 must name the right incident for at least 60% of the
  forewarned crises it labels.

The split differs from the offline demo's (train on 12, test on the
last 7) deliberately: the demo's last-7 slice happens to draw five
step-onset crises that the simulator detects at their start epoch, so
it measures luck on background epochs more than forecasting skill.
Training once at the 70% mark and scoring the *entire* remaining
schedule exercises every onset shape the simulator generates —
ramping type-B crises, lagged step onsets, and instant ones — and the
bar is the harder dominance claim: more crises forecast, on a bigger
held-out set, at a stricter budget.

Relevant metrics are selected from training-period detections only
(the unlabeled Section 3.4 selection), so nothing from the held-out
period leaks into the model.

Set ``FORECAST_LEADTIME_QUICK=1`` (the CI perf wall does) for the unit-test-scale simulation with relaxed floors.
"""

import os

import numpy as np

from repro.config import ForecastConfig
from repro.core.selection import (
    select_crisis_metrics,
    select_relevant_metrics,
)
from repro.datacenter import DatacenterSimulator
from repro.datacenter.scenarios import tiny
from repro.forecast import (
    FORECAST_REPLAY_CONFIG,
    evaluate_forecaster,
    format_report,
    train_forecaster,
)

from conftest import publish, publish_json

QUICK = os.environ.get("FORECAST_LEADTIME_QUICK") == "1"

#: The committed Section 7 baseline (benchmarks/results/
#: sec7_forecasting.txt): 43% of its held-out crises forecast at a 2%
#: false-alarm budget (1.7% realized).  The online subsystem must
#: strictly beat the recall on its larger held-out schedule while
#: calibrated at half the budget.
SEC7_RECALL = 0.43
SEC7_FALSE_ALARM_RATE = 0.017

#: Online calibration budget: half the offline demo's 2%.
FALSE_ALARM_BUDGET = 0.01

MIN_RECALL = 0.30 if QUICK else SEC7_RECALL
MAX_FALSE_ALARMS = 0.03 if QUICK else SEC7_FALSE_ALARM_RATE
MIN_MEDIAN_LEAD = 1.0 if QUICK else 2.0
MIN_STAGE2 = 0.50 if QUICK else 0.60


def training_relevant(trace, split, config=FORECAST_REPLAY_CONFIG):
    """Section 3.4 selection restricted to training-period detections."""
    selections = [
        select_crisis_metrics(
            c.raw.values,
            c.raw.violations,
            top_k=config.selection.per_crisis_top_k,
        )
        for c in trace.detected_crises
        if c.raw is not None and c.detected_epoch < split
    ]
    return select_relevant_metrics(
        selections,
        config.selection.n_relevant,
        pool=max(len(selections), config.selection.crisis_pool),
    )


def test_forecast_leadtime(request):
    if QUICK:
        trace = DatacenterSimulator(tiny(seed=1234)).run()
    else:
        trace = request.getfixturevalue("paper_trace")
    labeled = trace.labeled_crises
    assert len(labeled) >= 17

    fcfg = ForecastConfig(false_alarm_budget=FALSE_ALARM_BUDGET)
    # Train on the prefix before the 8th labeled crisis and hold out the
    # full remaining schedule (12 crises, seven types).  The prefix
    # stops clear of the 8th crisis's lead window so no positive
    # training epoch overlaps the evaluation period.
    split = (
        int(labeled[7].instance.start_epoch) - fcfg.horizon_epochs - 8
    )

    relevant = training_relevant(trace, split)
    engine, report = train_forecaster(
        trace, relevant, fcfg=fcfg, train_epochs=split
    )
    result = evaluate_forecaster(trace, relevant, engine, eval_start=split)

    text = format_report(
        result,
        title=(
            "forecast lead time (%s; train<%d, %d crises held out)"
            % ("quick" if QUICK else "paper", split, result.n_crises)
        ),
    )
    text += "\n\n" + "\n".join([
        "training:",
        f"  positives / negatives  {report.n_positive}"
        f" / {report.n_negative}",
        f"  stage-1 lambda         {report.lam:.5f}",
        f"  alarm threshold        {report.alarm_threshold:.5f}"
        f"  (budget {fcfg.false_alarm_budget:.0%})",
        f"  stage-2 catalog        {report.catalog_size} entries",
        f"sec7 baseline: recall {SEC7_RECALL:.0%} at budget 2%"
        f" (realized {SEC7_FALSE_ALARM_RATE:.1%})",
    ])
    publish("forecast_leadtime", text)
    publish_json("forecast", {
        "mode": "quick" if QUICK else "full",
        "n_crises": result.n_crises,
        "n_forewarned": result.n_forewarned,
        "recall": round(result.recall, 4),
        "median_lead_epochs": result.median_lead_epochs,
        "false_alarm_rate": round(result.false_alarm_rate, 5),
        "n_false_alarms": result.n_false_alarms,
        "n_normal_epochs": result.n_normal_epochs,
        "stage2_accuracy": round(result.stage2_accuracy, 4),
        "n_stage2_scored": result.n_stage2_scored,
        "catalog_size": report.catalog_size,
        "train_positives": report.n_positive,
        "sec7_recall": SEC7_RECALL,
        "sec7_false_alarm_rate": SEC7_FALSE_ALARM_RATE,
    })

    # The detector actually trained and the evaluation actually scored.
    assert report.n_positive > 0 and report.catalog_size > 0
    assert result.n_crises >= (5 if QUICK else 10)
    assert np.isfinite(result.recall)

    # The acceptance bar: strictly better recall than Section 7 at a
    # stricter budget and a lower realized false-alarm rate, with
    # genuine advance notice and a mostly-right early identification.
    assert result.recall > MIN_RECALL, text
    assert result.false_alarm_rate <= MAX_FALSE_ALARMS, text
    assert result.median_lead_epochs >= MIN_MEDIAN_LEAD, text
    if result.n_stage2_scored:
        assert result.stage2_accuracy >= MIN_STAGE2, text
