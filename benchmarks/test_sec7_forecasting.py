"""Experiment E12 — Section 7: forecasting crises from early signs.

The paper's future-work section reports encouraging initial results on
forecasting crises — especially type B, whose downstream backlog builds
before the SLA detector fires.  The forecaster trains on early (pre-
detection) fingerprints of past crises and is evaluated on held-out ones.
"""

from conftest import publish
from repro.evaluation.results import format_table
from repro.forecast.offline import OfflineCrisisForecaster


def test_sec7_forecasting(benchmark, paper_trace, labeled_crises,
                          fingerprint_method):
    method = fingerprint_method
    train, test = labeled_crises[:12], labeled_crises[12:]

    def compute():
        forecaster = OfflineCrisisForecaster(
            paper_trace,
            method.thresholds,
            method.relevant,
            lead_epochs=1,
            window_epochs=3,
        ).fit(train)
        threshold = forecaster.calibrate_threshold()
        overall = forecaster.evaluate(test, threshold=threshold)
        test_b = [c for c in test if c.label == "B"]
        by_type = (
            forecaster.evaluate(test_b, threshold=threshold)
            if test_b else None
        )
        return overall, by_type

    overall, type_b = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = [
        [
            "all held-out crises",
            f"{overall.recall:.0%} of {overall.n_crises}",
            f"{overall.false_alarm_rate:.1%}",
        ]
    ]
    if type_b is not None:
        rows.append(
            [
                "type B only",
                f"{type_b.recall:.0%} of {type_b.n_crises}",
                f"{type_b.false_alarm_rate:.1%}",
            ]
        )
    text = format_table(
        ["evaluation", "crises forecast", "false alarms (normal epochs)"],
        rows,
        title="Section 7 — forecasting crises from early fingerprint signs",
    )
    publish("sec7_forecasting", text)

    # Shape: forecasting is genuinely informative (better than the base
    # rate) with a low false-alarm rate, and type B — whose downstream
    # backlog builds gradually — is the forecastable type.
    assert overall.false_alarm_rate < 0.15
    if type_b is not None and type_b.n_crises >= 2:
        assert type_b.recall >= 0.5
