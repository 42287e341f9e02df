"""Steady-state threshold-refresh cost: incremental engine vs full recompute.

The engine PR's acceptance floor, asserted directly: at the paper's
240-day window, the :class:`~repro.core.engine.RollingThresholdTracker`'s
daily refresh (one day of appends plus a percentile query) must be at
least 5x faster than the full trailing-window percentile recompute it
replaced — while returning bit-identical thresholds, which is also
asserted per refresh.  The end-to-end
:class:`~repro.evaluation.experiments.OnlineIdentificationExperiment`
wall-clock is reported alongside; its threshold cache rides the same
engine.

Set ``ENGINE_REFRESH_QUICK=1`` (the CI perf wall does) for a reduced
30-day/40-metric sweep with the same parity assertions and a relaxed
speedup floor.
"""

import os
import time

import numpy as np

from repro.config import (
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.engine import RollingThresholdTracker
from repro.core.thresholds import percentile_thresholds
from repro.datacenter import DatacenterSimulator
from repro.datacenter.scenarios import tiny
from repro.evaluation.experiments import OnlineIdentificationExperiment

from conftest import publish, publish_json

QUICK = os.environ.get("ENGINE_REFRESH_QUICK") == "1"
WINDOW_DAYS = 120 if QUICK else 240
N_METRICS = 40 if QUICK else 100
N_QUANTILES = 3
EPOCHS_PER_DAY = 96
N_REFRESH = 4 if QUICK else 10
ANOMALOUS_RATE = 0.05
SPEEDUP_FLOOR = 3.0 if QUICK else 5.0


def test_engine_refresh(request):
    rng = np.random.default_rng(5)
    W = WINDOW_DAYS * EPOCHS_PER_DAY
    n_epochs = W + N_REFRESH * EPOCHS_PER_DAY
    values = rng.lognormal(0.0, 0.25, (n_epochs, N_METRICS, N_QUANTILES))
    anomalous = rng.random(n_epochs) < ANOMALOUS_RATE

    tracker = RollingThresholdTracker(N_METRICS, N_QUANTILES, W)
    t0 = time.perf_counter()
    tracker.prime(values[:W], anomalous[:W])
    prime_s = time.perf_counter() - t0

    inc_times, full_times = [], []
    for r in range(N_REFRESH):
        lo = W + r * EPOCHS_PER_DAY
        hi = lo + EPOCHS_PER_DAY
        t0 = time.perf_counter()
        for e in range(lo, hi):
            tracker.append(values[e], bool(anomalous[e]))
        inc_thr = tracker.thresholds()
        inc_times.append(time.perf_counter() - t0)

        # The replaced path: slice the trailing crisis-free window out of
        # the store and recompute both percentiles from scratch.
        t0 = time.perf_counter()
        start = hi - W
        window = values[start:hi][~anomalous[start:hi]]
        full_thr = percentile_thresholds(window)
        full_times.append(time.perf_counter() - t0)

        np.testing.assert_array_equal(inc_thr.cold, full_thr.cold)
        np.testing.assert_array_equal(inc_thr.hot, full_thr.hot)

    inc_ms = float(np.mean(inc_times)) * 1e3
    full_ms = float(np.mean(full_times)) * 1e3
    speedup = full_ms / inc_ms

    # End-to-end harness wall-clock, cold caches: parameter precompute
    # (selections + thresholds + fingerprints) and one online run.
    if QUICK:
        trace = DatacenterSimulator(tiny(seed=1234)).run()
        config = FingerprintingConfig(
            selection=SelectionConfig(n_relevant=20),
            thresholds=ThresholdConfig(window_days=30),
        )
        n_runs = 2
    else:
        trace = request.getfixturevalue("paper_trace")
        config = FingerprintingConfig(
            selection=SelectionConfig(n_relevant=30),
            thresholds=ThresholdConfig(window_days=240),
        )
        n_runs = 3
    for key in ("_selection_cache", "_threshold_cache", "_threshold_engines"):
        trace.__dict__.pop(key, None)
    exp = OnlineIdentificationExperiment(trace, config)
    t0 = time.perf_counter()
    exp.precompute()
    precompute_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exp.run(mode="online", bootstrap=2, n_runs=n_runs, seed=0)
    run_s = time.perf_counter() - t0

    lines = [
        "Epoch-state engine: steady-state threshold refresh at the "
        "%d-day window" % WINDOW_DAYS,
        "(%d metrics x %d quantiles, %d epochs/day, %.0f%% anomalous)"
        % (N_METRICS, N_QUANTILES, EPOCHS_PER_DAY, ANOMALOUS_RATE * 100),
        "",
        "%-44s %10.2f ms" % (
            "incremental refresh (1 day appends + query)", inc_ms),
        "%-44s %10.2f ms" % ("full window recompute (replaced path)",
                             full_ms),
        "%-44s %9.1fx" % ("speedup (floor %.0fx)" % SPEEDUP_FLOOR, speedup),
        "%-44s %10.2f s" % ("tracker prime (bulk load of %d epochs)" % W,
                            prime_s),
        "",
        "Thresholds asserted bit-identical between the two paths at "
        "every refresh.",
        "",
        "End-to-end OnlineIdentificationExperiment (cold caches, "
        "%d crises):" % len(trace.labeled_crises),
        "%-44s %10.2f s" % ("parameter precompute", precompute_s),
        "%-44s %10.2f s" % ("online run (%d permutations)" % n_runs, run_s),
        "",
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("engine_refresh", "\n".join(lines))
    publish_json("engine_refresh", {
        "window_days": WINDOW_DAYS,
        "n_metrics": N_METRICS,
        "epochs_per_day": EPOCHS_PER_DAY,
        "incremental_refresh_ms": inc_ms,
        "full_recompute_ms": full_ms,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "prime_s": prime_s,
        "precompute_s": precompute_s,
        "online_run_s": run_s,
        "mode": "quick" if QUICK else "full",
    })

    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental refresh only {speedup:.1f}x faster than the full "
        f"recompute at the {WINDOW_DAYS}-day window"
    )
