"""Scaling of the sharded fleet aggregator vs. the single-process path.

Simulates a 10k-machine fleet (16 metrics, 3 epochs) and measures
sustained aggregation throughput — reports/second through a full
submit + close-epoch cycle — for the single-process
:class:`EpochAggregator` fed report-by-report (its API) and for the
sharded :class:`FleetAggregator` at 1/2/4 workers.  The fleet PR's
acceptance floor is asserted directly: >= 3x throughput at 4 workers.

The fleet path wins on two axes: vectorized chunk folding (one sort per
batch instead of per-value Python work) and work partitioning across
worker processes; the table reports each shard's busy time so the
partitioning is visible even on hosts where the workers time-slice a
single core.

Set ``FLEET_SCALING_QUICK=1`` (the CI perf wall does) for a reduced
2000-machine sweep at 1/2 workers with a 1.5x floor.
"""

import os

from repro.fleet.bench import format_results, run_scaling

from conftest import publish, publish_json

QUICK = os.environ.get("FLEET_SCALING_QUICK") == "1"
N_MACHINES = 2000 if QUICK else 10_000
N_METRICS = 16
N_EPOCHS = 2 if QUICK else 3
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SPEEDUP_FLOOR = 1.5 if QUICK else 3.0
MODE = "sketch"
SKETCH_EPS = 0.02


def test_fleet_scaling():
    results = run_scaling(
        n_machines=N_MACHINES,
        n_metrics=N_METRICS,
        n_epochs=N_EPOCHS,
        worker_counts=WORKER_COUNTS,
        mode=MODE,
        sketch_eps=SKETCH_EPS,
        seed=0,
    )
    lines = [
        format_results(
            results,
            title="Fleet aggregation scaling: single-process "
            "EpochAggregator vs. sharded FleetAggregator "
            f"(mode={MODE}, eps={SKETCH_EPS})",
        ),
        "",
        "reports/s = machines x epochs / total wall time (submit through "
        "close_epoch).",
        "max shard busy = slowest worker's fold time per epoch; compare "
        "against total s for the partitioning picture on 1-cpu hosts.",
        f"floor asserted at {WORKER_COUNTS[-1]} workers: "
        f">={SPEEDUP_FLOOR:.1f}x over the single-process baseline.",
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("fleet_scaling", "\n".join(lines))
    publish_json("fleet_scaling", {
        "n_machines": N_MACHINES,
        "n_metrics": N_METRICS,
        "n_epochs": N_EPOCHS,
        "sketch_eps": SKETCH_EPS,
        "speedup_floor": SPEEDUP_FLOOR,
        "mode": "quick" if QUICK else "full",
        "configs": [{
            "label": r.label,
            "n_workers": r.n_workers,
            "seconds": r.seconds,
            "reports_per_s": r.reports_per_s,
            "max_shard_busy_s": r.max_shard_busy_s,
        } for r in results],
    })

    baseline = results[0]
    best = results[-1]
    assert best.n_workers == WORKER_COUNTS[-1]
    speedup = best.reports_per_s / baseline.reports_per_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"only {speedup:.2f}x over the single-process aggregator at "
        f"{best.n_workers} workers ({N_MACHINES} machines)"
    )
