"""Columnar epoch-block ingestion vs. the per-machine list oracle.

The columnar PR's headline: one preallocated ``EpochBlock`` per
aggregator, batch folds, and a single NaN-masked numpy pass at close —
against the list oracle (``ListAggregator`` in
``tests/test_columnar_parity.py``) that appends one row per report and
loops per quantile at close.  Both produce bit-identical summaries
(asserted here and property-tested in the parity suite); the benchmark
measures what the block buys:

* sustained ingestion throughput (reports/s through submit + close);
* epoch-close latency, the number that gates how fast a crisis shows
  up after the epoch boundary.

Sweep: 10k and 100k machines x 16 metrics, 2% of samples missing
(NaN), reports arriving in 1000-machine batches on the columnar path
(the ``report_batch`` wire shape) and one-by-one on the legacy path
(its API).  The acceptance floor from the PR is asserted directly:
>= 5x faster epoch close at 100k machines.

Set ``COLUMNAR_INGEST_QUICK=1`` (the CI perf wall does) for a reduced
10k-machine sweep with a 2x floor.
"""

import os
import time

import numpy as np
from numpy.testing import assert_array_equal

from repro.telemetry.collector import EpochAggregator
from tests.test_columnar_parity import ListAggregator

from conftest import publish, publish_json

QUICK = os.environ.get("COLUMNAR_INGEST_QUICK") == "1"
SIZES = (10_000,) if QUICK else (10_000, 100_000)
N_METRICS = 16
N_EPOCHS = 2 if QUICK else 3
BATCH = 1000  # report_batch frame size on the columnar path
GAP_P = 0.02
CLOSE_SPEEDUP_FLOOR = 2.0 if QUICK else 5.0
QUANTILES = (0.25, 0.50, 0.95)


def make_epoch(n_machines, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(10.0, 2.0, size=(n_machines, N_METRICS))
    matrix[rng.random(matrix.shape) < GAP_P] = np.nan
    return matrix


def build(cls, n_machines):
    return cls(
        [f"metric-{j}" for j in range(N_METRICS)],
        quantiles=QUANTILES,
        fleet_size=n_machines,
    )


def run_epochs(agg, matrices, batched):
    """Feed + close each epoch; returns (submit_s, close_s, summaries)."""
    submit_s = close_s = 0.0
    summaries = []
    for matrix in matrices:
        t0 = time.perf_counter()
        if batched:
            for lo in range(0, matrix.shape[0], BATCH):
                agg.submit_batch(matrix[lo : lo + BATCH])
        else:
            for row in matrix:
                agg.submit(row)
        t1 = time.perf_counter()
        summaries.append(agg.close_epoch())
        close_s += time.perf_counter() - t1
        submit_s += t1 - t0
    return submit_s, close_s, summaries


def test_columnar_ingest():
    rows = []
    for n_machines in SIZES:
        matrices = [
            make_epoch(n_machines, seed=(17, n_machines, e))
            for e in range(N_EPOCHS)
        ]
        legacy_submit, legacy_close, legacy = run_epochs(
            build(ListAggregator, n_machines), matrices, batched=False
        )
        block_submit, block_close, block = run_epochs(
            build(EpochAggregator, n_machines), matrices, batched=True
        )
        # The speedup is only claimable because the answers are the
        # same bits.
        for a, b in zip(legacy, block):
            assert_array_equal(b.quantiles, a.quantiles)
            assert b.quality == a.quality
        n_reports = n_machines * N_EPOCHS
        rows.append({
            "n_machines": n_machines,
            "legacy_reports_per_s": n_reports / (legacy_submit + legacy_close),
            "block_reports_per_s": n_reports / (block_submit + block_close),
            "legacy_close_ms": 1000.0 * legacy_close / N_EPOCHS,
            "block_close_ms": 1000.0 * block_close / N_EPOCHS,
            "close_speedup": legacy_close / block_close,
            "ingest_speedup": (
                (legacy_submit + legacy_close)
                / (block_submit + block_close)
            ),
        })

    header = (
        "%10s %14s %14s %12s %12s %9s %9s"
        % ("machines", "legacy rep/s", "block rep/s",
           "legacy close", "block close", "close x", "ingest x")
    )
    lines = [
        "Columnar epoch-block ingestion vs. per-machine lists "
        f"({N_METRICS} metrics, {N_EPOCHS} epochs, "
        f"{GAP_P:.0%} samples missing)",
        "",
        header,
        "-" * len(header),
    ]
    for r in rows:
        lines.append(
            "%10d %14.0f %14.0f %10.1fms %10.1fms %8.1fx %8.1fx"
            % (r["n_machines"], r["legacy_reports_per_s"],
               r["block_reports_per_s"], r["legacy_close_ms"],
               r["block_close_ms"], r["close_speedup"],
               r["ingest_speedup"])
        )
    lines += [
        "",
        "close = one epoch's summary (NaN-masked quantiles over the "
        "machine x metric matrix).",
        "block path folds 1000-machine batches (the report_batch wire "
        "shape); legacy submits row-by-row (its API).",
        "summaries asserted bit-identical between the paths before any "
        "timing is reported.",
        f"floor asserted: >={CLOSE_SPEEDUP_FLOOR:.0f}x faster close at "
        f"{SIZES[-1]} machines.",
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("columnar_ingest", "\n".join(lines))
    publish_json("columnar", {
        "n_metrics": N_METRICS,
        "n_epochs": N_EPOCHS,
        "batch": BATCH,
        "gap_p": GAP_P,
        "close_speedup_floor": CLOSE_SPEEDUP_FLOOR,
        "mode": "quick" if QUICK else "full",
        "sizes": rows,
    })

    top = rows[-1]
    assert top["close_speedup"] >= CLOSE_SPEEDUP_FLOOR, (
        f"epoch close only {top['close_speedup']:.2f}x faster at "
        f"{top['n_machines']} machines"
    )
