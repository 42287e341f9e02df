"""Experiment E11 — scaling claims (Sections 3.1-3.2).

Two properties to demonstrate:

1. the fingerprint representation's size depends on the number of metrics,
   never on the number of machines;
2. quantiles can be estimated from a stream with bounded error and
   sublinear memory (Greenwald-Khanna), so summarization keeps scaling
   as the fleet grows.

These are also the suite's only timed micro-benchmarks (the figure
benchmarks time one full experiment run each).
"""

import numpy as np

from conftest import publish
from repro.evaluation.results import format_table
from repro.telemetry.quantiles import empirical_quantiles, summarize_epoch
from repro.telemetry.sketches import GKQuantileSketch

QUANTILES = (0.25, 0.50, 0.95)


def test_summary_size_independent_of_fleet(benchmark):
    rng = np.random.default_rng(0)
    fleets = (100, 1000, 10000)
    n_metrics = 100

    def compute():
        shapes = {}
        for n in fleets:
            samples = rng.lognormal(1.0, 0.5, (n, n_metrics))
            shapes[n] = summarize_epoch(samples, QUANTILES).shape
        return shapes

    shapes = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [f"{n} machines", f"{n * n_metrics} raw values",
         f"{shapes[n][0] * shapes[n][1]} summary values"]
        for n in fleets
    ]
    publish(
        "scaling_summary_size",
        format_table(
            ["fleet", "raw telemetry per epoch", "fingerprint input"],
            rows,
            title="Summary size scales with metrics, not machines",
        ),
    )
    assert len(set(shapes.values())) == 1


def test_gk_sketch_accuracy_and_space(benchmark):
    rng = np.random.default_rng(1)
    stream = rng.lognormal(3.0, 0.6, 50000)
    eps = 0.01

    def compute():
        sketch = GKQuantileSketch(eps=eps)
        for x in stream:
            sketch.insert(x)
        return sketch

    sketch = benchmark.pedantic(compute, rounds=1, iterations=1)

    exact = empirical_quantiles(stream, QUANTILES)
    rows = []
    for q, truth in zip(QUANTILES, exact):
        est = sketch.query(q)
        rank_est = np.searchsorted(np.sort(stream), est, side="right")
        rank_err = abs(rank_est - int(np.ceil(q * len(stream))))
        rows.append([f"q={q}", round(truth, 2), round(est, 2),
                     f"{rank_err / len(stream):.3%}"])
    rows.append(["space", f"{len(stream)} stream",
                 f"{sketch.size} tuples",
                 f"{sketch.size / len(stream):.2%}"])
    publish(
        "scaling_gk_sketch",
        format_table(
            ["quantile", "exact", "GK estimate", "rank error / space"],
            rows,
            title=f"Greenwald-Khanna sketch (eps={eps})",
        ),
    )
    for q in QUANTILES:
        est = sketch.query(q)
        rank_est = np.searchsorted(np.sort(stream), est, side="right")
        assert abs(rank_est - np.ceil(q * len(stream))) <= \
            2 * eps * len(stream)
    assert sketch.size < len(stream) * 0.05

