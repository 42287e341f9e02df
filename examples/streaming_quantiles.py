"""Scaling the summarization: streaming quantiles for very large fleets.

Section 3.2 notes that as the datacenter grows, metric quantiles can be
estimated from a stream with bounded error instead of exactly.  This
example compares exact quantiles against the Greenwald-Khanna sketch on
a simulated large fleet, showing that the fingerprint input changes
negligibly while memory stays sublinear.

    python examples/streaming_quantiles.py
"""

import numpy as np

from repro.telemetry.quantiles import empirical_quantiles
from repro.telemetry.sketches import GKQuantileSketch

QUANTILES = (0.25, 0.50, 0.95)


def main() -> None:
    rng = np.random.default_rng(42)
    n_machines = 20000  # a fleet far larger than the paper's datacenter

    # One epoch of one metric across the whole fleet: lognormal latencies
    # with a heavy tail, the hard case for quantile estimation.
    samples = rng.lognormal(3.0, 0.6, n_machines)

    exact = empirical_quantiles(samples, QUANTILES)
    print(f"fleet of {n_machines} machines, one metric, one epoch")
    print(f"exact quantiles (25/50/95): "
          f"{exact[0]:.2f} / {exact[1]:.2f} / {exact[2]:.2f}")

    sketch = GKQuantileSketch(eps=0.01)
    for x in samples:
        sketch.insert(x)
    gk = [sketch.query(q) for q in QUANTILES]
    print("\nGreenwald-Khanna sketch (eps=1%):")
    print(f"  estimates: {gk[0]:.2f} / {gk[1]:.2f} / {gk[2]:.2f}")
    print(f"  relative errors: "
          + " / ".join(f"{abs(e - t) / t:.2%}" for e, t in zip(gk, exact)))
    print(f"  tuples stored: {sketch.size} "
          f"({sketch.size / n_machines:.2%} of the stream)")

    print("\nThe fingerprint consumes only these quantiles, so its size and "
          "accuracy\nare unchanged whether the fleet has 200 machines or "
          "20000.")


if __name__ == "__main__":
    main()
