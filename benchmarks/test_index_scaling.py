"""Scaling of the fingerprint index vs. the historical linear scan.

Builds libraries of 1k / 10k / 100k synthetic crisis fingerprints
(clustered like the simulator's crisis catalog: a small set of crisis
types blurred by per-instance noise) and measures per-query k-NN latency
for the Python-loop scan the index replaced and for each backend, plus
LSH recall@10 against exact truth.  The acceptance floor of the index
PR is asserted directly: at the largest size the exact backend must be
>= 10x faster than the loop scan, and LSH recall must stay >= 0.9.

Set ``INDEX_SCALING_QUICK=1`` (the CI perf wall's rerun does) to run a
reduced 1k/5k sweep with the same assertions.
"""

import os
import time

import numpy as np
import pytest

from repro.index import BruteForceIndex, LSHIndex

from conftest import publish, publish_json

QUICK = os.environ.get("INDEX_SCALING_QUICK") == "1"
SIZES = [1000, 5000] if QUICK else [1000, 10_000, 100_000]
DIM = 90  # 30 relevant metrics x 3 quantiles
K = 10
N_QUERIES = 20 if QUICK else 50
N_SCAN_QUERIES = 5  # the loop scan is too slow to time on all queries
N_TYPES = 19  # crisis types in the paper's Table 1
SPEEDUP_FLOOR = 10.0
RECALL_FLOOR = 0.9


def make_cloud(n, rng):
    centers = rng.uniform(-1.0, 1.0, size=(N_TYPES, DIM))
    points = centers[rng.integers(0, N_TYPES, size=n)] + rng.normal(
        scale=0.05, size=(n, DIM)
    )
    queries = centers[rng.integers(0, N_TYPES, size=N_QUERIES)] + rng.normal(
        scale=0.05, size=(N_QUERIES, DIM)
    )
    return points, queries


def loop_scan(query, points, k):
    """The pre-index identification scan: one Python-level norm per vector."""
    return sorted(
        (float(np.linalg.norm(query - p)), i) for i, p in enumerate(points)
    )[:k]


def per_query_ms(fn, queries):
    start = time.perf_counter()
    for q in queries:
        fn(q)
    return (time.perf_counter() - start) / len(queries) * 1e3


def test_index_scaling():
    rng = np.random.default_rng(11)
    lines = [
        "Fingerprint index scaling: per-query k-NN latency (k=%d, dim=%d)"
        % (K, DIM),
        "",
        "%8s %12s %10s %10s %9s %9s"
        % ("n", "scan ms/q", "brute", "lsh", "speedup", "recall@10"),
    ]
    largest_speedup = None
    largest_recall = None
    rows = []
    for n in SIZES:
        points, queries = make_cloud(n, rng)

        scan_ms = per_query_ms(
            lambda q: loop_scan(q, points, K), queries[:N_SCAN_QUERIES]
        )

        brute = BruteForceIndex(DIM)
        brute.add_batch(points)
        brute.query(queries[0], k=K)  # warm
        brute_ms = per_query_ms(lambda q: brute.query(q, k=K), queries)

        lsh = LSHIndex(DIM, seed=0)
        lsh.add_batch(points)
        lsh.query(queries[0], k=K)  # freezes width, hashes
        lsh_ms = per_query_ms(lambda q: lsh.query(q, k=K), queries)

        truth = [{h.id for h in brute.query(q, k=K)} for q in queries]
        got = [{h.id for h in lsh.query(q, k=K)} for q in queries]
        recall = float(
            np.mean([len(t & g) / K for t, g in zip(truth, got)])
        )
        best_ms = min(brute_ms, lsh_ms)
        speedup = scan_ms / best_ms
        largest_speedup, largest_recall = speedup, recall
        lines.append(
            "%8d %12.3f %10.3f %10.3f %8.1fx %9.3f"
            % (n, scan_ms, brute_ms, lsh_ms, speedup, recall)
        )
        rows.append({
            "n": n, "scan_ms_per_q": scan_ms, "brute_ms_per_q": brute_ms,
            "lsh_ms_per_q": lsh_ms,
            "speedup": speedup, "recall_at_10": recall,
        })

    lines += [
        "",
        "scan = per-vector Python-loop norm (the replaced identification "
        "path); ms/q columns are per-query.",
        "speedup = scan vs. fastest backend at that size; floors asserted "
        "at the largest size: >=%.0fx speedup, >=%.2f LSH recall@10."
        % (SPEEDUP_FLOOR, RECALL_FLOOR),
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("index_scaling", "\n".join(lines))
    publish_json("index_scaling", {
        "k": K, "dim": DIM, "sizes": rows,
        "speedup_floor": SPEEDUP_FLOOR, "recall_floor": RECALL_FLOOR,
        "mode": "quick" if QUICK else "full",
    })

    assert largest_speedup >= SPEEDUP_FLOOR, (
        f"only {largest_speedup:.1f}x over the loop scan at n={SIZES[-1]}"
    )
    assert largest_recall >= RECALL_FLOOR, (
        f"LSH recall@10 {largest_recall:.3f} at n={SIZES[-1]}"
    )
