"""Unsupervised discovery quality on a fully unlabeled stream.

The discovery PR's acceptance floor, asserted directly: replaying the
paper-scale simulated trace through the streaming monitor with **zero
operator diagnoses**, the attached
:class:`~repro.discovery.DiscoveryEngine` must recover at least 9 of
the 10 injected ground-truth crisis types with an adjusted Rand index
of at least 0.85 against the hidden truth partition.  The supervised
ceiling — the same stream with an oracle diagnosing every crisis as it
ends — is reported alongside for context.

Set ``DISCOVERY_UNLABELED_QUICK=1`` (the CI perf wall does) for the unit-test-scale simulation with relaxed floors.
"""

import os

from repro.datacenter import DatacenterSimulator
from repro.datacenter.scenarios import tiny
from repro.discovery.eval import format_report, run_unlabeled

from conftest import publish, publish_json

QUICK = os.environ.get("DISCOVERY_UNLABELED_QUICK") == "1"
MIN_RECOVERED = 8 if QUICK else 9
MIN_ADJUSTED_RAND = 0.75 if QUICK else 0.85


def test_discovery_unlabeled(request):
    if QUICK:
        trace = DatacenterSimulator(tiny(seed=1234)).run()
    else:
        trace = request.getfixturevalue("paper_trace")

    result, engine = run_unlabeled(trace)

    report = format_report(result)
    publish("discovery_unlabeled", report)
    publish_json("discovery", {
        "mode": "quick" if QUICK else "full",
        "n_detected": result.n_detected,
        "n_clustered": result.n_clustered,
        "n_clusters": result.n_clusters,
        "n_promoted": result.n_promoted,
        "n_types": result.n_types,
        "recovered_types": result.recovered_types,
        "purity": round(result.purity, 4),
        "adjusted_rand": round(result.adjusted_rand, 4),
        "nmi": round(result.nmi, 4),
        "supervised_adjusted_rand": round(
            result.supervised_adjusted_rand, 4
        ),
        "supervised_accuracy": round(result.supervised_accuracy, 4),
    })

    # Every detected crisis the clusterer saw went through the index-
    # backed assignment path; promotion actually grew the catalog.
    assert result.n_clustered > 0
    assert result.n_promoted >= 1
    assert engine.incidents is not None and len(engine.incidents) >= 1

    assert result.recovered_types >= MIN_RECOVERED, report
    assert result.adjusted_rand >= MIN_ADJUSTED_RAND, report
