"""Extensions sketched in the paper's future-work section (Section 7).

* :mod:`repro.extensions.evolution` — modeling the evolution of a crisis in
  fingerprint space to estimate progress and time to resolution.

Forecasting crises from early signs, the section's other direction, lives
in :mod:`repro.forecast`.
"""

from repro.extensions.catalog import (
    CrisisCluster,
    adjusted_rand_index,
    catalog_summary,
    cluster_crises,
    cluster_purity,
    normalized_mutual_information,
)
from repro.extensions.evolution import CrisisEvolutionModel, EvolutionProfile

__all__ = [
    "CrisisCluster",
    "adjusted_rand_index",
    "catalog_summary",
    "cluster_crises",
    "cluster_purity",
    "normalized_mutual_information",
    "CrisisEvolutionModel",
    "EvolutionProfile",
]
