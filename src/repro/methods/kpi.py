"""KPI baseline: fingerprints from the three operator KPIs only.

"For each KPI, the fingerprint contains the number of machines in the
datacenter that are violating the performance SLA specified for that KPI"
(Section 4.2).  We use the violating *fraction* (equivalent up to a constant
for a fixed fleet), averaged over the crisis summary window.  With only
three dimensions this representation cannot distinguish crisis types that
stress the same stage — which is the point of the baseline.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import FingerprintConfig
from repro.core.similarity import l2_distance
from repro.datacenter.trace import CrisisRecord, DatacenterTrace
from repro.methods.base import OfflineMethod


class KPIMethod(OfflineMethod):
    """Crisis vectors of per-KPI violating-machine fractions."""

    name = "KPIs"

    def __init__(self, fingerprint: FingerprintConfig = FingerprintConfig()):
        self.fingerprint = fingerprint
        self.trace: Optional[DatacenterTrace] = None

    def fit(self, trace: DatacenterTrace, crises: List[CrisisRecord]) -> None:
        self.trace = trace

    def vector(
        self, crisis: CrisisRecord, n_epochs: Optional[int] = None
    ) -> np.ndarray:
        if self.trace is None:
            raise RuntimeError("method is not fitted")
        det = crisis.detected_epoch
        if det is None:
            raise ValueError("crisis was never detected")
        span = self.fingerprint.window(det, self.trace.n_epochs, n_epochs)
        return self.trace.kpi_violation_fraction[span].mean(axis=0)

    def pair_distance(
        self,
        new: CrisisRecord,
        known: CrisisRecord,
        n_epochs: Optional[int] = None,
    ) -> float:
        return l2_distance(
            self.vector(new, n_epochs), self.vector(known, n_epochs)
        )


__all__ = ["KPIMethod"]
