"""Discovery engine: wiring the clusterer into the streaming monitor.

:class:`DiscoveryEngine` rides on a
:class:`~repro.core.streaming.StreamingCrisisMonitor` (opt-in via
:meth:`~repro.core.streaming.StreamingCrisisMonitor.attach_discovery`)
and watches its event stream.  When a crisis ends:

* an *unidentified* crisis (its identification sequence is unstable or
  settled on the don't-know label) is fingerprinted from the stored
  crisis window and fed to the :class:`OnlineClusterer`;
* a crisis the supervised path identified as a previously *promoted*
  discovered entry is clustered the same way — the density rule, not
  the supervised match, decides where it lands, and a label sync pass
  keeps the monitor's library in lockstep with the clusters;
* a crisis with a real (operator) label is left to the supervised path.

When a cluster's evidence clears the promotion gate the engine mints a
``discovered-<id>`` label, labels the member crises in the monitor's
library (so the supervised identification path starts matching the
entry — the promotion round-trip), and records an
:class:`~repro.incidents.IncidentRecord` carrying the cluster medoid.
If an operator later diagnoses any member crisis with a real label, the
discovered entry is *renamed* — member crises relabeled, incident
records relabeled — never duplicated.

Engine state (clusterer + live identification sequences) is embedded in
monitor checkpoints by :mod:`repro.core.checkpoint`, so a restored
monitor resumes discovery bit-identically; standalone
:func:`save_discovery` / :func:`load_discovery` serve the CLI.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DiscoveryConfig
from repro.core.atomicio import atomic_write_npz, pack_header, read_npz
from repro.core.identification import UNKNOWN, is_stable, sequence_label
from repro.discovery.clusterer import OnlineClusterer

#: Format version of standalone discovery state archives.
DISCOVERY_FORMAT_VERSION = 1


class DiscoveryEngine:
    """Online catalog growth from a monitor's don't-know crises."""

    def __init__(
        self,
        config: DiscoveryConfig = DiscoveryConfig(),
        incidents=None,
    ):
        self.config = config
        #: Optional :class:`repro.incidents.IncidentDatabase`; promoted
        #: clusters append records here, renames relabel them.
        self.incidents = incidents
        self.clusterer: Optional[OnlineClusterer] = None
        self._monitor = None
        #: crisis number -> identification labels seen so far
        self._sequences: Dict[int, List[str]] = {}
        #: crisis number -> detection epoch (for incident records)
        self._detected: Dict[int, int] = {}
        #: Reentrancy guard: diagnoses the engine itself issues must not
        #: be mistaken for operator diagnoses (rename trigger).
        self._labeling = False

    # -- attachment --------------------------------------------------------

    def attach(self, monitor) -> None:
        """Bind to a monitor (normally via ``attach_discovery``)."""
        dim = int(monitor.relevant.size) * monitor.config.quantiles.count
        if self.clusterer is None:
            self.clusterer = OnlineClusterer(dim, self.config)
        elif self.clusterer.dim != dim:
            raise ValueError(
                f"discovery state is {self.clusterer.dim}-dimensional but "
                f"the monitor fingerprints {dim} dimensions"
            )
        self._monitor = monitor
        monitor._discovery = self

    @property
    def monitor(self):
        return self._monitor

    # -- monitor hooks -----------------------------------------------------

    def observe(self, events) -> None:
        """Consume one ingest call's emitted events (monitor hook)."""
        from repro.core.streaming import (
            CrisisDetected,
            CrisisEnded,
            IdentificationUpdate,
        )

        for event in events:
            if isinstance(event, CrisisDetected):
                self._detected[event.crisis_number] = event.epoch
                self._sequences[event.crisis_number] = []
            elif isinstance(event, IdentificationUpdate):
                self._sequences.setdefault(event.crisis_number, []).append(
                    event.label
                )
            elif isinstance(event, CrisisEnded):
                seq = self._sequences.pop(event.crisis_number, [])
                self._crisis_ended(event.crisis_number, seq)

    def on_diagnose(self, crisis_number: int, label: str) -> None:
        """Monitor hook: an operator diagnosed a crisis.

        If the crisis belongs to a promoted discovered cluster and the
        new label is a real one, the discovered entry is renamed — the
        late-arriving label replaces the synthetic one everywhere
        instead of minting a duplicate catalog entry.
        """
        if self._labeling or self.clusterer is None:
            return
        if label.startswith(self.config.label_prefix):
            return
        cid = self.clusterer.cluster_of(crisis_number)
        if cid is None:
            return
        old = self.clusterer.label(cid)
        if old is None or old == label:
            return
        self.rename_cluster(cid, label)

    # -- lifecycle ---------------------------------------------------------

    def _crisis_ended(self, number: int, sequence: List[str]) -> None:
        monitor = self._monitor
        stored = None
        for s in monitor._library:
            if s.number == number:
                stored = s
                break
        if stored is None:  # ended before it was stored (never happens)
            return
        label: Optional[str] = None
        if sequence and is_stable(sequence):
            label = sequence_label(sequence)
        if (
            label is not None
            and label != UNKNOWN
            and not label.startswith(self.config.label_prefix)
        ):
            # A real operator label: the supervised path owns it.
            return
        # Everything else — don't-knows, unstable sequences, and crises
        # the supervised path matched to a *promoted* discovered entry —
        # is routed by the density rule.  Trusting the supervised match
        # instead would let a loosely calibrated identification
        # threshold force-join far-away fingerprints and poison the
        # cluster; geometry decides, and the label sync below restores
        # the promoted label wherever the crisis actually lands.
        vec = monitor._fingerprint(stored.quantile_window)
        self.clusterer.ingest(vec, ref=number)
        self._sync_promoted_labels()
        if self.config.auto_promote:
            self._promote_ready()

    def finalize(self) -> None:
        """Drain the calibration buffer at end of stream."""
        if self.clusterer is None:
            return
        self.clusterer.flush()
        self._sync_promoted_labels()
        if self.config.auto_promote:
            self._promote_ready()

    def _promote_ready(self) -> None:
        for cid in self.clusterer.promotable():
            self.promote_cluster(cid)

    def promote_cluster(
        self, cluster_id: int, label: Optional[str] = None
    ) -> str:
        """Promote one cluster into the catalog; returns its label."""
        if label is None:
            label = f"{self.config.label_prefix}{cluster_id}"
        self.clusterer.promote(cluster_id, label)
        for ref in self.clusterer.members(cluster_id):
            self._label_member(ref, label)
        if self.incidents is not None:
            members = self.clusterer.members(cluster_id)
            detected = min(
                (self._detected.get(r, 0) for r in members), default=0
            )
            self.incidents.add(
                label=label,
                detected_epoch=detected,
                fingerprint=self.clusterer.medoid(cluster_id),
                diagnosis=(
                    f"auto-discovered cluster of {len(members)} "
                    "unidentified crises (pending operator review)"
                ),
                metric_indices=(
                    None
                    if self._monitor is None
                    else np.asarray(self._monitor.relevant, dtype=int)
                ),
            )
        return label

    def rename_cluster(self, cluster_id: int, label: str) -> str:
        """Replace a promoted cluster's label everywhere (no duplicate)."""
        old = self.clusterer.label(cluster_id)
        self.clusterer.rename(cluster_id, label)
        for ref in self.clusterer.members(cluster_id):
            self._label_member(ref, label)
        if self.incidents is not None and old is not None:
            self.incidents.relabel(old, label)
        return label

    def _label_member(self, number: int, label: str) -> None:
        """Label a library crisis on the engine's own authority."""
        monitor = self._monitor
        if monitor is None:
            return
        self._labeling = True
        try:
            monitor.diagnose(number, label)
        except KeyError:
            pass  # crisis aged out of the library
        finally:
            self._labeling = False

    def _sync_promoted_labels(self) -> None:
        """Re-align library labels with promoted clusters after churn.

        A merge can fold one promoted cluster into another and a split
        can strand members; this pass re-labels members of promoted
        clusters so the supervised library never disagrees with the
        catalog.  Cluster counts are small, so this is a cheap
        dictionary sweep.
        """
        monitor = self._monitor
        if monitor is None:
            return
        labels = self.clusterer.labels()
        if not labels:
            return
        by_number = {s.number: s for s in monitor._library}
        for cid, label in labels.items():
            for ref in self.clusterer.members(cid):
                stored = by_number.get(ref)
                if stored is not None and stored.label != label:
                    self._label_member(ref, label)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        if self.clusterer is None:
            return {"attached": False}
        out = dict(self.clusterer.stats())
        out["attached"] = self._monitor is not None
        out["live_sequences"] = len(self._sequences)
        return out

    # -- snapshot ----------------------------------------------------------

    def snapshot(
        self, prefix: str = ""
    ) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Engine state as ``(header, arrays)`` for embedding.

        ``prefix`` namespaces the array keys so the snapshot can ride
        inside a monitor checkpoint archive without collisions.
        """
        if self.clusterer is None:
            raise ValueError("engine is not attached")
        cl_header, cl_arrays = self.clusterer.snapshot()
        header = {
            "config": asdict(self.config),
            "clusterer": cl_header,
            "sequences": {
                str(n): list(labels)
                for n, labels in sorted(self._sequences.items())
            },
            "detected": {
                str(n): e for n, e in sorted(self._detected.items())
            },
        }
        arrays = {
            f"{prefix}{name}": array for name, array in cl_arrays.items()
        }
        return header, arrays

    @classmethod
    def from_snapshot(
        cls,
        header: dict,
        arrays,
        prefix: str = "",
        incidents=None,
    ) -> "DiscoveryEngine":
        fields = dict(header["config"])
        # Snapshots written while the index backend was a setting carry
        # a ``backend`` field; the clusterer's index is always brute.
        fields.pop("backend", None)
        config = DiscoveryConfig(**fields)
        engine = cls(config, incidents=incidents)
        engine.clusterer = OnlineClusterer.from_snapshot(
            header["clusterer"], arrays, config=config, prefix=prefix
        )
        engine._sequences = {
            int(n): list(labels)
            for n, labels in header.get("sequences", {}).items()
        }
        engine._detected = {
            int(n): int(e) for n, e in header.get("detected", {}).items()
        }
        return engine


# ---------------------------------------------------------------------------
# Standalone persistence (CLI)
# ---------------------------------------------------------------------------


def save_discovery(engine: DiscoveryEngine, path) -> None:
    """Persist an engine's discovery state to a standalone archive."""
    header, arrays = engine.snapshot()
    header = {
        "format_version": DISCOVERY_FORMAT_VERSION,
        "kind": "discovery",
        **header,
    }
    arrays = dict(arrays)
    arrays["header"] = pack_header(header)
    atomic_write_npz(path, arrays)


def load_discovery(path, incidents=None) -> DiscoveryEngine:
    """Restore an engine saved by :func:`save_discovery` (unattached).

    A damaged or foreign archive raises a
    :class:`~repro.core.atomicio.CheckpointError`.
    """
    with read_npz(path, DISCOVERY_FORMAT_VERSION, "discovery") as (
        header, data
    ):
        return DiscoveryEngine.from_snapshot(
            header, data, incidents=incidents
        )


__all__ = [
    "DISCOVERY_FORMAT_VERSION",
    "DiscoveryEngine",
    "load_discovery",
    "save_discovery",
]
