"""Online density/medoid clustering of unidentified crisis fingerprints.

The supervised identification path (Section 4.3 of the paper) can only
match crises operators have labeled; everything else collapses into the
don't-know label.  :class:`OnlineClusterer` turns that dead end into
signal: each unidentified fingerprint *joins* the cluster of its
nearest already-clustered fingerprint if that neighbor lies within the
assignment radius, or seeds a new cluster otherwise (density
semantics — discretized fingerprints of a recurring crisis type form a
tight clump, and a chain of within-radius neighbors is the same
recurring problem observed at different severities).  Neighbor lookup
goes through an exact float64 brute-force
:class:`repro.index.FingerprintIndex` over every clustered fingerprint,
so the hot-path assignment is one blocked radius query — never an
all-pairs Python scan over past crises.

Each cluster also maintains its **medoid** (the member minimizing total
distance to the others) as its catalog representative: promotions store
the medoid as the incident fingerprint, and the lifecycle rules below
are phrased over medoids.

Cluster lifecycle:

* **stability** — an evidence counter: +1 per assignment, summed on
  merge, reset to the side's member count on split.  Promotion gates on
  it (see :class:`repro.discovery.DiscoveryEngine`).
* **merge** — when a new fingerprint lands within the radius of two
  clusters it bridges them, and when churn drags two medoids within
  ``merge_fraction * radius`` of each other they attract — in both
  cases the merge commits *only if* the merged cluster would satisfy
  the split bound.
* **split** — when a member strays beyond ``split_fraction * radius``
  of its medoid, the farthest member seeds a new cluster and members
  re-partition to the closer side — *only if* the two resulting medoids
  end up farther apart than the merge bound.

The two commit guards are each other's negation band: a freshly merged
cluster cannot satisfy the split trigger, and a freshly split pair
cannot satisfy the merge trigger, so merge/split cannot oscillate on
static evidence (``tests/test_discovery_properties.py`` proves the
bound under add/remove churn).  With lifecycle rules quiescent the
partition is exactly the connected components of the radius graph —
independent of ingestion order.

When no ``assign_radius`` is configured the clusterer buffers the first
``calibration_size`` fingerprints and auto-calibrates: the radius is
the midpoint of the largest gap in the sorted pairwise distances of the
buffer (searched below the median, where the within-category distances
of a discretized fingerprint space concentrate).  The one all-pairs
computation happens exactly once, off the hot path, over a
constant-size buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DiscoveryConfig
from repro.index import FingerprintIndex, create_index


@dataclass(frozen=True)
class ClusterEvent:
    """One entry in the cluster-lifecycle audit trail.

    ``kind`` is one of ``seeded``/``assigned``/``merged``/``split``/
    ``removed``/``dissolved``/``promoted``/``renamed``; ``ref`` is the
    fingerprint reference involved (for ``merged`` it is the absorbed
    cluster id, for ``split`` the new cluster id, ``-1`` when not
    applicable).
    """

    kind: str
    cluster_id: int
    ref: int


@dataclass
class _Cluster:
    refs: List[int]
    vectors: List[np.ndarray]
    stability: int
    label: Optional[str] = None  # promoted catalog label
    medoid: Optional[np.ndarray] = None
    medoid_ref: int = -1


class OnlineClusterer:
    """Incremental density/medoid clustering over a fingerprint index.

    The index holds every clustered fingerprint keyed by its ``ref``;
    cluster membership is the ``_ref_cluster`` mapping on top of it.
    """

    def __init__(self, dim: int, config: DiscoveryConfig = DiscoveryConfig()):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.config = config
        self.radius: Optional[float] = config.assign_radius
        self._clusters: Dict[int, _Cluster] = {}
        self._ref_cluster: Dict[int, int] = {}
        self._pending: List[Tuple[int, np.ndarray]] = []
        self._next_cluster = 0
        self.events: List[ClusterEvent] = []
        self._index = self._new_index()

    def _new_index(self) -> FingerprintIndex:
        # Exact float64 brute force: assignment distances stay
        # bit-identical across snapshot/restore, and the quiescent
        # partition is exactly the radius graph's connected components,
        # which an approximate index would not guarantee.
        return create_index("brute", self.dim, dtype=np.float64)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._clusters)

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def cluster_ids(self) -> List[int]:
        return sorted(self._clusters)

    def members(self, cluster_id: int) -> List[int]:
        return list(self._clusters[cluster_id].refs)

    def medoid(self, cluster_id: int) -> np.ndarray:
        return np.array(self._clusters[cluster_id].medoid)

    def stability(self, cluster_id: int) -> int:
        return self._clusters[cluster_id].stability

    def label(self, cluster_id: int) -> Optional[str]:
        return self._clusters[cluster_id].label

    def labels(self) -> Dict[int, str]:
        """Promoted cluster labels, by cluster id."""
        return {
            cid: c.label
            for cid, c in self._clusters.items()
            if c.label is not None
        }

    def cluster_of(self, ref: int) -> Optional[int]:
        return self._ref_cluster.get(ref)

    def cluster_of_label(self, label: str) -> Optional[int]:
        for cid in sorted(self._clusters):
            if self._clusters[cid].label == label:
                return cid
        return None

    def assignments(self) -> Dict[int, int]:
        """ref -> cluster id for every clustered fingerprint."""
        return dict(self._ref_cluster)

    def partition(self) -> Dict[int, List[int]]:
        """cluster id -> sorted member refs."""
        return {
            cid: sorted(c.refs) for cid, c in sorted(self._clusters.items())
        }

    def promotable(self) -> List[int]:
        """Clusters whose evidence clears the promotion gate."""
        cfg = self.config
        return [
            cid
            for cid in sorted(self._clusters)
            if self._clusters[cid].label is None
            and self._clusters[cid].stability >= cfg.promote_stability
            and len(self._clusters[cid].refs) >= cfg.min_promote_size
        ]

    def stats(self) -> Dict[str, object]:
        """Operational summary (serving ``incidents`` op, CLI ``stats``)."""
        return {
            "radius": self.radius,
            "n_clusters": len(self._clusters),
            "n_pending": len(self._pending),
            "n_fingerprints": len(self._ref_cluster),
            "clusters": [
                {
                    "cluster": cid,
                    "size": len(c.refs),
                    "stability": c.stability,
                    "label": c.label,
                }
                for cid, c in sorted(self._clusters.items())
            ],
        }

    # -- event log ---------------------------------------------------------

    def _event(self, kind: str, cluster_id: int, ref: int = -1) -> None:
        self.events.append(ClusterEvent(kind, cluster_id, ref))
        limit = self.config.history_limit
        if len(self.events) > limit:
            del self.events[: len(self.events) - limit]

    # -- calibration -------------------------------------------------------

    def _calibrate(self) -> None:
        """Pick the assignment radius from the calibration buffer.

        One-time all-pairs pass over a constant-size buffer: the sorted
        pairwise distances of a fingerprint stream drawn from a few
        recurring categories show a gap between the within-category
        distances (small — discretized fingerprints of the same crisis
        type nearly coincide) and the between-category ones.  The radius
        lands in the middle of the largest such gap below the median.
        """
        matrix = np.stack([vec for _, vec in self._pending])
        diff = matrix[:, None, :] - matrix[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        iu = np.triu_indices(len(matrix), k=1)
        pairs = np.sort(dist[iu])
        if pairs.size == 0 or pairs[-1] == 0.0:
            radius = 1e-9
        else:
            median = float(np.median(pairs))
            # Candidate gaps whose lower edge sits at or below the
            # median: between-category pairs dominate the upper tail.
            cut = int(np.searchsorted(pairs, median, side="right"))
            lo = pairs[: max(cut, 2)]
            gaps = np.diff(lo)
            if gaps.size and float(gaps.max()) > 0.0:
                g = int(np.argmax(gaps))
                radius = float(lo[g] + lo[g + 1]) / 2.0
            else:
                radius = median / 2.0
        self.radius = max(radius * self.config.radius_scale, 1e-9)

    def flush(self) -> List[int]:
        """Calibrate (if needed) and drain the buffer in arrival order.

        Returns the cluster ids assigned to the drained fingerprints.
        Called automatically once the buffer fills; callers with a short
        stream (fewer fingerprints than ``calibration_size``) call it
        explicitly at end of stream.
        """
        if not self._pending:
            return []
        if self.radius is None:
            if len(self._pending) < 2:
                self.radius = 1.0
            else:
                self._calibrate()
        drained = self._pending
        self._pending = []
        return [self._assign(ref, vec) for ref, vec in drained]

    # -- ingestion ---------------------------------------------------------

    def ingest(self, vector: np.ndarray, ref: int) -> Optional[int]:
        """Cluster one fingerprint; returns its cluster id.

        Returns ``None`` while the fingerprint sits in the calibration
        buffer (auto-radius mode only); the buffer drains — and every
        buffered fingerprint is assigned — as soon as it holds
        ``calibration_size`` entries.
        """
        vec = np.asarray(vector, dtype=float).ravel()
        if vec.shape != (self.dim,):
            raise ValueError(
                f"fingerprint dimension mismatch: got {vec.shape[0]}, "
                f"expected {self.dim}"
            )
        if ref in self._ref_cluster or any(
            r == ref for r, _ in self._pending
        ):
            raise ValueError(f"ref {ref} already clustered")
        if self.radius is None:
            self._pending.append((int(ref), vec))
            if len(self._pending) >= self.config.calibration_size:
                self.flush()
                return self._ref_cluster.get(ref)
            return None
        return self._assign(int(ref), vec)

    def remove(self, ref: int) -> None:
        """Retract one fingerprint (evidence withdrawn)."""
        for i, (r, _) in enumerate(self._pending):
            if r == ref:
                del self._pending[i]
                return
        cid = self._ref_cluster.pop(ref, None)
        if cid is None:
            raise KeyError(f"ref {ref} is not clustered")
        self._index.remove(ref)
        cluster = self._clusters[cid]
        i = cluster.refs.index(ref)
        del cluster.refs[i]
        del cluster.vectors[i]
        if not cluster.refs:
            del self._clusters[cid]
            self._event("dissolved", cid, ref)
            return
        self._refresh_medoid(cid)
        cluster.stability = max(1, cluster.stability - 1)
        self._event("removed", cid, ref)
        cid = self._maybe_split(cid)
        self._maybe_merge(cid)

    def promote(self, cluster_id: int, label: str) -> None:
        """Mark a cluster as a promoted catalog entry."""
        if not label:
            raise ValueError("label must be non-empty")
        self._clusters[cluster_id].label = label
        self._event("promoted", cluster_id)

    def rename(self, cluster_id: int, label: str) -> None:
        """Replace a promoted cluster's label (operator diagnosis)."""
        if not label:
            raise ValueError("label must be non-empty")
        self._clusters[cluster_id].label = label
        self._event("renamed", cluster_id)

    def reinforce(self, cluster_id: int, vector: np.ndarray, ref: int) -> int:
        """Add supervised evidence straight into a known cluster.

        Used when the identification path matched a *promoted* entry:
        the fingerprint joins that cluster regardless of which medoid is
        nearest, keeping the catalog entry and the supervised library in
        lockstep.
        """
        vec = np.asarray(vector, dtype=float).ravel()
        if vec.shape != (self.dim,):
            raise ValueError("fingerprint dimension mismatch")
        if ref in self._ref_cluster:
            raise ValueError(f"ref {ref} already clustered")
        cid = self._join(cluster_id, int(ref), vec)
        cid = self._maybe_merge(cid)
        self._maybe_split(cid)
        return self._ref_cluster[int(ref)]

    # -- internals ---------------------------------------------------------

    def _assign(self, ref: int, vec: np.ndarray) -> int:
        hits = (
            self._index.query_radius(vec, self.radius)
            if len(self._index)
            else []
        )
        if hits:
            nearest = min(hits, key=lambda h: (h.distance, h.id))
            cid = self._join(self._ref_cluster[nearest.id], ref, vec)
            # The new fingerprint may bridge further clusters: same
            # density rule, so they belong together (guarded below).
            bridged = sorted(
                {self._ref_cluster[h.id] for h in hits} - {cid}
            )
            for other in bridged:
                if other in self._clusters and cid in self._clusters:
                    cid = self._merge_pair(cid, other)
            cid = self._maybe_merge(cid)
            self._maybe_split(cid)
        else:
            cid = self._next_cluster
            self._next_cluster += 1
            self._clusters[cid] = _Cluster(
                refs=[ref], vectors=[vec], stability=1,
                medoid=vec, medoid_ref=ref,
            )
            self._index.add(vec, id=ref)
            self._ref_cluster[ref] = cid
            self._event("seeded", cid, ref)
        return self._ref_cluster[ref]

    def _join(self, cid: int, ref: int, vec: np.ndarray) -> int:
        cluster = self._clusters[cid]
        cluster.refs.append(ref)
        cluster.vectors.append(vec)
        cluster.stability += 1
        self._ref_cluster[ref] = cid
        self._index.add(vec, id=ref)
        self._refresh_medoid(cid)
        self._event("assigned", cid, ref)
        return cid

    @staticmethod
    def _medoid_of(
        refs: List[int], vectors: List[np.ndarray]
    ) -> Tuple[int, np.ndarray, float]:
        """(index, medoid vector, dispersion) of a member set.

        The medoid minimizes total distance to the other members; ties
        break toward the lowest ref so the choice is independent of
        ingestion order (the permutation-invariance property rests on
        this).  Dispersion is the max member-to-medoid distance.
        """
        matrix = np.stack(vectors)
        diff = matrix[:, None, :] - matrix[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        totals = dist.sum(axis=1)
        order = sorted(range(len(refs)), key=lambda i: (totals[i], refs[i]))
        best = order[0]
        return best, matrix[best], float(dist[best].max())

    def _refresh_medoid(self, cid: int) -> None:
        cluster = self._clusters[cid]
        i, medoid, _ = self._medoid_of(cluster.refs, cluster.vectors)
        cluster.medoid = medoid
        cluster.medoid_ref = cluster.refs[i]

    def _dispersion(self, cid: int) -> float:
        cluster = self._clusters[cid]
        matrix = np.stack(cluster.vectors)
        d = np.sqrt(((matrix - cluster.medoid) ** 2).sum(axis=-1))
        return float(d.max())

    def _merge_pair(self, cid: int, other_cid: int) -> int:
        """Guarded merge of two clusters; returns the surviving id.

        Commit guard (hysteresis): the merged cluster must satisfy the
        split bound, so a merge can never be immediately undone.  When
        the guard refuses, both clusters survive and ``cid`` is
        returned unchanged.
        """
        split_bound = self.config.split_dispersion(self.radius)
        a, b = self._clusters[cid], self._clusters[other_cid]
        refs = a.refs + b.refs
        vectors = a.vectors + b.vectors
        _, _, dispersion = self._medoid_of(refs, vectors)
        if dispersion > split_bound:
            return cid  # would immediately re-split: stay apart
        keep, gone = min(cid, other_cid), max(cid, other_cid)
        absorbed = self._clusters[gone]
        target = self._clusters[keep]
        # Member lists concatenate keep-first, deterministically.
        target.refs = list(target.refs) + list(absorbed.refs)
        target.vectors = list(target.vectors) + list(absorbed.vectors)
        target.stability = a.stability + b.stability
        if target.label is None and absorbed.label is not None:
            target.label = absorbed.label
        for ref in absorbed.refs:
            self._ref_cluster[ref] = keep
        del self._clusters[gone]
        self._refresh_medoid(keep)
        self._event("merged", keep, gone)
        return keep

    def _maybe_merge(self, cid: int) -> int:
        """Merge ``cid`` with any cluster whose medoid drifted too close.

        Neighboring clusters are found through the fingerprint index: a
        medoid is itself a member, so any cluster whose medoid sits
        within the merge radius of ours has a point the radius query
        returns.  Iterates to a fixpoint — each committed merge removes
        a cluster, so the loop is bounded by the cluster count.
        """
        merge_radius = self.config.merge_radius(self.radius)
        while True:
            cluster = self._clusters[cid]
            near = {
                self._ref_cluster[h.id]
                for h in self._index.query_radius(
                    cluster.medoid, merge_radius
                )
            } - {cid}
            merged = False
            for other_cid in sorted(near):
                other = self._clusters[other_cid]
                gap = float(
                    np.linalg.norm(cluster.medoid - other.medoid)
                )
                if gap > merge_radius:
                    continue  # a stray member is close, the medoid isn't
                kept = self._merge_pair(cid, other_cid)
                if kept != cid or other_cid not in self._clusters:
                    cid = kept
                    merged = True
                    break
            if not merged:
                return cid

    def _maybe_split(self, cid: int) -> int:
        """Split ``cid`` when its dispersion exceeds the split bound.

        The farthest member (ties toward the lowest ref) seeds the new
        cluster; members re-partition to the closer medoid.  Commit
        guard (hysteresis): the two new medoids must sit farther apart
        than the merge bound, so a split can never be immediately
        re-merged.
        """
        cluster = self._clusters[cid]
        if len(cluster.refs) < 2:
            return cid
        split_bound = self.config.split_dispersion(self.radius)
        matrix = np.stack(cluster.vectors)
        dists = np.sqrt(((matrix - cluster.medoid) ** 2).sum(axis=-1))
        if float(dists.max()) <= split_bound:
            return cid
        order = sorted(
            range(len(cluster.refs)),
            key=lambda i: (-dists[i], cluster.refs[i]),
        )
        far = order[0]
        far_vec = cluster.vectors[far]
        to_far = np.sqrt(((matrix - far_vec) ** 2).sum(axis=-1))
        stay_idx = [
            i for i in range(len(cluster.refs))
            if i != far and dists[i] <= to_far[i]
        ]
        move_idx = [
            i for i in range(len(cluster.refs))
            if i == far or dists[i] > to_far[i]
        ]
        if not stay_idx or not move_idx:
            return cid
        stay_refs = [cluster.refs[i] for i in stay_idx]
        stay_vecs = [cluster.vectors[i] for i in stay_idx]
        move_refs = [cluster.refs[i] for i in move_idx]
        move_vecs = [cluster.vectors[i] for i in move_idx]
        _, medoid_a, _ = self._medoid_of(stay_refs, stay_vecs)
        _, medoid_b, _ = self._medoid_of(move_refs, move_vecs)
        gap = float(np.linalg.norm(medoid_a - medoid_b))
        if gap <= self.config.merge_radius(self.radius):
            return cid  # would immediately re-merge: stay together
        new_cid = self._next_cluster
        self._next_cluster += 1
        cluster.refs = stay_refs
        cluster.vectors = stay_vecs
        cluster.stability = len(stay_refs)
        self._refresh_medoid(cid)
        self._clusters[new_cid] = _Cluster(
            refs=move_refs, vectors=move_vecs, stability=len(move_refs),
        )
        for ref in move_refs:
            self._ref_cluster[ref] = new_cid
        self._refresh_medoid(new_cid)
        self._event("split", cid, new_cid)
        return cid

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serializable state as ``(header, arrays)``.

        Restoring through :meth:`from_snapshot` is bit-identical: member
        vectors round-trip as float64 arrays, medoids are re-derived
        from the stored ``medoid_ref`` (a member, so equality is exact),
        and the event history is replayed entry for entry.
        """
        header = {
            "dim": self.dim,
            "radius": self.radius,
            "next_cluster": self._next_cluster,
            "clusters": [
                {
                    "id": cid,
                    "refs": list(c.refs),
                    "stability": c.stability,
                    "label": c.label,
                    "medoid_ref": c.medoid_ref,
                }
                for cid, c in sorted(self._clusters.items())
            ],
            "pending_refs": [r for r, _ in self._pending],
            "events": [[e.kind, e.cluster_id, e.ref] for e in self.events],
        }
        arrays: Dict[str, np.ndarray] = {}
        for cid, c in sorted(self._clusters.items()):
            arrays[f"cluster_{cid}"] = np.stack(c.vectors).astype(np.float64)
        if self._pending:
            arrays["pending"] = np.stack(
                [v for _, v in self._pending]
            ).astype(np.float64)
        return header, arrays

    @classmethod
    def from_snapshot(
        cls,
        header: dict,
        arrays: Dict[str, np.ndarray],
        config: DiscoveryConfig = DiscoveryConfig(),
        prefix: str = "",
    ) -> "OnlineClusterer":
        clusterer = cls(int(header["dim"]), config)
        radius = header["radius"]
        clusterer.radius = None if radius is None else float(radius)
        clusterer._next_cluster = int(header["next_cluster"])
        for meta in header["clusters"]:
            cid = int(meta["id"])
            matrix = np.asarray(arrays[f"{prefix}cluster_{cid}"], dtype=float)
            refs = [int(r) for r in meta["refs"]]
            cluster = _Cluster(
                refs=refs,
                vectors=[matrix[i] for i in range(len(refs))],
                stability=int(meta["stability"]),
                label=meta["label"],
                medoid_ref=int(meta["medoid_ref"]),
            )
            i = refs.index(cluster.medoid_ref)
            cluster.medoid = cluster.vectors[i]
            clusterer._clusters[cid] = cluster
            for j, ref in enumerate(refs):
                clusterer._index.add(cluster.vectors[j], id=ref)
                clusterer._ref_cluster[ref] = cid
        pending_refs = [int(r) for r in header.get("pending_refs", [])]
        if pending_refs:
            matrix = np.asarray(arrays[f"{prefix}pending"], dtype=float)
            clusterer._pending = [
                (ref, matrix[i]) for i, ref in enumerate(pending_refs)
            ]
        clusterer.events = [
            ClusterEvent(str(kind), int(cid), int(ref))
            for kind, cid, ref in header.get("events", [])
        ]
        return clusterer


__all__ = ["ClusterEvent", "OnlineClusterer"]
