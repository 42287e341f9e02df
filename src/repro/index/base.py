"""The fingerprint-index API.

The paper's identification step (Section 3.5) is a nearest-neighbor
search over crisis fingerprints.  At 20 crises a linear scan is fine; at
fleet scale (every crisis across every cluster, plus synthetic variants)
identification must be sub-linear and incrementally updatable.  This
package provides that subsystem: a single :class:`FingerprintIndex`
interface with two interchangeable backends —

* :class:`~repro.index.brute.BruteForceIndex` — exact, vectorized,
  blocked Gram-matrix distances over a contiguous matrix.  The default:
  bit-identical to the historical Python-loop scan.
* :class:`~repro.index.lsh.LSHIndex` — approximate, seeded p-stable
  locality-sensitive hashing for sub-linear matching at scale, with a
  measured recall contract (see ``docs/index.md``).

All backends share tie-breaking semantics: neighbors sort by
``(distance, id)``, so equal distances resolve to the lowest id.  This
makes exact backends deterministic drop-ins for the old scans, whose
stable sorts preserved insertion order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Neighbor:
    """One query hit: vector id, exact L2 distance, optional payload."""

    id: int
    distance: float
    payload: Optional[str] = None


class FingerprintIndex(ABC):
    """Mutable nearest-neighbor index over fingerprint vectors.

    Vectors are identified by a caller-chosen (or auto-assigned)
    non-negative integer id and may carry a string payload (typically a
    crisis label).  All distances returned to callers are *exact* L2
    distances recomputed against the stored vectors in float64 —
    approximate backends only approximate the candidate set, never the
    reported distance.
    """

    #: Registry name of the backend ("brute", "lsh").
    backend: str = ""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    # -- mutation ------------------------------------------------------------

    @abstractmethod
    def add(
        self,
        vector: np.ndarray,
        id: Optional[int] = None,
        payload: Optional[str] = None,
    ) -> int:
        """Insert a vector; returns its id (auto-assigned when omitted)."""

    @abstractmethod
    def update(self, id: int, vector: np.ndarray) -> None:
        """Replace the vector stored under ``id``."""

    @abstractmethod
    def remove(self, id: int) -> None:
        """Delete the vector stored under ``id``."""

    def add_batch(
        self,
        vectors: Sequence[np.ndarray],
        ids: Optional[Sequence[int]] = None,
        payloads: Optional[Sequence[Optional[str]]] = None,
    ) -> List[int]:
        """Insert many vectors; returns their ids."""
        if ids is not None and len(ids) != len(vectors):
            raise ValueError("ids length mismatch")
        if payloads is not None and len(payloads) != len(vectors):
            raise ValueError("payloads length mismatch")
        out = []
        for i, vec in enumerate(vectors):
            out.append(
                self.add(
                    vec,
                    id=None if ids is None else ids[i],
                    payload=None if payloads is None else payloads[i],
                )
            )
        return out

    # -- queries -------------------------------------------------------------

    @abstractmethod
    def query(self, vector: np.ndarray, k: int = 1) -> List[Neighbor]:
        """The up-to-``k`` nearest stored vectors, sorted by (distance, id)."""

    @abstractmethod
    def query_radius(
        self, vector: np.ndarray, radius: float
    ) -> List[Neighbor]:
        """All stored vectors within ``radius`` (inclusive), sorted."""

    def query_batch(
        self, vectors: Sequence[np.ndarray], k: int = 1
    ) -> List[List[Neighbor]]:
        """k-NN for many queries at once (backends may vectorize)."""
        return [self.query(v, k=k) for v in vectors]

    # -- introspection -------------------------------------------------------

    @abstractmethod
    def __len__(self) -> int:
        ...

    @abstractmethod
    def __contains__(self, id: int) -> bool:
        ...

    @abstractmethod
    def ids(self) -> List[int]:
        """All stored ids, ascending."""

    @abstractmethod
    def payload(self, id: int) -> Optional[str]:
        """The payload stored with ``id``."""

    @abstractmethod
    def vector(self, id: int) -> np.ndarray:
        """The stored vector for ``id`` as float64."""

    def stats(self) -> Dict[str, object]:
        """Operational counters (backends extend this)."""
        return {"backend": self.backend, "size": len(self), "dim": self.dim}

    # -- snapshot ------------------------------------------------------------

    @abstractmethod
    def snapshot(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serializable state as ``(header, arrays)``.

        ``header`` must be JSON-encodable and include every constructor
        parameter needed by :meth:`from_snapshot`; ``arrays`` holds the
        numeric payloads.  :mod:`repro.index.snapshot` wraps this in the
        atomic ``.npz`` format shared with :mod:`repro.core.checkpoint`.
        """

    @classmethod
    @abstractmethod
    def from_snapshot(
        cls, header: dict, arrays: Dict[str, np.ndarray]
    ) -> "FingerprintIndex":
        """Rebuild an index from :meth:`snapshot` output."""

    # -- shared validation ---------------------------------------------------

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vec = np.asarray(vector, dtype=float).ravel()
        if vec.shape != (self.dim,):
            raise ValueError(
                f"fingerprint dimension mismatch: got {vec.shape[0]}, "
                f"index holds {self.dim}-dimensional vectors"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("fingerprint contains non-finite values")
        return vec

    @staticmethod
    def _check_k(k: int) -> int:
        if k <= 0:
            raise ValueError("k must be positive")
        return int(k)


_BACKENDS: Dict[str, type] = {}


def register_backend(cls):
    """Class decorator: register an index backend under ``cls.backend``."""
    if not cls.backend:
        raise ValueError("backend name must be set")
    _BACKENDS[cls.backend] = cls
    return cls


def backend_names() -> List[str]:
    return sorted(_BACKENDS)


def backend_class(name: str) -> type:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown index backend {name!r} "
            f"(available: {', '.join(backend_names())})"
        ) from None


def create_index(backend: str, dim: int, **kwargs) -> FingerprintIndex:
    """Instantiate a backend by registry name."""
    return backend_class(backend)(dim, **kwargs)


__all__ = [
    "FingerprintIndex",
    "Neighbor",
    "backend_class",
    "backend_names",
    "create_index",
    "register_backend",
]
