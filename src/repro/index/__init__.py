"""Fingerprint index & matching engine: sub-linear crisis identification.

See :mod:`repro.index.base` for the API and ``docs/index.md`` for the
backend selection guide.
"""

from repro.index.base import (
    FingerprintIndex,
    Neighbor,
    backend_class,
    backend_names,
    create_index,
)
from repro.index.brute import BruteForceIndex
from repro.index.lsh import LSHIndex
from repro.index.snapshot import (
    INDEX_FORMAT_VERSION,
    index_from_arrays,
    index_to_arrays,
    load_index,
    save_index,
)

__all__ = [
    "BruteForceIndex",
    "FingerprintIndex",
    "INDEX_FORMAT_VERSION",
    "LSHIndex",
    "Neighbor",
    "backend_class",
    "backend_names",
    "create_index",
    "index_from_arrays",
    "index_to_arrays",
    "load_index",
    "save_index",
]
