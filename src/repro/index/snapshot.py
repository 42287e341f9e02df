"""Persist fingerprint indexes as atomic ``.npz`` archives.

The archive format follows the :mod:`repro.core.atomicio` idiom used by
the streaming checkpoints: array payloads plus a JSON header carrying
the backend name and constructor parameters, written atomically.  The
same helpers take a key prefix, so a snapshot can also ride inside
another archive.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.atomicio import (
    atomic_write_npz,
    pack_header,
    read_npz,
    unpack_header,
)
from repro.index.base import FingerprintIndex, backend_class

#: Format version embedded in every standalone index archive.
INDEX_FORMAT_VERSION = 1

#: Retired backends and the live backend their archives load as.  The
#: k-d tree was exact over the same :class:`~repro.index.store.VectorStore`
#: payload as ``brute``, so brute restores it with the same answers.
_RETIRED_BACKENDS = {"kdtree": "brute"}


def live_backend(name: str) -> str:
    """The backend an archive written under ``name`` loads as."""
    return _RETIRED_BACKENDS.get(name, name)


def index_to_arrays(
    index: FingerprintIndex, prefix: str = ""
) -> Dict[str, np.ndarray]:
    """Flatten an index snapshot into prefixed arrays (header included).

    Used both for standalone archives (empty prefix) and for embedding a
    snapshot inside another archive.
    """
    header, arrays = index.snapshot()
    out = {f"{prefix}header": pack_header(header)}
    for key, value in arrays.items():
        out[f"{prefix}{key}"] = value
    return out


def index_from_arrays(data, prefix: str = "") -> FingerprintIndex:
    """Inverse of :func:`index_to_arrays`."""
    header = unpack_header({"header": data[f"{prefix}header"]})
    arrays = {
        key[len(prefix):]: data[key]
        for key in getattr(data, "files", data.keys())
        if key.startswith(prefix) and key != f"{prefix}header"
    }
    backend = live_backend(header["backend"])
    return backend_class(backend).from_snapshot(header, arrays)


def save_index(index: FingerprintIndex, path) -> None:
    """Write a standalone index archive atomically."""
    arrays = index_to_arrays(index)
    header = unpack_header({"header": arrays["header"]})
    header["format_version"] = INDEX_FORMAT_VERSION
    arrays["header"] = pack_header(header)
    atomic_write_npz(path, arrays)


def load_index(path) -> FingerprintIndex:
    """Restore an index written by :func:`save_index`.

    A damaged or foreign archive raises a
    :class:`~repro.core.atomicio.CheckpointError`.
    """
    with read_npz(path, INDEX_FORMAT_VERSION) as (_, data):
        return index_from_arrays(data)


__all__ = [
    "INDEX_FORMAT_VERSION",
    "index_from_arrays",
    "index_to_arrays",
    "live_backend",
    "load_index",
    "save_index",
]
