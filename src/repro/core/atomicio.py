"""Atomic ``.npz`` archives with a JSON header.

The persistence idiom shared by every saved artifact (monitor and
pipeline checkpoints, traces, indexes, discovery and forecast state):
array payloads plus a JSON header packed into a ``uint8`` array under
the key ``"header"``, written to a temporary file in the destination
directory, fsynced, and renamed over the target.  A crash mid-write
leaves the previous archive intact, never a torn file.

Members are stored, not deflated (``np.savez``).  Deflate shrinks these
float64 arrays only 1.1-1.7x and makes a monitor checkpoint 5-8x slower
to save, and a serving tenant saves one every few epochs.  Archives
written deflated, as every archive was before, load unchanged, and the
zip CRC-32 of each member still checks every byte the reader reads.

:func:`read_npz` is the one reader.  It checks the header's format
version (and kind, where a format has one) and turns damage into
:class:`CheckpointCorruptError`, so every loader fails the same typed
way on a truncated, garbled or foreign file.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import struct
import tempfile
import zipfile
import zlib
from typing import Collection, Dict, Iterator, Optional, Tuple, Union

import numpy as np


class CheckpointError(ValueError):
    """Base class for archive load failures.

    Subclasses ``ValueError`` so pre-existing callers that catch
    ``ValueError`` around a restore keep working.
    """


class CheckpointCorruptError(CheckpointError):
    """The archive is damaged: torn write, truncation, or garbage.

    Raised instead of the raw ``zipfile``/``KeyError``/``struct`` errors a
    damaged ``.npz`` would otherwise surface, so callers can distinguish
    "restore from an older snapshot" from a programming error.
    """


class CheckpointFormatError(CheckpointError):
    """The archive is intact but not a format this code can read."""


#: Exceptions that mean the archive's bytes are damaged, raised either
#: opening it or reading a member: a bad zip directory or CRC, a garbled
#: compression method, a broken deflate stream (in an archive written
#: deflated), a seek past either end, or a garbled ``.npy`` header.
_DAMAGE_ERRORS = (
    zipfile.BadZipFile,
    NotImplementedError,
    zlib.error,
    struct.error,
    EOFError,
    OSError,
    ValueError,
)


def fsync_dir(path) -> None:
    """fsync a directory so a rename within it is itself durable.

    A rename is atomic the moment it happens, but only survives a power
    loss once the directory entry reaches disk.  Filesystems that do not
    support opening directories (or exotic mounts) are ignored — the
    rename still happened, durability is merely best-effort there.
    """
    try:
        fd = os.open(pathlib.Path(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_npz(path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically: tmp file + fsync + rename + dir fsync.

    Members are stored uncompressed (see the module docstring).
    """
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or pathlib.Path("."), suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent or pathlib.Path("."))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def pack_header(header: dict) -> np.ndarray:
    """JSON-encode a header dict into a ``uint8`` array payload."""
    # numpy scalars (e.g. a threshold held as np.float64) serialize via .item()
    payload = json.dumps(header, default=lambda o: o.item())
    return np.frombuffer(payload.encode("utf-8"), dtype=np.uint8)


def unpack_header(data) -> dict:
    """Decode the ``"header"`` array of a loaded archive."""
    return json.loads(bytes(data["header"]).decode("utf-8"))


class _Members:
    """An open archive's members, each checked to be an array on read.

    ``NpzFile`` hands back raw bytes for a member that does not start
    with the ``.npy`` magic, which is what a zeroed size and CRC in the
    zip directory produce, so a damaged archive would otherwise give
    callers ``b""`` where they index an array.
    """

    def __init__(self, npz: np.lib.npyio.NpzFile):
        self._npz = npz

    def keys(self):
        return self._npz.keys()

    def __contains__(self, key: str) -> bool:
        return key in self._npz

    def __getitem__(self, key: str) -> np.ndarray:
        value = self._npz[key]
        if not isinstance(value, np.ndarray):
            raise CheckpointCorruptError(f"member {key!r} is not an array")
        return value


def _checked_header(
    data, path, version: Union[int, Collection[int]], kind: Optional[str]
) -> dict:
    # A missing or undecodable header raises KeyError or ValueError,
    # which read_npz maps like any other damage.
    header = unpack_header(data)
    if not isinstance(header, dict):
        raise CheckpointCorruptError(
            f"{path} header is a {type(header).__name__}, not an object"
        )
    found = header.get("format_version")
    accepted = (version,) if isinstance(version, int) else tuple(version)
    if found not in accepted:
        raise CheckpointFormatError(
            f"{path} has unsupported format {found!r} (expected "
            f"{' or '.join(map(str, accepted))})"
        )
    if kind is not None and header.get("kind") != kind:
        raise CheckpointFormatError(
            f"{path} holds a {header.get('kind')!r}, expected {kind!r}"
        )
    return header


@contextlib.contextmanager
def read_npz(
    path, version: Union[int, Collection[int]], kind: Optional[str] = None
) -> Iterator[Tuple[dict, _Members]]:
    """Open an archive and check its header; yields ``(header, data)``.

    ``version`` (one version, or the versions a reader accepts) must
    hold the header's ``format_version``, and ``kind``,
    when given, its ``kind``; a mismatch raises
    :class:`CheckpointFormatError`.  A missing file still raises
    ``FileNotFoundError`` (the caller may treat that as "nothing saved
    yet").  Anything unreadable inside the file becomes
    :class:`CheckpointCorruptError` — including a ``KeyError`` or a
    damaged member raised while the ``with`` body reads the archive.
    ``data`` supports ``data[key]`` (always an array), ``key in data``
    and ``data.keys()``.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        data = np.load(path, allow_pickle=False)
    except _DAMAGE_ERRORS as exc:
        raise CheckpointCorruptError(
            f"{path} is not a readable archive: {exc}"
        ) from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointCorruptError(f"{path} is a bare array, not an archive")
    with data:
        members = _Members(data)
        try:
            yield _checked_header(members, path, version, kind), members
        except CheckpointError:
            raise
        except KeyError as exc:
            raise CheckpointCorruptError(
                f"{path} is missing required entry {exc}"
            ) from exc
        except _DAMAGE_ERRORS as exc:
            raise CheckpointCorruptError(
                f"{path} could not be read: {exc}"
            ) from exc


__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "atomic_write_npz",
    "fsync_dir",
    "pack_header",
    "read_npz",
    "unpack_header",
]
