"""Every archive loader fails typed on damaged bytes.

Five artifacts persist as atomic ``.npz`` archives and load through the
one reader, :func:`repro.core.atomicio.read_npz`: monitor checkpoints,
forecast models, discovery state, fingerprint indexes and traces.  A
loader handed a truncated, bit-flipped or zeroed copy of its archive
either returns (the damage missed everything it reads) or raises a
:class:`~repro.core.atomicio.CheckpointError` — never a raw
``zipfile``/``zlib``/numpy error, so callers such as a tenant seeded
from ``--forecast-model`` can tell "damaged file" from a bug.

The writer stores members uncompressed; archives written before that
were deflated and must keep loading, so the fuzz damages both forms,
and the loaders (replay pipeline included) must load a deflated
archive to the same state as a stored one.

A monitor checkpoint is a head archive plus segment files beside it; a
damaged head is fuzzed with its segments intact, and the segments are
fuzzed under an intact head.  Damage inside a segment's committed bytes
is always :class:`~repro.core.atomicio.CheckpointCorruptError`; bytes
past them are a torn tail and load as if absent.
"""

import io
import os
import shutil
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.config import (
    DiscoveryConfig,
    FingerprintingConfig,
    ForecastConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.core.atomicio import (
    CheckpointCorruptError,
    CheckpointError,
    unpack_header,
)
from repro.core.checkpoint import (
    load_monitor,
    load_pipeline,
    save_monitor,
    save_pipeline,
)
from repro.core.pipeline import FingerprintPipeline
from repro.core.streaming import CrisisEnded, StreamingCrisisMonitor
from repro.datacenter.sla import KPIDefinition, SLAPolicy
from repro.datacenter.trace import DatacenterTrace
from repro.discovery import (
    DiscoveryEngine,
    OnlineClusterer,
    load_discovery,
    save_discovery,
)
from repro.forecast import ForecastEngine, load_forecast, save_forecast
from repro.index import BruteForceIndex, load_index, save_index
from repro.persistence import load_trace, save_trace


def _monitor():
    rng = np.random.default_rng(5)
    monitor = StreamingCrisisMonitor(n_metrics=4, relevant_metrics=[0, 1])
    monitor.attach_forecast(ForecastEngine(ForecastConfig()))
    for _ in range(12):
        monitor.ingest(np.sort(rng.normal(size=(4, 3)), axis=1), 0.0)
    return monitor


def _monitor_with_library():
    """A monitor with a stored, diagnosed library and a live crisis."""
    rng = np.random.default_rng(8)
    monitor = StreamingCrisisMonitor(
        n_metrics=4, relevant_metrics=[0, 1],
        threshold_refresh_epochs=4, min_history_epochs=6,
    )
    for _ in range(12):
        monitor.ingest(np.sort(rng.normal(size=(4, 3)), axis=1), 0.0)
    for i in range(4):
        for fraction in (0.5, 0.5, 0.0, 0.0):
            for event in monitor.ingest(
                np.sort(rng.normal(size=(4, 3)), axis=1) + 3.0 * fraction,
                fraction,
            ):
                if isinstance(event, CrisisEnded):
                    monitor.diagnose(event.crisis_number, f"T{i % 2}")
    monitor.ingest(np.sort(rng.normal(size=(4, 3)), axis=1) + 3.0, 0.5)
    return monitor


def segment_names(head) -> list:
    """The segment files a monitor head names, with committed sizes."""
    with np.load(head, allow_pickle=False) as data:
        seg = unpack_header(data)["segments"]
    g = seg["generation"]
    names = [(f"{head.name}.{g}.e{j}.seg", size) for j, size in seg["epochs"]]
    if seg["crises"]:
        names.append((f"{head.name}.{g}.crises.seg", seg["crises"]))
    return names


def read_segments(head):
    """A monitor head's header and its segments' records, parsed from the
    documented layout independently of the loader: ``(header, [(first
    epoch, rows, anomalous flags)], [(crisis number, window)])``.  Every
    record must pass its CRC."""
    with np.load(head, allow_pickle=False) as data:
        header = unpack_header(data)
    shape = (header["n_metrics"], header["n_quantiles"])

    def payloads(name, size):
        blob = (head.parent / name).read_bytes()[:size]
        at = 0
        while at < len(blob):
            length, crc = struct.unpack_from("<II", blob, at)
            payload = blob[at + 8:at + 8 + length]
            assert len(payload) == length and zlib.crc32(payload) == crc
            yield payload
            at += 8 + length

    epochs, crises = [], []
    for name, size in segment_names(head):
        for payload in payloads(name, size):
            first, n = struct.unpack_from("<qI", payload)
            body = np.frombuffer(payload, "<f8", offset=12 + n * (
                not name.endswith("crises.seg")
            ))
            if name.endswith("crises.seg"):
                crises.append((first, body.reshape(n, *shape)))
            else:
                flags = np.frombuffer(payload, np.uint8, n, 12)
                epochs.append((first, body.reshape(n, *shape),
                               flags.astype(bool)))
    return header, epochs, crises


def copy_checkpoint(src, dst) -> None:
    """Copy a monitor checkpoint, head and segments, to head ``dst``."""
    shutil.copyfile(src, dst)
    for name, _ in segment_names(src):
        shutil.copyfile(src.parent / name,
                        dst.with_name(dst.name + name[len(src.name):]))


def _discovery():
    engine = DiscoveryEngine(DiscoveryConfig(assign_radius=1.0))
    engine.clusterer = OnlineClusterer(2, engine.config)
    for i, x in enumerate((0.0, 0.2, 3.0)):
        engine.clusterer.ingest(np.array([x, 1.0]), ref=i)
    return engine


def _index():
    index = BruteForceIndex(6, dtype=np.float64)
    vectors = np.random.default_rng(6).normal(size=(20, 6))
    index.add_batch(vectors, payloads=[f"p{i}" for i in range(20)])
    return index


def _trace():
    rng = np.random.default_rng(7)
    return DatacenterTrace(
        metric_names=["a", "b", "c"],
        quantile_levels=(0.25, 0.5, 0.95),
        quantiles=np.sort(rng.normal(size=(40, 3, 3)), axis=2),
        anomalous=rng.random(40) < 0.1,
        kpi_violation_fraction=rng.random((40, 1)),
        sla=SLAPolicy(kpis=(KPIDefinition("a", 0, 1.0),)),
        n_machines=8,
    )


PIPELINE_CONFIG = FingerprintingConfig(
    selection=SelectionConfig(n_relevant=20),
    thresholds=ThresholdConfig(window_days=30),
)


def _pipeline(trace):
    pipe = FingerprintPipeline(trace, PIPELINE_CONFIG)
    for crisis in trace.detected_crises[:3]:
        pipe.observe(crisis)
        pipe.refresh(crisis.detected_epoch)
        pipe.confirm(crisis)
    pipe.update_identification_threshold()
    return pipe


#: kind -> (build a small object, save it to a path, load a path)
KINDS = {
    "monitor": (_monitor, save_monitor, load_monitor),
    "forecast": (lambda: _monitor().forecast, save_forecast, load_forecast),
    "discovery": (_discovery, save_discovery, load_discovery),
    "index": (_index, save_index, load_index),
    "trace": (_trace, save_trace, load_trace),
}


def write_deflated(save, *args):
    """Run ``save`` with the writer every archive had before members
    were stored: ``np.savez_compressed`` in place of ``np.savez``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "savez", np.savez_compressed)
        save(*args)


def compress_types(path) -> set:
    with zipfile.ZipFile(path) as zf:
        return {info.compress_type for info in zf.infolist()}


def member_bytes(path) -> list:
    """Each member's name and uncompressed bytes, in archive order."""
    with zipfile.ZipFile(path) as zf:
        return [(info.filename, zf.read(info)) for info in zf.infolist()]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Each kind's intact archive, stored and deflated, checked to load."""
    root = tmp_path_factory.mktemp("archives")
    out = {}
    for kind, (build, save, load) in KINDS.items():
        out[kind] = {
            "stored": root / f"{kind}.npz",
            "deflated": root / f"{kind}-deflated.npz",
        }
        save(build(), out[kind]["stored"])
        write_deflated(save, build(), out[kind]["deflated"])
        for path in out[kind].values():
            load(path)
    return out


def _damage(data: bytes, how: str, at: float, width: int) -> bytes:
    cut = int(at * len(data))
    if how == "truncate":
        return data[:cut]
    out = bytearray(data)
    end = min(cut + width, len(out))
    for i in range(cut, end):
        out[i] = out[i] ^ 0xFF if how == "flip" else 0
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(
    encoding=st.sampled_from(["stored", "deflated"]),
    how=st.sampled_from(["truncate", "flip", "zero"]),
    at=st.floats(min_value=0.0, max_value=0.999),
    width=st.integers(min_value=1, max_value=16),
)
@example(encoding="stored", how="truncate", at=0.5, width=1)
@example(encoding="stored", how="zero", at=0.0, width=16)
@example(encoding="deflated", how="truncate", at=0.5, width=1)
@example(encoding="deflated", how="zero", at=0.0, width=16)
@settings(max_examples=60, deadline=None)
def test_damaged_archive_loads_or_raises_typed(
    pristine, kind, encoding, how, at, width
):
    source = pristine[kind][encoding]
    path = source.with_name(f"damaged-{kind}.npz")
    if kind == "monitor":
        copy_checkpoint(source, path)
    path.write_bytes(_damage(source.read_bytes(), how, at, width))
    try:
        KINDS[kind][2](path)
    except CheckpointError:
        pass


def member_data_spans(blob: bytes):
    """``(start, end)`` of every member's data bytes in a zip archive."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        infos = zf.infolist()
    spans = []
    for info in infos:
        # A local file header is 30 fixed bytes, then the name and the
        # extra field, whose lengths sit at offsets 26 and 28.
        name_len, extra_len = struct.unpack_from(
            "<HH", blob, info.header_offset + 26
        )
        start = info.header_offset + 30 + name_len + extra_len
        spans.append((start, start + info.compress_size))
    return spans


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(
    member=st.integers(min_value=0, max_value=10_000),
    at=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(member=0, at=0.0)
@example(member=1, at=0.0)
@example(member=0, at=0.9999)
@settings(max_examples=40, deadline=None)
def test_flipped_member_byte_is_corrupt(pristine, kind, member, at):
    # A stored member has no deflate stream to break, so the zip CRC-32
    # (or the .npy header parse) is what must catch a flipped byte.
    source = pristine[kind]["stored"]
    blob = bytearray(source.read_bytes())
    spans = member_data_spans(bytes(blob))
    start, end = spans[member % len(spans)]
    blob[start + int(at * (end - start))] ^= 0xFF
    path = source.with_name(f"flipped-{kind}.npz")
    if kind == "monitor":
        copy_checkpoint(source, path)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorruptError):
        KINDS[kind][2](path)


@pytest.fixture(scope="module")
def segmented(tmp_path_factory):
    """A monitor checkpoint with epoch and crisis segments."""
    root = tmp_path_factory.mktemp("segments")
    monitor = _monitor_with_library()
    head = root / "monitor.npz"
    save_monitor(monitor, head)
    names = segment_names(head)
    assert any(n.endswith("crises.seg") for n, _ in names)
    return head, monitor


def assert_same_monitor(got, want):
    np.testing.assert_array_equal(got.store.values(), want.store.values())
    np.testing.assert_array_equal(got.store.anomalous_mask(),
                                  want.store.anomalous_mask())
    if want.thresholds is None:
        assert got.thresholds is None
    else:
        np.testing.assert_array_equal(got.thresholds.cold,
                                      want.thresholds.cold)
        np.testing.assert_array_equal(got.thresholds.hot,
                                      want.thresholds.hot)
    assert len(got.store) == len(want.store)
    assert got.library_labels == want.library_labels
    for a, b in zip(got._library, want._library):
        np.testing.assert_array_equal(a.quantile_window, b.quantile_window)


@given(
    segment=st.integers(min_value=0, max_value=100),
    how=st.sampled_from(["truncate", "flip", "zero"]),
    at=st.floats(min_value=0.0, max_value=0.999),
    width=st.integers(min_value=1, max_value=16),
)
@example(segment=0, how="truncate", at=0.0, width=1)
@example(segment=1, how="zero", at=0.0, width=8)
@settings(max_examples=60, deadline=None)
def test_damaged_segment_is_corrupt(segmented, segment, how, at, width):
    source, _ = segmented
    head = source.with_name("damaged-segments.npz")
    copy_checkpoint(source, head)
    name, size = segment_names(head)[segment % len(segment_names(head))]
    file = head.with_name(name)
    blob = file.read_bytes()
    assert len(blob) == size
    damaged = _damage(blob, how, at, width)
    assume(damaged != blob)  # zeroing bytes that already are zero
    file.write_bytes(damaged)
    with pytest.raises(CheckpointCorruptError):
        load_monitor(head)


@pytest.mark.parametrize("which", ["epochs", "crises"])
def test_missing_segment_is_corrupt(segmented, which):
    source, _ = segmented
    head = source.with_name(f"missing-{which}.npz")
    copy_checkpoint(source, head)
    name = next(n for n, _ in segment_names(head)
                if n.endswith("crises.seg") == (which == "crises"))
    head.with_name(name).unlink()
    with pytest.raises(CheckpointCorruptError, match="segment"):
        load_monitor(head)


@given(tail=st.binary(min_size=1, max_size=64))
@example(tail=struct.pack("<II", 12, 0))
@settings(max_examples=30, deadline=None)
def test_bytes_past_the_committed_length_are_a_torn_tail(segmented, tail):
    source, monitor = segmented
    head = source.with_name("torn.npz")
    copy_checkpoint(source, head)
    for name, _ in segment_names(head):
        with open(head.with_name(name), "ab") as fh:
            fh.write(tail)
    assert_same_monitor(load_monitor(head), monitor)


@pytest.fixture(scope="module")
def all_kinds(small_trace):
    """KINDS plus the replay pipeline, which saves and loads against a
    trace."""
    return {
        **KINDS,
        "pipeline": (
            lambda: _pipeline(small_trace),
            save_pipeline,
            lambda p: load_pipeline(p, small_trace, PIPELINE_CONFIG),
        ),
    }


@pytest.mark.parametrize("kind", sorted([*KINDS, "pipeline"]))
def test_writer_stores_every_member(tmp_path, all_kinds, kind):
    build, save, load = all_kinds[kind]
    path = tmp_path / f"{kind}.npz"
    save(build(), path)
    assert compress_types(path) == {zipfile.ZIP_STORED}
    load(path)


@pytest.mark.parametrize("kind", sorted([*KINDS, "pipeline"]))
def test_deflated_archive_loads_equal(tmp_path, all_kinds, kind):
    build, save, load = all_kinds[kind]
    stored, deflated = tmp_path / "stored.npz", tmp_path / "deflated.npz"
    save(build(), stored)
    write_deflated(save, build(), deflated)
    assert compress_types(deflated) == {zipfile.ZIP_DEFLATED}
    assert member_bytes(deflated) == member_bytes(stored)
    # What each form loads to, written back, is the same archive.
    for path in (stored, deflated):
        save(load(path), tmp_path / f"resaved-{path.name}")
    assert member_bytes(tmp_path / "resaved-deflated.npz") == member_bytes(
        tmp_path / "resaved-stored.npz"
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_archive_is_corrupt(tmp_path, kind):
    path = tmp_path / "not.npz"
    path.write_bytes(b"this is not an npz archive at all")
    with pytest.raises(CheckpointCorruptError):
        KINDS[kind][2](path)
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))  # a bare .npy array, not an archive
    with pytest.raises(CheckpointCorruptError):
        KINDS[kind][2](path)


def test_member_that_is_not_an_array_is_corrupt(tmp_path):
    # A zeroed size and CRC in the zip directory read back as an empty
    # member, which numpy returns as bytes instead of an array.
    path = tmp_path / "index.npz"
    save_index(_index(), path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    with zipfile.ZipFile(path, "w") as zf:
        for key, value in arrays.items():
            buf = io.BytesIO()
            if key != "vectors":
                np.save(buf, value)
            zf.writestr(f"{key}.npy", buf.getvalue())
    with pytest.raises(CheckpointCorruptError, match="not an array"):
        load_index(path)


def test_failed_save_keeps_previous_trace(tmp_path, monkeypatch):
    path = tmp_path / "trace.npz"
    save_trace(_trace(), path)
    before = path.read_bytes()
    real = np.lib.format.write_array
    written = []

    def disk_fills(fp, array, *args, **kwargs):
        # The first member lands, the second hits a full disk.
        if written:
            raise OSError("No space left on device")
        written.append(array)
        return real(fp, array, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", disk_fills)
    with pytest.raises(OSError):
        save_trace(_trace(), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["trace.npz"]
    np.testing.assert_array_equal(
        load_trace(path).quantiles, _trace().quantiles
    )
