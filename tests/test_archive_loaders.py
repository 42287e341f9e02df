"""Every archive loader fails typed on damaged bytes.

Five artifacts persist as atomic ``.npz`` archives and load through the
one reader, :func:`repro.core.atomicio.read_npz`: monitor checkpoints,
forecast models, discovery state, fingerprint indexes and traces.  A
loader handed a truncated, bit-flipped or zeroed copy of its archive
either returns (the damage missed everything it reads) or raises a
:class:`~repro.core.atomicio.CheckpointError` — never a raw
``zipfile``/``zlib``/numpy error, so callers such as a tenant seeded
from ``--forecast-model`` can tell "damaged file" from a bug.
"""

import io
import os
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DiscoveryConfig, ForecastConfig
from repro.core.atomicio import CheckpointCorruptError, CheckpointError
from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.streaming import StreamingCrisisMonitor
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


#: kind -> (write a small archive to a path, load one)
KINDS = {
    "monitor": (lambda p: save_monitor(_monitor(), p), load_monitor),
    "forecast": (lambda p: save_forecast(_monitor().forecast, p),
                 load_forecast),
    "discovery": (lambda p: save_discovery(_discovery(), p), load_discovery),
    "index": (lambda p: save_index(_index(), p), load_index),
    "trace": (lambda p: save_trace(_trace(), p), load_trace),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Each kind's intact archive, checked to load."""
    root = tmp_path_factory.mktemp("archives")
    out = {}
    for kind, (save, load) in KINDS.items():
        out[kind] = root / f"{kind}.npz"
        save(out[kind])
        load(out[kind])
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
    how=st.sampled_from(["truncate", "flip", "zero"]),
    at=st.floats(min_value=0.0, max_value=0.999),
    width=st.integers(min_value=1, max_value=16),
)
@example(how="truncate", at=0.5, width=1)
@example(how="zero", at=0.0, width=16)
@settings(max_examples=60, deadline=None)
def test_damaged_archive_loads_or_raises_typed(pristine, kind, how, at, width):
    path = pristine[kind].with_name(f"damaged-{kind}.npz")
    path.write_bytes(_damage(pristine[kind].read_bytes(), how, at, width))
    try:
        KINDS[kind][1](path)
    except CheckpointError:
        pass


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_archive_is_corrupt(tmp_path, kind):
    path = tmp_path / "not.npz"
    path.write_bytes(b"this is not an npz archive at all")
    with pytest.raises(CheckpointCorruptError):
        KINDS[kind][1](path)
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))  # a bare .npy array, not an archive
    with pytest.raises(CheckpointCorruptError):
        KINDS[kind][1](path)


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
