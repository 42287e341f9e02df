"""Log-structured monitor checkpoints: a small head plus append-only
segments.

A save appends the rows of the epochs closed since the last save and the
window of each crisis stored since then, once, then rewrites only the
head.  These tests pin what each save writes, what it deletes, how it
starts over (a new generation) when it cannot extend what is on disk, and
that any interleaving of saves, crashes and restores resumes event for
event like an uninterrupted run.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FingerprintingConfig, ThresholdConfig
from repro.core import checkpoint
from repro.core.atomicio import read_npz
from repro.core.checkpoint import (
    CheckpointFormatError,
    load_monitor,
    load_monitor_and_extra,
    read_checkpoint_extra,
    remove_orphan_segments,
    save_monitor,
)
from repro.core.streaming import CrisisEnded, StreamingCrisisMonitor
from repro.telemetry.epochs import EpochClock
from tests.test_archive_loaders import (
    assert_same_monitor,
    read_segments,
    segment_names,
)
from tests.test_core_checkpoint import save_monitor_v1

#: Ten epochs a day over a two-day window: W = 20, five-epoch segments.
CONFIG = FingerprintingConfig(thresholds=ThresholdConfig(window_days=2))
CLOCK = EpochClock(epoch_minutes=144)
W, SPAN = 20, 5


def make_monitor():
    return StreamingCrisisMonitor(
        n_metrics=4, relevant_metrics=[0, 1], config=CONFIG,
        threshold_refresh_epochs=4, min_history_epochs=6, clock=CLOCK,
    )


def load(path):
    return load_monitor(path, CONFIG)


def epoch_input(epoch):
    """A deterministic stream: two-epoch crises every 11 epochs from
    epoch 10, and a quarantined (all-NaN) epoch every 17."""
    rng = np.random.default_rng(epoch)
    summary = np.sort(rng.normal(size=(4, 3)), axis=1)
    if epoch % 17 == 5:
        return np.full((4, 3), np.nan), 0.0
    if epoch >= 10 and epoch % 11 in (7, 8):
        return summary + 3.0, 0.5
    return summary, 0.0


def drive(monitor, start, stop, diagnose=True):
    events = []
    for epoch in range(start, stop):
        for event in monitor.ingest(*epoch_input(epoch)):
            events.append(event)
            if diagnose and isinstance(event, CrisisEnded):
                monitor.diagnose(event.crisis_number,
                                 f"T{event.crisis_number % 2}")
    return events


def on_disk(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


def assert_same_records(got, want):
    """Segment records (tuples of a number and arrays) are equal."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[0] == b[0]
        for x, y in zip(a[1:], b[1:]):
            np.testing.assert_array_equal(x, y)


def test_head_holds_no_window_or_library_member(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 45)
    assert len(monitor._library) >= 2
    path = tmp_path / "m.npz"
    save_monitor(monitor, path)
    with np.load(path, allow_pickle=False) as data:
        members = data.files
    assert "store_values" not in members
    assert "store_anomalous" not in members
    assert not [m for m in members if m.startswith("library_window_")]
    header, epochs, crises = read_segments(path)
    assert header["format_version"] == checkpoint.MONITOR_FORMAT_VERSION == 2
    assert [n for n, _ in crises] == [s.number for s in monitor._library]
    for (_, window), stored in zip(crises, monitor._library):
        np.testing.assert_array_equal(window, stored.quantile_window)
    assert_same_monitor(load(path), monitor)


def test_each_save_appends_only_its_new_rows_and_windows(tmp_path):
    monitor = make_monitor()
    path = tmp_path / "m.npz"
    fed = {}
    for stop in (12, 16, 17, 23, 30, 31, 36, 44, 52):
        start = len(monitor.store)
        for epoch in range(start, stop):
            fed[epoch] = epoch_input(epoch)
        drive(monitor, start, stop)
        _, old_epochs, old_crises = (
            read_segments(path) if path.exists() else (None, [], [])
        )
        sizes = dict(segment_names(path)) if path.exists() else {}
        save_monitor(monitor, path)
        _, epochs, crises = read_segments(path)
        # The records before ``start`` are old ones the window still
        # needs; the rest are exactly the epochs since the last save and
        # the crises stored since.
        new = [r for r in epochs if r[0] >= start]
        kept = epochs[:len(epochs) - len(new)]
        assert_same_records(kept, old_epochs[len(old_epochs) - len(kept):])
        assert sum(len(rows) for _, rows, _ in new) == stop - start
        np.testing.assert_array_equal(
            np.concatenate([rows for _, rows, _ in new]),
            np.array([fed[e][0] for e in range(start, stop)]),
        )
        np.testing.assert_array_equal(
            np.concatenate([flags for _, _, flags in new]),
            monitor.store.anomalous_mask(start),
        )
        n_library = len(old_crises)
        assert_same_records(crises[:n_library], old_crises)
        assert [n for n, _ in crises[n_library:]] == [
            s.number for s in monitor._library[n_library:]
        ]
        # Bytes grew by exactly the new records and their frames.
        grown = sum(size - sizes.get(name, 0)
                    for name, size in segment_names(path))
        assert grown == sum(
            8 + 12 + rows.size * 8 + len(rows) for _, rows, _ in new
        ) + sum(8 + 12 + w.size * 8 for _, w in crises[n_library:])
        assert_same_monitor(load(path), monitor)
    assert len(monitor._library) > 2


def test_segments_leave_with_the_window(tmp_path):
    monitor = make_monitor()
    path = tmp_path / "m.npz"
    for stop in range(4, 81, 4):
        drive(monitor, len(monitor.store), stop)
        save_monitor(monitor, path)
        header, epochs, _ = read_segments(path)
        # Every named segment still holds a row of the window, and the
        # files on disk are the head and the segments it names.
        t = header["store_epochs"]
        assert epochs[0][0] > t - W - SPAN
        assert on_disk(tmp_path) == sorted(
            ["m.npz"] + [n for n, _ in segment_names(path)]
        )
        assert_same_monitor(load(path), monitor)
    assert segment_names(path)[0][0] != "m.npz.1.e0.seg"


def test_a_larger_window_than_the_rows_is_a_format_error(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 60)
    path = tmp_path / "m.npz"
    save_monitor(monitor, path)
    wider = FingerprintingConfig(thresholds=ThresholdConfig(window_days=3))
    with pytest.raises(CheckpointFormatError, match="window"):
        load_monitor(path, wider)


def test_code_before_format_2_refuses_the_head(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 30)
    path = tmp_path / "m.npz"
    save_monitor(monitor, path)
    # What a format-1 reader does: accept format 1 alone.
    with pytest.raises(CheckpointFormatError):
        with read_npz(path, checkpoint.CHECKPOINT_FORMAT_VERSION, "monitor"):
            pass


def test_first_save_over_a_format_1_archive_is_complete(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 47)
    path = tmp_path / "m.npz"
    save_monitor_v1(monitor, path)
    restored = load(path)
    assert restored._persisted is None
    drive(restored, 47, 51)
    drive(monitor, 47, 51)
    save_monitor(restored, path)
    header, epochs, crises = read_segments(path)
    assert header["format_version"] == 2
    assert sum(len(rows) for _, rows, _ in epochs) == W
    assert len(crises) == len(monitor._library)
    assert_same_monitor(load(path), monitor)
    assert drive(load(path), 51, 70) == drive(monitor, 51, 70)


def test_a_save_over_another_monitors_head_starts_a_generation(
    tmp_path, monkeypatch
):
    path = tmp_path / "m.npz"
    first = make_monitor()
    drive(first, 0, 30)
    save_monitor(first, path)
    second = make_monitor()
    drive(second, 0, 40)
    # A head write that fails leaves the previous checkpoint whole.
    real = checkpoint.atomic_write_npz

    def disk_full(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(checkpoint, "atomic_write_npz", disk_full)
    with pytest.raises(OSError):
        save_monitor(second, path)
    monkeypatch.setattr(checkpoint, "atomic_write_npz", real)
    assert_same_monitor(load(path), first)
    assert any(".2." in n for n in on_disk(tmp_path))
    # The next save writes generation 3 and deletes everything else.
    save_monitor(second, path)
    assert {n.split(".")[2] for n in on_disk(tmp_path) if n != "m.npz"} == {
        "3"
    }
    assert_same_monitor(load(path), second)
    # The first monitor's head is gone: its next save starts over too.
    drive(first, 30, 34)
    save_monitor(first, path)
    assert_same_monitor(load(path), first)
    assert on_disk(tmp_path) == sorted(
        ["m.npz"] + [n for n, _ in segment_names(path)]
    )


def test_a_save_over_a_head_replaced_since_starts_a_generation(tmp_path):
    # Two monitors restored from one checkpoint: the first's save drops
    # segment e0, which the second's bookkeeping still names.  The head
    # on disk is not the one the second loaded, so it starts over.
    path = tmp_path / "m.npz"
    monitor = make_monitor()
    drive(monitor, 0, 20)
    save_monitor(monitor, path)
    first, second = load(path), load(path)
    drive(first, 20, 28)
    save_monitor(first, path)
    assert "m.npz.1.e0.seg" not in on_disk(tmp_path)
    drive(second, 20, 24)
    save_monitor(second, path)
    assert {n.split(".")[2] for n in on_disk(tmp_path) if n != "m.npz"} == {
        "2"
    }
    assert_same_monitor(load(path), second)


def test_a_save_cuts_the_torn_tail_it_extends(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 12)  # segments e0 (0-4), e1 (5-9), e2 (10-11)
    path = tmp_path / "m.npz"
    save_monitor(monitor, path)
    restored = load(path)
    sizes = dict(segment_names(path))
    assert list(sizes) == ["m.npz.1.e0.seg", "m.npz.1.e1.seg",
                           "m.npz.1.e2.seg"]
    torn = 5000  # longer than what the next save appends
    for name in sizes:
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"\x07" * torn)
    drive(restored, 12, 14)
    drive(monitor, 12, 14)
    save_monitor(restored, path)
    # e2 took epochs 12-13 where the torn tail was; e0 and e1 keep
    # theirs, past their committed lengths, until they leave the window.
    grown = dict(segment_names(path))
    assert (tmp_path / "m.npz.1.e2.seg").stat().st_size == \
        grown["m.npz.1.e2.seg"] > sizes["m.npz.1.e2.seg"]
    for name in ("m.npz.1.e0.seg", "m.npz.1.e1.seg"):
        assert grown[name] == sizes[name]
        assert (tmp_path / name).stat().st_size == sizes[name] + torn
    read_segments(path)  # every committed record passes its CRC
    assert_same_monitor(load(path), monitor)


def test_remove_orphan_segments(tmp_path):
    path = tmp_path / "m.npz"
    monitor = make_monitor()
    drive(monitor, 0, 30)
    save_monitor(monitor, path)
    named = [n for n, _ in segment_names(path)]
    orphans = ["m.npz.1.e9.seg", "m.npz.4.e0.seg", "m.npz.4.crises.seg"]
    for name in orphans:
        (tmp_path / name).write_bytes(b"junk")
    (tmp_path / "other.npz.1.e0.seg").write_bytes(b"not ours")
    restored, _ = load_monitor_and_extra(path, CONFIG)
    assert remove_orphan_segments(path, restored) == 3
    assert on_disk(tmp_path) == sorted(
        ["m.npz", "other.npz.1.e0.seg"] + named
    )
    (tmp_path / orphans[0]).write_bytes(b"junk")
    assert remove_orphan_segments(path) == 1  # reads the head instead
    assert_same_monitor(load(path), monitor)
    os.unlink(path)
    assert remove_orphan_segments(path) == len(named)
    assert on_disk(tmp_path) == ["other.npz.1.e0.seg"]


def test_array_extras_are_members(tmp_path):
    monitor = make_monitor()
    drive(monitor, 0, 10)
    path = tmp_path / "m.npz"
    extra = {"applied_seq": 4, "column": np.arange(5, dtype=np.int64)}
    save_monitor(monitor, path, extra=extra)
    with np.load(path, allow_pickle=False) as data:
        assert "extra_column" in data.files
    for got in (read_checkpoint_extra(path),
                load_monitor_and_extra(path, CONFIG)[1]):
        assert list(got) == ["applied_seq", "column"]
        assert got["applied_seq"] == 4
        np.testing.assert_array_equal(got["column"], extra["column"])


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(1, 9)),
        st.tuples(st.sampled_from(["diagnose", "save", "load"]),
                  st.just(0)),
        st.tuples(st.just("tear"), st.integers(1, 40)),
    ),
    min_size=1, max_size=16,
)


@given(ops=OPS)
@settings(max_examples=30, deadline=None)
def test_interleavings_resume_like_an_uninterrupted_run(tmp_path_factory,
                                                        ops):
    """A journal-style model: ops since the last save are replayed after
    each restore, as a serving tenant replays its journal suffix."""
    root = tmp_path_factory.mktemp("ops")
    path = root / "m.npz"
    ref, live = make_monitor(), make_monitor()
    emitted = {}  # epoch -> the events the uninterrupted run emitted
    since_save = []  # ops applied to ``live`` since its last save
    epoch = 0
    for op, arg in ops + [("ingest", 6)]:
        if op == "ingest":
            for _ in range(arg):
                emitted[epoch] = ref.ingest(*epoch_input(epoch))
                assert live.ingest(*epoch_input(epoch)) == emitted[epoch]
                since_save.append(("ingest", epoch))
                epoch += 1
        elif op == "diagnose":
            pending = [s.number for s in ref._library if s.label is None]
            if pending:
                label = f"T{pending[-1] % 2}"
                for monitor in (ref, live):
                    monitor.diagnose(pending[-1], label)
                since_save.append(("diagnose", (pending[-1], label)))
        elif op == "save":
            save_monitor(live, path)
            since_save = []
        elif op == "tear" and path.exists():
            names = segment_names(path)
            if names:
                name, _ = names[arg % len(names)]
                with open(root / name, "ab") as fh:
                    fh.write(bytes(range(arg)))
        elif op == "load" and path.exists():
            live = load(path)
            for kind, value in since_save:
                if kind == "ingest":
                    assert live.ingest(*epoch_input(value)) == emitted[value]
                else:
                    live.diagnose(*value)
            assert_same_monitor(live, ref)
            assert len(live.store) == epoch
    assert live.library_labels == ref.library_labels
