"""servebench's tracer still finds every ``repro`` name it wraps.

``servebench/inproc.py``'s :class:`Tracer` replaces entry points of the
program by name (``owner.__dict__[attr]``) for a traced replay.  A rename
in ``src/`` breaks that benchmark, so install the tracer here, and drive
one identification and one tenant epoch through it to check that the
names it wraps are still the ones the monitor and the tenant call.
"""

import pathlib

import numpy as np

from repro.config import ServingConfig
from repro.core import streaming
from repro.core.streaming import CrisisEnded, StreamingCrisisMonitor
from repro.serving.tenant import TenantRuntime

SERVEBENCH = pathlib.Path(__file__).resolve().parents[1] / "servebench"


def _drive_crises(monitor, rng, n_crises=4):
    """Calm epochs, then ``n_crises`` two-epoch crises of two labels."""
    def epoch():
        return np.sort(rng.normal(size=(4, 3)), axis=1)

    for _ in range(12):
        monitor.ingest(epoch(), 0.0)
    for i in range(n_crises):
        for fraction in (0.5, 0.5, 0.0, 0.0, 0.0):
            for event in monitor.ingest(epoch() + 3.0, fraction):
                if isinstance(event, CrisisEnded):
                    monitor.diagnose(event.crisis_number, f"T{i % 2}")


def test_tracer_installs_and_sees_identification(monkeypatch):
    monkeypatch.syspath_prepend(str(SERVEBENCH))
    import inproc

    raw = streaming.__dict__["fingerprint_from_window"]
    tracer = inproc.Tracer()
    tracer.install()
    try:
        assert streaming.__dict__["fingerprint_from_window"] is not raw
        monitor = StreamingCrisisMonitor(
            n_metrics=4, relevant_metrics=[0, 1],
            threshold_refresh_epochs=4, min_history_epochs=6,
        )
        _drive_crises(monitor, np.random.default_rng(3))
    finally:
        tracer.uninstall()
    assert streaming.__dict__["fingerprint_from_window"] is raw
    names = set(tracer.names)
    assert {"monitor.ingest", "engine.observe", "ident.fingerprint",
            "ident.threshold"} <= names


def test_tracer_sees_the_tenant_close(monkeypatch, tmp_path):
    # servebench's waterfall rows for the tenant come from these spans; a
    # close that stopped calling the wrapped names would empty them.
    monkeypatch.syspath_prepend(str(SERVEBENCH))
    import inproc

    cfg = ServingConfig(n_metrics=3, n_relevant=2, epoch_minutes=144,
                        window_days=2)
    rt = TenantRuntime("t", cfg, tmp_path)
    tracer = inproc.Tracer()
    tracer.install()
    try:
        rt.apply({
            "op": "report_batch", "epoch": 0, "machines": ["a", "b"],
            "values": [[1.0, 2.0, 3.0], [2.0, float("nan"), 1.0]],
            "violations": [False, True],
        })
        rt.apply({"op": "close_epoch", "epoch": 0})
    finally:
        tracer.uninstall()
        rt.close()
    assert rt.next_epoch == 1
    assert {"quantiles.summarize", "health", "columnar.put"} <= set(
        tracer.names
    )


def test_tracer_sees_the_checkpoint_and_recovery(monkeypatch, tmp_path):
    # servebench's checkpoint rows come from these spans; a checkpoint
    # that stopped calling ``repro.core.checkpoint.save_monitor`` through
    # its module would empty the ``checkpoint.save`` row.
    monkeypatch.syspath_prepend(str(SERVEBENCH))
    import inproc

    cfg = ServingConfig(n_metrics=3, n_relevant=2, epoch_minutes=144,
                        window_days=2, checkpoint_every_epochs=2)
    rt = TenantRuntime("t", cfg, tmp_path)
    tracer = inproc.Tracer()
    tracer.install()
    try:
        for epoch in range(2):
            for record in (
                {"op": "report_batch", "epoch": epoch, "machines": ["a"],
                 "values": [[1.0, 2.0, 3.0]], "violations": [False]},
                {"op": "close_epoch", "epoch": epoch},
            ):
                rt.journal.append_many([record])
                rt.apply(record)
        rt.close()
        back = TenantRuntime.recover("t", cfg, tmp_path)
        back.close()
    finally:
        tracer.uninstall()
    assert back.next_epoch == 2
    assert {"tenant.checkpoint", "checkpoint.save", "journal.compact",
            "tenant.recover"} <= set(tracer.names)
    # The cadence checkpoint ran inside the close that triggered it.
    save = tracer.names.index("checkpoint.save")
    assert tracer.names[tracer.parents[save]] == "tenant.checkpoint"
