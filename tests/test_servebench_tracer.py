"""servebench's tracer still finds every ``repro`` name it wraps.

``servebench/inproc.py``'s :class:`Tracer` replaces entry points of the
program by name (``owner.__dict__[attr]``) for a traced replay.  A rename
in ``src/`` breaks that benchmark, so install the tracer here, and drive
one identification through it to check that the names it wraps are still
the ones the monitor calls.
"""

import pathlib

import numpy as np

from repro.core import streaming
from repro.core.streaming import CrisisEnded, StreamingCrisisMonitor

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
