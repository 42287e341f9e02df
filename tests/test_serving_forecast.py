"""Forecast engines behind the serving front door.

The acceptance bar for the serving wiring: a tenant that opted into
forecasting embeds the engine's state in its checkpoints, recovery
re-attaches it **bit-identically**, the ``forecasts`` wire op exposes a
read-side view, and pre-forecast tenants are unaffected.
"""

import numpy as np
import pytest

from repro.config import ForecastConfig, ServingConfig
from repro.serving import wire
from repro.serving.tenant import TenantRuntime


def fc_cfg(**over):
    base = dict(
        n_metrics=4, n_relevant=2, epoch_minutes=144,  # 10 epochs/day
        window_days=2, threshold_refresh_epochs=4, min_history_epochs=6,
        checkpoint_every_epochs=100,  # explicit checkpoints only
        forecast_enabled=True,
        forecast=ForecastConfig(slope_window=4, churn_window=3),
        seed=11,
    )
    base.update(over)
    return ServingConfig(**base)


def drive(rt, start, end, n_machines=5):
    for epoch in range(start, end):
        for m in range(n_machines):
            rec = wire.report_as_batch({
                "op": "report", "machine": f"m{m}", "epoch": epoch,
                "values": [float(epoch % 7 + m), float(m), 1.0, 2.0],
                "violation": False,
            })
            rt.journal.append(rec)
            rt.apply(rec)
        rec = {"op": "close_epoch", "epoch": epoch}
        rt.journal.append(rec)
        rt.apply(rec)


class TestTenantWiring:
    def test_opt_in_attaches_engine(self, tmp_path):
        rt = TenantRuntime("t", fc_cfg(), tmp_path)
        assert rt.monitor.forecast is not None
        rt.close()

    def test_opt_out_stays_bare(self, tmp_path):
        rt = TenantRuntime("t", fc_cfg(forecast_enabled=False), tmp_path)
        assert rt.monitor.forecast is None
        assert rt.forecasts()["forecast"] is None
        rt.close()

    def test_engine_observes_served_epochs(self, tmp_path):
        rt = TenantRuntime("t", fc_cfg(), tmp_path)
        drive(rt, 0, 12)
        assert rt.monitor.forecast.epochs_observed == 12
        rt.close()

    def test_forecasts_view_is_wire_safe(self, tmp_path):
        import json

        rt = TenantRuntime("t", fc_cfg(), tmp_path)
        drive(rt, 0, 8)
        view = rt.forecasts()
        assert view["tenant"] == "t"
        assert view["forecast"]["attached"] is True
        assert view["forecast"]["epochs_observed"] == 8
        assert view["alarms"] == []
        json.dumps(view)
        rt.close()


class TestRestartBitIdentity:
    def test_recovered_forecast_state_is_bit_identical(self, tmp_path):
        cfg = fc_cfg()
        rt = TenantRuntime("t", cfg, tmp_path)
        drive(rt, 0, 10)
        rt.checkpoint()
        drive(rt, 10, 14)  # journal suffix past the checkpoint
        rt.close()

        recovered = TenantRuntime.recover("t", cfg, tmp_path)
        live = rt.monitor.forecast
        clone = recovered.monitor.forecast
        assert clone is not None
        assert clone.epochs_observed == live.epochs_observed

        h1, a1 = live.snapshot(prefix="x_")
        h2, a2 = clone.snapshot(prefix="x_")
        assert h1 == h2
        assert sorted(a1) == sorted(a2)
        for key in a1:
            assert np.array_equal(a1[key], a2[key], equal_nan=True), key
        recovered.close()

    def test_recovery_continues_identically(self, tmp_path):
        cfg = fc_cfg()
        rt = TenantRuntime("t", cfg, tmp_path)
        drive(rt, 0, 10)
        rt.checkpoint()
        recovered = TenantRuntime.recover("t", cfg, tmp_path)
        drive(rt, 10, 13)
        drive(recovered, 10, 13)
        f1 = rt.monitor.forecast.last_features
        f2 = recovered.monitor.forecast.last_features
        if f1 is None:
            assert f2 is None
        else:
            assert np.array_equal(f1, f2, equal_nan=True)
        rt.close()
        recovered.close()

    def test_pre_forecast_checkpoint_upgrades_cleanly(self, tmp_path):
        """A tenant that enables forecasting later starts fresh."""
        off = fc_cfg(forecast_enabled=False)
        rt = TenantRuntime("t", off, tmp_path)
        drive(rt, 0, 8)
        rt.checkpoint()
        rt.close()
        on = fc_cfg()
        recovered = TenantRuntime.recover("t", on, tmp_path)
        engine = recovered.monitor.forecast
        assert engine is not None
        assert engine.epochs_observed == 0  # fresh: no state to restore
        drive(recovered, 8, 10)
        assert engine.epochs_observed == 2
        recovered.close()


class TestWire:
    def test_forecasts_op_parses(self):
        req = wire.parse_request({"op": "forecasts", "tenant": "t"})
        assert req == {"op": "forecasts", "tenant": "t"}

    def test_forecasts_requires_tenant(self):
        with pytest.raises(wire.MalformedFrame):
            wire.parse_request({"op": "forecasts"})

    def test_forecasts_in_ops(self):
        assert "forecasts" in wire.OPS
