"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.persistence import save_trace


@pytest.fixture(scope="module")
def trace_path(small_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    save_trace(small_trace, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out.npz"])
        assert args.machines == 40
        assert args.command == "simulate"

    def test_identify_options(self):
        args = build_parser().parse_args(
            ["identify", "t.npz", "--relevant-metrics", "15",
             "--window-days", "30"]
        )
        assert args.relevant_metrics == 15
        assert args.window_days == 30

    def test_monitor_options(self):
        args = build_parser().parse_args(
            ["monitor", "t.npz", "--checkpoint", "c.npz", "--resume",
             "--stop-epoch", "500", "--coverage-floor", "0.6"]
        )
        assert args.command == "monitor"
        assert args.resume
        assert args.checkpoint == "c.npz"
        assert args.stop_epoch == 500
        assert args.coverage_floor == 0.6
        # Unset on the command line: resolved at run time to one day
        # of the trace's epochs (96 only at 15-minute epochs).
        assert args.checkpoint_every is None


class TestCommands:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        rc = main([
            "simulate", str(out),
            "--machines", "10",
            "--warmup-days", "8",
            "--bootstrap-days", "20",
            "--labeled-days", "45",
            "--bootstrap-crises", "2",
            "--seed", "3",
        ])
        assert rc == 0
        assert out.exists()
        assert "detected crises" in capsys.readouterr().out

    def test_render(self, trace_path, small_trace, capsys):
        crisis = small_trace.detected_crises[0]
        rc = main(["render", trace_path, str(crisis.index),
                   "--relevant-metrics", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"crisis {crisis.index}" in out
        assert "metrics:" in out

    def test_render_missing_crisis(self, trace_path, capsys):
        rc = main(["render", trace_path, "9999"])
        assert rc == 1

    def test_identify_runs(self, trace_path, capsys):
        rc = main([
            "identify", trace_path,
            "--relevant-metrics", "15",
            "--window-days", "30",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out

    def test_monitor_resume_requires_checkpoint(self, trace_path, capsys):
        rc = main(["monitor", trace_path, "--resume"])
        assert rc == 1
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_monitor_checkpoint_then_resume(self, trace_path, tmp_path,
                                            capsys):
        ckpt = tmp_path / "monitor.npz"
        rc = main([
            "monitor", trace_path,
            "--relevant-metrics", "10",
            "--checkpoint", str(ckpt),
            "--stop-epoch", "1200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert ckpt.exists()
        assert "checkpoint written" in out
        assert "monitored epochs 0..1200" in out

        rc = main([
            "monitor", trace_path,
            "--checkpoint", str(ckpt),
            "--resume",
            "--stop-epoch", "1400",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"resumed from {ckpt} at epoch 1200" in out
        assert "monitored epochs 1200..1400" in out


class TestDiscoverParser:
    def test_run_options(self):
        args = build_parser().parse_args(
            ["discover", "run", "t.npz", "--state", "d.npz",
             "--relevant-metrics", "12", "--radius-scale", "1.2",
             "--no-promote"]
        )
        assert args.command == "discover"
        assert args.discover_action == "run"
        assert args.state == "d.npz"
        assert args.relevant_metrics == 12
        assert args.radius_scale == 1.2
        assert args.no_promote
        assert args.assign_radius is None

    def test_stats_and_promote(self):
        args = build_parser().parse_args(["discover", "stats", "d.npz"])
        assert args.discover_action == "stats"
        args = build_parser().parse_args(
            ["discover", "promote", "d.npz", "3", "--label", "db-fail"]
        )
        assert args.discover_action == "promote"
        assert args.cluster == 3 and args.label == "db-fail"

    def test_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover"])

    def test_admin_incidents(self):
        args = build_parser().parse_args(
            ["admin", "--endpoints", "h:1", "incidents", "acme"]
        )
        assert args.admin_command == "incidents" and args.tenant == "acme"

    def test_serve_discovery_flag(self):
        args = build_parser().parse_args(["serve", "--root", "r"])
        assert args.discovery is False
        args = build_parser().parse_args(
            ["serve", "--root", "r", "--discovery"]
        )
        assert args.discovery is True


class TestDiscoverCommands:
    def test_run_stats_promote_round_trip(self, trace_path, tmp_path,
                                          capsys):
        state = tmp_path / "discovery.npz"
        rc = main([
            "discover", "run", trace_path,
            "--state", str(state), "--no-promote",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered types" in out
        assert "supervised ceiling" in out
        assert state.exists()

        rc = main(["discover", "stats", str(state)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_clusters" in out and "radius" in out

        from repro.discovery import load_discovery

        cid = load_discovery(state).clusterer.cluster_ids()[0]
        rc = main([
            "discover", "promote", str(state), str(cid),
            "--label", "ops-reviewed",
        ])
        assert rc == 0
        assert "promoted cluster" in capsys.readouterr().out
        assert (
            load_discovery(state).clusterer.label(cid) == "ops-reviewed"
        )

    def test_promote_unknown_cluster_fails(self, tmp_path, capsys):
        import numpy as np

        from repro.config import DiscoveryConfig
        from repro.discovery import (
            DiscoveryEngine,
            OnlineClusterer,
            save_discovery,
        )

        engine = DiscoveryEngine(DiscoveryConfig(assign_radius=1.0))
        engine.clusterer = OnlineClusterer(2, engine.config)
        engine.clusterer.ingest(np.zeros(2), ref=0)
        state = tmp_path / "d.npz"
        save_discovery(engine, state)
        rc = main(["discover", "promote", str(state), "99"])
        assert rc == 1
        assert "no cluster 99" in capsys.readouterr().err


class TestForecastParser:
    def test_train_options(self):
        args = build_parser().parse_args(
            ["forecast", "train", "t.npz", "m.npz",
             "--train-epochs", "5000", "--horizon", "3",
             "--budget", "0.05", "--negatives", "800"]
        )
        assert args.command == "forecast"
        assert args.forecast_action == "train"
        assert args.train_epochs == 5000
        assert args.horizon == 3
        assert args.budget == 0.05
        assert args.negatives == 800

    def test_run_and_stats(self):
        args = build_parser().parse_args(
            ["forecast", "run", "t.npz", "m.npz", "--eval-start", "9000"]
        )
        assert args.forecast_action == "run" and args.eval_start == 9000
        args = build_parser().parse_args(["forecast", "stats", "m.npz"])
        assert args.forecast_action == "stats"

    def test_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["forecast"])

    def test_serve_forecast_flags(self):
        args = build_parser().parse_args(["serve", "--root", "r"])
        assert args.forecast is False and args.forecast_model is None
        args = build_parser().parse_args(
            ["serve", "--root", "r", "--forecast",
             "--forecast-model", "m.npz"]
        )
        assert args.forecast is True and args.forecast_model == "m.npz"

    def test_admin_forecasts(self):
        args = build_parser().parse_args(
            ["admin", "--endpoints", "h:1", "forecasts", "acme"]
        )
        assert args.admin_command == "forecasts" and args.tenant == "acme"


class TestForecastCommands:
    def test_train_stats_run_round_trip(self, trace_path, tmp_path,
                                        capsys):
        model = tmp_path / "forecast.npz"
        rc = main([
            "forecast", "train", trace_path, str(model),
            "--train-epochs", "10000", "--negatives", "1000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage 1: lambda" in out
        assert "model written" in out
        assert model.exists()

        rc = main(["forecast", "stats", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fitted" in out and "alarm_threshold" in out

        rc = main([
            "forecast", "run", trace_path, str(model),
            "--eval-start", "10000",
        ])
        assert rc == 0
        assert "lead-time vs precision" in capsys.readouterr().out


class TestIndexCommands:
    def test_build_stats_bench_round_trip(self, trace_path, tmp_path,
                                          capsys):
        """A 1k-vector LSH library built from the trace's fingerprints."""
        library = str(tmp_path / "library.npz")
        rc = main([
            "index", "build", trace_path, library,
            "--backend", "lsh", "--synthetic", "1000",
        ])
        assert rc == 0
        assert "1000 fingerprints (lsh backend" in capsys.readouterr().out

        assert main(["index", "stats", library]) == 0
        out = capsys.readouterr().out
        assert "backend: lsh" in out and "size: 1000" in out

        rc = main([
            "index", "bench", library, "--queries", "20", "--k", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend lsh, 1000 vectors" in out and "speedup" in out

    def test_kdtree_is_not_a_backend_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "index", "build", "t.npz", "o.npz", "--backend", "kdtree",
            ])


class TestFleetCommands:
    def test_plan_and_run_round_trip(self, capsys):
        assert main(["fleet", "plan", "--machines", "200",
                     "--shards", "4"]) == 0
        assert "shard   3:     50 machines" in capsys.readouterr().out

        assert main(["fleet", "run", "--machines", "100", "--epochs", "3",
                     "--shards", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all("quorum ok" in line for line in lines)

    def test_run_survives_killed_workers(self, capsys):
        rc = main([
            "fleet", "run", "--machines", "100", "--epochs", "3",
            "--shards", "2", "--chaos-kill", "0.5", "--deadline", "2.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MISSING SHARDS" in out and "respawned" in out
