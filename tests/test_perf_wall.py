"""The perf wall: direction-aware regression detection over baselines."""

import json
import pathlib

import pytest

from repro import benchwall
from repro.benchwall import (
    BENCH_SOURCES,
    HEADLINES,
    HIGHER,
    LOWER,
    Headline,
    collect_baselines,
    compare,
    evaluate,
    run_wall,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def serving(mode="quick", **over):
    base = {
        "mode": mode, "reports_per_s": 5000.0,
        "batched_reports_per_s": 6000.0,
        "p99_latency_ms": 0.25, "recovery_s": 0.5,
    }
    base.update(over)
    return base


class TestCompare:
    def test_identical_payloads_pass(self):
        checks = compare("serving", serving(), serving())
        assert len(checks) == 4
        assert not any(c.regressed for c in checks)

    def test_higher_is_better_regression(self):
        checks = compare(
            "serving", serving(), serving(reports_per_s=3000.0)
        )
        bad = {c.metric for c in checks if c.regressed}
        assert bad == {"reports_per_s"}  # 40% drop > 30% tolerance

    def test_lower_is_better_regression(self):
        checks = compare(
            "serving", serving(), serving(p99_latency_ms=1.0)
        )
        bad = {c.metric for c in checks if c.regressed}
        # 4x slower and past the absolute slack.
        assert bad == {"p99_latency_ms"}

    def test_improvements_never_fail(self):
        # 10x better in both directions: throughput up, latency down.
        current = serving(
            reports_per_s=50000.0, p99_latency_ms=0.025, recovery_s=0.05
        )
        assert not any(
            c.regressed for c in compare("serving", serving(), current)
        )

    def test_drift_inside_tolerance_passes(self):
        current = serving(
            reports_per_s=5000.0 * 0.71,  # -29%
            p99_latency_ms=0.25 * 1.29,   # +29%
        )
        checks = compare("serving", serving(), current, tolerance=0.30)
        assert not any(c.regressed for c in checks)

    def test_tolerance_is_a_hard_edge(self):
        current = serving(reports_per_s=5000.0 * 0.69)  # -31%
        checks = compare("serving", serving(), current, tolerance=0.30)
        assert any(
            c.regressed and c.metric == "reports_per_s" for c in checks
        )

    def test_absolute_slack_absorbs_sub_resolution_noise(self):
        # p99 doubling from 0.25ms to 0.5ms is scheduler jitter, not a
        # regression: the 0.25ms delta is inside the 0.5ms slack.
        current = serving(p99_latency_ms=0.50)
        checks = compare("serving", serving(), current)
        assert not any(c.regressed for c in checks)

    def test_slack_does_not_hide_a_real_blowup(self):
        # 0.25ms -> 5ms clears both the relative tolerance and the
        # absolute slack: a lost fast path still fails the wall.
        current = serving(p99_latency_ms=5.0)
        checks = compare("serving", serving(), current)
        assert any(
            c.regressed and c.metric == "p99_latency_ms" for c in checks
        )

    def test_evaluate_names_filter_restricts_the_report(self):
        report = evaluate(
            {"serving": serving()}, {"serving": serving()},
            names=["serving"],
        )
        assert {c.benchmark for c in report.checks} == {"serving"}
        assert report.skipped == {}

    def test_missing_headline_is_a_regression(self):
        current = serving()
        del current["recovery_s"]
        checks = compare("serving", serving(), current)
        bad = {c.metric for c in checks if c.regressed}
        assert bad == {"recovery_s"}


class TestEvaluate:
    def test_mode_mismatch_is_skipped_not_compared(self):
        report = evaluate(
            {"serving": serving(mode="full")},
            {"serving": serving(mode="quick", reports_per_s=1.0)},
        )
        assert report.checks == []
        assert "mode mismatch" in report.skipped["serving"]
        assert report.ok  # skipped, not failed — but visibly so

    def test_missing_baseline_and_missing_fresh_are_skipped(self):
        report = evaluate({"serving": serving()}, {})
        assert report.skipped["serving"] == "no fresh run"
        assert report.skipped["engine_refresh"] == "no committed baseline"

    def test_render_names_the_regression(self):
        report = evaluate(
            {"serving": serving()},
            {"serving": serving(reports_per_s=10.0)},
        )
        text = report.render()
        assert "REGRESSED" in text
        assert "reports_per_s" in text
        assert "FAIL" in text
        assert not report.ok

    def test_render_all_green(self):
        report = evaluate({"serving": serving()}, {"serving": serving()})
        assert "OK: no headline regressions" in report.render()


class TestWallWiring:
    def test_wall_covers_committed_baselines(self):
        """Every committed BENCH_*.json that the wall claims to cover
        must actually yield its headline metrics — extractor drift
        (a benchmark renaming a field) fails here, not in CI noise."""
        covered = 0
        for name, headlines in HEADLINES.items():
            path = RESULTS_DIR / f"BENCH_{name}.json"
            if not path.exists():
                continue
            payload = json.loads(path.read_text())
            for headline in headlines:
                value = headline.value(payload)
                assert value == value, f"{name}.{headline.label} is NaN"
                assert value >= 0
            covered += 1
        assert covered >= 4, "wall lost its committed baselines"

    def test_every_walled_benchmark_has_a_source(self):
        assert set(HEADLINES) == set(BENCH_SOURCES)
        for name, (test_path, env) in BENCH_SOURCES.items():
            assert (REPO_ROOT / test_path).exists(), test_path
            assert env.endswith("_QUICK")

    def test_directions_are_sane(self):
        for headlines in HEADLINES.values():
            for headline in headlines:
                assert headline.direction in (HIGHER, LOWER)
                is_rate = headline.label.endswith("per_s")
                is_latency = not is_rate and (
                    "latency" in headline.label
                    or "lag" in headline.label
                    or headline.label.endswith(("_ms", "_s"))
                )
                # Latency/duration metrics must never be higher-better.
                if is_latency:
                    assert headline.direction == LOWER, headline.label

    def test_run_wall_restores_baselines_and_compares(self, tmp_path):
        """End-to-end with an injected runner: the fake 'benchmark run'
        clobbers the baseline file with worse numbers; the wall must
        flag the regression AND put the committed bytes back."""
        root = tmp_path / "repo"
        results = root / "benchmarks" / "results"
        results.mkdir(parents=True)
        baseline = serving()
        path = results / "BENCH_serving.json"
        path.write_text(json.dumps(baseline))
        original_bytes = path.read_bytes()
        (root / BENCH_SOURCES["serving"][0]).parent.mkdir(
            parents=True, exist_ok=True
        )
        (root / BENCH_SOURCES["serving"][0]).write_text("# stub\n")

        def fake_runner(test_path, env):
            assert env == {"SERVING_INGEST_QUICK": "1"}
            path.write_text(json.dumps(serving(reports_per_s=10.0)))
            return 0

        report = run_wall(root, names=["serving"], runner=fake_runner)
        assert not report.ok
        assert {c.metric for c in report.regressions} == {"reports_per_s"}
        assert path.read_bytes() == original_bytes

    @staticmethod
    def _stub_repo(tmp_path):
        root = tmp_path / "repo"
        results = root / "benchmarks" / "results"
        results.mkdir(parents=True)
        path = results / "BENCH_serving.json"
        path.write_text(json.dumps(serving()))
        (root / BENCH_SOURCES["serving"][0]).parent.mkdir(
            parents=True, exist_ok=True
        )
        (root / BENCH_SOURCES["serving"][0]).write_text("# stub\n")
        return root, path

    def test_run_wall_failed_rerun_fails(self, tmp_path):
        """A rerun that exits non-zero (a broken benchmark, or one of
        its asserted floors) fails the wall; it is not a skip."""
        root, path = self._stub_repo(tmp_path)
        original_bytes = path.read_bytes()
        report = run_wall(
            root, names=["serving"], runner=lambda t, e: 1
        )
        assert not report.ok
        assert report.failed == {"serving": "quick rerun exited 1"}
        assert "serving" not in report.skipped
        assert "FAILED" in report.render() and "FAIL:" in report.render()
        assert path.read_bytes() == original_bytes

    def test_run_wall_rerun_without_fresh_json_fails(self, tmp_path):
        """Exit 0 without writing a JSON must not compare the committed
        baseline against itself."""
        root, path = self._stub_repo(tmp_path)
        report = run_wall(
            root, names=["serving"], runner=lambda t, e: 0
        )
        assert not report.ok
        assert report.failed == {"serving": "quick rerun wrote no fresh JSON"}
        assert report.checks == []
        assert path.exists()  # the committed baseline is restored


class TestScriptEntryPoint:
    def test_compare_only_exits_zero(self, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "perf_wall", REPO_ROOT / "scripts" / "perf_wall.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # Baselines vs themselves: by construction no regressions.
        assert module.main(["--compare-only"]) == 0
        out = capsys.readouterr().out
        assert "perf wall" in out
