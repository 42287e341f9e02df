"""CI perf wall: fail the build when a headline metric regresses.

Every benchmark in ``benchmarks/`` publishes a machine-readable mirror
of its result table as ``benchmarks/results/BENCH_<name>.json`` (see
``publish_json`` in ``benchmarks/conftest.py``).  Those files are
committed — they are the *baseline*.  The wall re-runs the same
benchmarks in quick mode on the current tree and compares each
benchmark's **headline metrics** against the committed numbers:

* a *higher-is-better* metric (throughput, speedup, recall) regresses
  when ``current < baseline * (1 - tolerance)``;
* a *lower-is-better* metric (latency, recovery time, replication lag)
  regresses when ``current > baseline * (1 + tolerance)``.

The default tolerance is 30% — wide enough that shared-runner noise
does not page anyone, tight enough that an accidental O(n²) or a lost
fast path cannot slip through.  Comparisons are only made like-for-like:
a baseline recorded in ``"mode": "full"`` is *skipped* (with a visible
reason) when the fresh run is quick, never silently compared.  A rerun
that fails (its asserted floors included) or writes no fresh JSON fails
the wall: there is nothing to compare, and a broken benchmark is not a
pass.

``scripts/perf_wall.py`` is the thin CLI wrapper; this module holds all
the logic so tests can drive it without subprocesses.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HIGHER = "higher"
LOWER = "lower"

#: Default regression tolerance: a headline may drift this fraction in
#: the bad direction before the wall fails.
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class Headline:
    """One walled metric: how to read it and which way is good.

    ``slack`` is an *absolute* drift allowance in the metric's own
    units, applied on top of the relative tolerance.  It exists for
    timing metrics whose baseline sits near the measurement floor
    (a 1 ms replication-lag reading can double on scheduler jitter
    alone); a change only regresses when it exceeds the relative
    tolerance AND the absolute slack, so sub-resolution noise cannot
    fail the wall while a real 10x blowup still does.
    """

    label: str
    extract: Callable[[dict], float]
    direction: str  # HIGHER or LOWER
    slack: float = 0.0

    def value(self, payload: dict) -> float:
        return float(self.extract(payload))


def _min_recall(payload: dict) -> float:
    return min(s["recall_at_10"] for s in payload["sizes"])


def _peak_fleet_throughput(payload: dict) -> float:
    return max(c["reports_per_s"] for c in payload["configs"])


#: The wall's coverage: benchmark name -> its headline metrics.  The
#: name is the ``BENCH_<name>.json`` stem; extractors must match the
#: payload shape that benchmark publishes (``test_wall_covers_committed_
#: baselines`` keeps this honest against the committed files).
HEADLINES: Dict[str, Tuple[Headline, ...]] = {
    "engine_refresh": (
        Headline("speedup", lambda d: d["speedup"], HIGHER),
        Headline(
            "incremental_refresh_ms",
            lambda d: d["incremental_refresh_ms"], LOWER,
        ),
    ),
    "fleet_scaling": (
        Headline("peak_reports_per_s", _peak_fleet_throughput, HIGHER),
    ),
    "index_scaling": (
        Headline(
            "speedup_at_max_n", lambda d: d["sizes"][-1]["speedup"], HIGHER
        ),
        Headline("min_recall_at_10", _min_recall, HIGHER),
    ),
    "serving": (
        Headline("reports_per_s", lambda d: d["reports_per_s"], HIGHER),
        Headline(
            "batched_reports_per_s",
            lambda d: d["batched_reports_per_s"], HIGHER,
        ),
        Headline(
            "p99_latency_ms", lambda d: d["p99_latency_ms"], LOWER,
            slack=0.5,
        ),
        Headline("recovery_s", lambda d: d["recovery_s"], LOWER, slack=1.0),
    ),
    "discovery": (
        Headline(
            "recovered_types", lambda d: d["recovered_types"], HIGHER
        ),
        Headline(
            "adjusted_rand", lambda d: d["adjusted_rand"], HIGHER,
            slack=0.05,
        ),
    ),
    "serving_replication": (
        Headline(
            "replicated_reports_per_s",
            lambda d: d["replicated_reports_per_s"], HIGHER,
        ),
        Headline(
            "steady_state_lag_s", lambda d: d["steady_state_lag_s"], LOWER,
            slack=0.5,
        ),
        Headline(
            "promotion_s", lambda d: d["promotion_s"], LOWER, slack=1.0
        ),
    ),
    "columnar": (
        Headline(
            "close_speedup_at_max_n",
            lambda d: d["sizes"][-1]["close_speedup"], HIGHER,
        ),
        Headline(
            "block_reports_per_s_at_max_n",
            lambda d: d["sizes"][-1]["block_reports_per_s"], HIGHER,
        ),
    ),
    "forecast": (
        Headline("recall", lambda d: d["recall"], HIGHER),
        Headline(
            "median_lead_epochs", lambda d: d["median_lead_epochs"],
            HIGHER, slack=1.0,
        ),
        Headline(
            "false_alarm_rate", lambda d: d["false_alarm_rate"], LOWER,
            slack=0.01,
        ),
    ),
}

#: Which pytest file regenerates each baseline, and the env var that
#: switches it to quick mode.
BENCH_SOURCES: Dict[str, Tuple[str, str]] = {
    "engine_refresh": (
        "benchmarks/test_engine_refresh.py", "ENGINE_REFRESH_QUICK"
    ),
    "fleet_scaling": (
        "benchmarks/test_fleet_scaling.py", "FLEET_SCALING_QUICK"
    ),
    "index_scaling": (
        "benchmarks/test_index_scaling.py", "INDEX_SCALING_QUICK"
    ),
    "serving": (
        "benchmarks/test_serving_ingest.py", "SERVING_INGEST_QUICK"
    ),
    "serving_replication": (
        "benchmarks/test_serving_failover.py", "SERVING_FAILOVER_QUICK"
    ),
    "discovery": (
        "benchmarks/test_discovery_unlabeled.py",
        "DISCOVERY_UNLABELED_QUICK",
    ),
    "forecast": (
        "benchmarks/test_forecast_leadtime.py",
        "FORECAST_LEADTIME_QUICK",
    ),
    "columnar": (
        "benchmarks/test_columnar_ingest.py", "COLUMNAR_INGEST_QUICK"
    ),
}


@dataclass
class Check:
    """The verdict on one headline metric."""

    benchmark: str
    metric: str
    direction: str
    baseline: float
    current: float
    regressed: bool

    @property
    def change(self) -> float:
        """Signed fractional change, positive = metric went up."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return self.current / self.baseline - 1.0


@dataclass
class WallReport:
    """Everything one wall run decided, renderable for CI logs."""

    checks: List[Check] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)
    #: Benchmarks whose quick rerun failed, with the reason.
    failed: Dict[str, str] = field(default_factory=dict)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def regressions(self) -> List[Check]:
        return [c for c in self.checks if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failed

    def render(self) -> str:
        lines = [
            "perf wall (tolerance %.0f%%)" % (self.tolerance * 100),
            "%-22s %-26s %9s %12s %12s %8s" % (
                "benchmark", "metric", "dir", "baseline", "current",
                "change",
            ),
        ]
        for c in self.checks:
            change = (
                "%+7.1f%%" % (c.change * 100)
                if c.change != float("inf") else "    +inf"
            )
            lines.append("%-22s %-26s %9s %12.4g %12.4g %s%s" % (
                c.benchmark, c.metric, c.direction, c.baseline,
                c.current, change, "  REGRESSED" if c.regressed else "",
            ))
        for name, reason in sorted(self.failed.items()):
            lines.append("%-22s FAILED: %s" % (name, reason))
        for name, reason in sorted(self.skipped.items()):
            lines.append("%-22s skipped: %s" % (name, reason))
        lines.append(
            "FAIL: %d headline metric(s) regressed, %d rerun(s) failed"
            % (len(self.regressions), len(self.failed))
            if not self.ok else "OK: no headline regressions"
        )
        return "\n".join(lines)


def load_bench(path: pathlib.Path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a benchmark payload")
    return payload


def compare(
    name: str,
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Check]:
    """Direction-aware comparison of one benchmark's headline metrics.

    A metric the current payload no longer exposes counts as a
    regression — a benchmark silently dropping its headline is exactly
    the failure mode a wall exists to catch.
    """
    checks: List[Check] = []
    for headline in HEADLINES.get(name, ()):
        base = headline.value(baseline)
        try:
            cur = headline.value(current)
        except (KeyError, IndexError, TypeError, ValueError):
            checks.append(Check(
                benchmark=name, metric=headline.label,
                direction=headline.direction, baseline=base,
                current=float("nan"), regressed=True,
            ))
            continue
        if headline.direction == HIGHER:
            regressed = (
                cur < base * (1.0 - tolerance)
                and base - cur > headline.slack
            )
        else:
            regressed = (
                cur > base * (1.0 + tolerance)
                and cur - base > headline.slack
            )
        checks.append(Check(
            benchmark=name, metric=headline.label,
            direction=headline.direction, baseline=base, current=cur,
            regressed=regressed,
        ))
    return checks


def evaluate(
    baselines: Dict[str, dict],
    fresh: Dict[str, dict],
    tolerance: float = DEFAULT_TOLERANCE,
    names: Optional[Sequence[str]] = None,
    failed: Optional[Dict[str, str]] = None,
) -> WallReport:
    """Compare every walled benchmark present in both runs.

    ``failed`` maps benchmarks whose rerun failed to the reason; they
    fail the report instead of being compared or skipped.
    """
    report = WallReport(tolerance=tolerance)
    failed = failed or {}
    for name in sorted(names) if names is not None else sorted(HEADLINES):
        baseline = baselines.get(name)
        current = fresh.get(name)
        if baseline is None:
            report.skipped[name] = "no committed baseline"
            continue
        if name in failed:
            report.failed[name] = failed[name]
            continue
        if current is None:
            report.skipped[name] = "no fresh run"
            continue
        if baseline.get("mode") != current.get("mode"):
            report.skipped[name] = (
                "mode mismatch: baseline %r vs fresh %r — not comparable"
                % (baseline.get("mode"), current.get("mode"))
            )
            continue
        report.checks.extend(compare(name, baseline, current, tolerance))
    return report


def collect_baselines(
    results_dir: pathlib.Path, names: Optional[Sequence[str]] = None
) -> Dict[str, dict]:
    """All committed ``BENCH_<name>.json`` payloads under the wall."""
    out: Dict[str, dict] = {}
    for name in names if names is not None else sorted(HEADLINES):
        path = results_dir / f"BENCH_{name}.json"
        if path.exists():
            out[name] = load_bench(path)
    return out


def run_wall(
    repo_root: pathlib.Path,
    names: Optional[Sequence[str]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    runner: Optional[Callable[[str, Dict[str, str]], int]] = None,
) -> WallReport:
    """The whole wall: snapshot baselines, re-run quick, compare, restore.

    The quick re-run writes into ``benchmarks/results/`` (that is where
    ``publish_json`` points), so the committed baselines are snapshotted
    first and restored afterwards — the wall never mutates the tree it
    is judging.  ``runner`` is injectable for tests; the default shells
    out to pytest.
    """
    names = list(names) if names is not None else sorted(HEADLINES)
    results_dir = repo_root / "benchmarks" / "results"
    baselines = collect_baselines(results_dir, names)

    def default_runner(test_path: str, env: Dict[str, str]) -> int:
        merged = dict(os.environ)
        merged.update(env)
        src = str(repo_root / "src")
        merged["PYTHONPATH"] = (
            src + os.pathsep + merged["PYTHONPATH"]
            if merged.get("PYTHONPATH") else src
        )
        return subprocess.call(
            [sys.executable, "-m", "pytest", "-x", "-q", test_path],
            cwd=str(repo_root), env=merged,
        )

    run = runner if runner is not None else default_runner
    fresh: Dict[str, dict] = {}
    failed: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="benchwall-") as snap:
        snapshot = pathlib.Path(snap)
        saved: List[str] = []
        # Snapshot every published artifact, not just the walled JSONs:
        # the quick re-run also rewrites the human .txt records, and
        # those are committed full-mode numbers.
        if results_dir.exists():
            for src in results_dir.iterdir():
                if src.is_file():
                    shutil.copy2(src, snapshot / src.name)
                    saved.append(src.name)
        try:
            for name in names:
                if name not in baselines:
                    continue  # evaluate() reports the missing baseline
                test_path, quick_env = BENCH_SOURCES[name]
                if not (repo_root / test_path).exists():
                    continue
                # The baseline is snapshotted: remove it so that a JSON
                # found after the rerun can only be the rerun's own.
                fresh_path = results_dir / f"BENCH_{name}.json"
                fresh_path.unlink()
                code = run(test_path, {quick_env: "1"})
                if code != 0:
                    failed[name] = f"quick rerun exited {code}"
                elif not fresh_path.exists():
                    failed[name] = "quick rerun wrote no fresh JSON"
                else:
                    fresh[name] = load_bench(fresh_path)
        finally:
            if results_dir.exists():
                for leftover in results_dir.iterdir():
                    if leftover.is_file() and leftover.name not in saved:
                        leftover.unlink()
            for filename in saved:
                shutil.copy2(snapshot / filename, results_dir / filename)
    return evaluate(baselines, fresh, tolerance, names=names, failed=failed)


__all__ = [
    "Check",
    "DEFAULT_TOLERANCE",
    "HIGHER",
    "LOWER",
    "Headline",
    "HEADLINES",
    "BENCH_SOURCES",
    "WallReport",
    "collect_baselines",
    "compare",
    "evaluate",
    "load_bench",
    "run_wall",
]
