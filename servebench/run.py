"""Served benchmark for ``repro serve``: one workload, one seed, one run.

Usage (from the repository root)::

    python3 servebench/run.py --workload ingest-batch --seed 1 --seconds 30 --trace 0

Generates the workload's frames from ``(workload, seed)``, starts a real
``python -m repro serve`` subprocess, drives it for ``--seconds`` seconds
of closed-loop traffic with one SIGKILL and restart on the way, and checks
every answer against an in-process reference replay.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` also replays the same frames
in-process, untraced and traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object; a failed correctness
check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import shutil
import statistics
import sys
import tempfile

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".servebench"

E2E_UNITS = {
    "setup_s": "s",
    "reports_per_s": "reports/s",
    "epochs_per_s": "epochs/s",
    "close_p50_ms": "ms",
    "close_p95_ms": "ms",
    "server_rss_mb": "MB",
}


def _first_difference(a, b) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"at event {i}: {x} != {y}"
    return f"lengths {len(a)} != {len(b)}"


def check(traffic, name, events, thresholds, ref_events, ref_thresholds):
    """Mismatches between one replay's answers and the reference."""
    problems = []
    for t, tenant in enumerate(traffic.tenant_names):
        if events[t] != ref_events[t]:
            problems.append(
                f"{name} {tenant}: events differ from the reference "
                + _first_difference(events[t], ref_events[t])
            )
        if thresholds[t] != ref_thresholds[t]:
            problems.append(
                f"{name} {tenant}: thresholds differ from the reference"
            )
    return problems


def check_served(traffic, res, ref_events, ref_thresholds):
    problems = list(res.problems)
    if res.failed:
        problems.append(f"{res.failed} of {res.frames} frames not applied")
    if res.reports_acked != res.reports_sent:
        problems.append(
            f"acked {res.reports_acked} reports of {res.reports_sent} sent"
        )
    retain = traffic.spec.serving_config().event_log_retain
    for t, state in enumerate(res.states):
        if state.get("next_epoch") != res.epochs:
            problems.append(
                f"state next_epoch {state.get('next_epoch')} after "
                f"{res.epochs} closed epochs"
            )
        if state.get("events") != ref_events[t][-retain:]:
            problems.append("state event log differs from the reference")
    problems += check(
        traffic, "served", res.events,
        [state.get("thresholds") for state in res.states],
        ref_events, ref_thresholds,
    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import inproc
    import served
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.SPECS)}"
        )
    cpu = hostspeed.pin()
    traffic = workloads.generate(args.workload, args.seed, args.seconds)
    # The pre-encoded traffic is millions of long-lived objects; left in
    # the collector's generations, every full collection would rescan
    # them and slow the client and the in-process replays alike.
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    lines = []
    try:
        res = served.served_run(traffic, str(SRC), str(work), args.seconds)
        ref_events, ref_thresholds = workloads.reference_replay(
            traffic, res.epochs
        )
        problems = check_served(traffic, res, ref_events, ref_thresholds)
        if args.trace and not problems:
            untraced = inproc.replay(traffic, res.windows, str(work / "u"))
            traced, tracer = inproc.traced_replay(
                traffic, res.windows, str(work / "t")
            )
            for name, rep in (("untraced", untraced), ("traced", traced)):
                problems += check(
                    traffic, name, rep.events, rep.thresholds,
                    ref_events, ref_thresholds,
                )
                if rep.failed:
                    problems.append(f"{name}: {rep.failed} frames failed")
            layers, absent, reconciled = inproc.layer_metrics(
                traced, tracer, untraced, res.wall_s, res.counters, lines,
            )
            if not reconciled:
                problems.append("traced self times do not reconcile")
            spans = OUT / "spans"
            spans.mkdir(exist_ok=True)
            tracer.write(spans / f"{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"{args.workload} seed {args.seed}: {res.epochs} epochs (metrics "
        f"over the first {traffic.spec.stat_epochs}), "
        f"{res.frames} frames, {res.reports_acked} reports acked in "
        f"{res.wall_s:.2f}s of closed loop (window {traffic.spec.window} "
        f"frames); SIGKILL after window {traffic.kill_window}, served "
        f"restart {res.restart_s[0]:.3f}s; client and server on CPU {cpu}"
    )
    print(
        f"host-speed probe: median {statistics.median(res.probe_s) * 1e3:.2f}"
        f" ms over {len(res.probe_s)} windows (reference "
        f"{hostspeed.REFERENCE_PROBE_S * 1e3:.2f} ms)"
    )
    print(
        f"in-process recovery of the crash image: median "
        f"{statistics.median(res.recovery_s) * 1e3:.1f} ms, scaled "
        + "{:.1f} ms".format(statistics.median(
            s * f for s, f in zip(res.recovery_s, res.recovery_f)
        ) * 1e3)
        + f" over {len(res.recovery_s)}"
    )
    print(
        f"error_rate {res.failed}/{res.frames} frames; latency samples: "
        f"{len(res.ack_ms)} report acks, {len(res.close_ms)} close acks"
    )
    if problems:
        for problem in problems:
            print(f"CORRECTNESS FAILED: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": max(res.frames, 1),
            "failed": max(res.failed, 1), "metrics": {},
        }))
        return 1
    if args.trace:
        for line in lines:
            print(line)
        for name, why in sorted(absent.items()):
            print(f"absent: {name} reads 0 ({why})")
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in layers.items()
        }
    else:
        values = served.end_to_end(res)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:<32}{metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": True, "attempted": res.frames, "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
