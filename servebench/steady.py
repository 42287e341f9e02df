"""Steadiness check: rerun workloads over several seeds, print the spread.

Usage (from the repository root)::

    python3 servebench/steady.py --workloads ingest-batch,crisis-online \\
        --seeds 1-10 [--seconds 15] [--out runs.json]

For every end-to-end metric of every workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile
spread as a share of the median, and the min/max spread.  A metric whose
interquartile spread exceeds a third of its bound in ``BENCHMARK.json`` is
flagged; ``setup_s`` is judged only by its median.  ``--out`` saves the raw
values so two sets can be compared with ``--compare a.json b.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, seconds: float) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(runs: dict, bounds: dict) -> None:
    for workload, values in runs.items():
        print(f"\n{workload} ({len(values)} runs)")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for name in values[0]:
            xs = [v[name] for v in values]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            bound = bounds.get(name)
            iqr = (q3 - q1) / med
            flag = ""
            if bound and name != "setup_s" and iqr > bound / 3:
                flag = "  WIDE"
            print(f"  {name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{iqr:>9.1%}{(max(xs) - min(xs)) / med:>10.1%}"
                  f"{bound if bound is not None else '':>7}{flag}")


def compare(a: dict, b: dict, bench: dict) -> None:
    """Second set's median against the first's, as a share of the first."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    for workload in a:
        print(f"\n{workload}: median drift, second set vs first")
        for name in a[workload][0]:
            m1 = statistics.median(v[name] for v in a[workload])
            m2 = statistics.median(v[name] for v in b[workload])
            worse = (m2 - m1) / m1 if lower[name] else (m1 - m2) / m1
            flag = "  WORSE" if worse > bounds[name] else ""
            print(f"  {name:<16}{m1:>12.4f}{m2:>12.4f}{worse:>+9.1%}{flag}")


def main(argv=None) -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        summarize(a, bounds)
        summarize(b, bounds)
        compare(a, b, bench)
        return 0
    if len(_seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            runs[workload].append(
                run_once(bench, workload, seed, args.seconds)
            )
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[workload][-1].items()
            ), flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs))
    summarize(runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
