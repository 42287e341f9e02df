"""CI perf wall: re-run quick-mode benchmarks, diff against baselines.

Thin wrapper around :mod:`repro.benchwall` — all policy (headline
metrics, direction-aware tolerance, mode matching) lives there.  Run
from the repo root:

    PYTHONPATH=src python scripts/perf_wall.py [--tolerance 0.30]
        [--only serving serving_replication] [--compare-only]

Exit status 0 means no headline metric regressed more than the
tolerance; 1 means at least one did, or a benchmark's quick rerun failed
or wrote no fresh JSON (the rendered table says which).
``--compare-only`` skips the re-run and diffs the JSON files already in
``benchmarks/results/`` against themselves — useful to sanity-check the
wall's coverage wiring without paying for a benchmark run.
"""

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import benchwall  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=benchwall.DEFAULT_TOLERANCE,
        help="allowed fractional drift in the bad direction",
    )
    parser.add_argument(
        "--only", nargs="+", choices=sorted(benchwall.HEADLINES),
        default=None, help="wall only these benchmarks",
    )
    parser.add_argument(
        "--compare-only", action="store_true",
        help="skip the quick re-run; diff committed baselines "
        "against themselves (wiring check)",
    )
    args = parser.parse_args(argv)

    if args.compare_only:
        baselines = benchwall.collect_baselines(
            REPO_ROOT / "benchmarks" / "results", args.only
        )
        report = benchwall.evaluate(
            baselines, baselines, args.tolerance, names=args.only
        )
    else:
        report = benchwall.run_wall(
            REPO_ROOT, names=args.only, tolerance=args.tolerance
        )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
