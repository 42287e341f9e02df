"""Command-line interface.

The subcommands cover the common workflows without writing Python:

* ``simulate`` — generate a synthetic datacenter trace and save it;
* ``identify`` — replay online crisis identification over a saved trace;
* ``monitor`` — drive the streaming monitor over a trace with crash-safe
  checkpoints (``--checkpoint``/``--resume``);
* ``index`` — build/query/stats/bench a fingerprint index
  (:mod:`repro.index`) over a trace's crisis fingerprints;
* ``fleet`` — plan/run/bench the sharded parallel aggregation tier
  (:mod:`repro.fleet`) over a simulated fleet;
* ``serve`` — the durable ingestion front door (``--standby-of`` runs a
  warm replica); ``admin`` — operate a running fleet (stats,
  unquarantine, promote, fence, failover);
* ``discover`` — unsupervised crisis discovery: cluster an unlabeled
  trace (:mod:`repro.discovery`), inspect saved discovery state, and
  manually promote clusters into the catalog;
* ``forecast`` — predictive early warning (:mod:`repro.forecast`):
  train a two-stage pre-SLA detector on a trace, replay it for
  lead-time-vs-precision numbers, and inspect saved models;
* ``discriminate`` — Figure 3's AUC comparison of all four methods;
* ``render`` — print a Figure 1-style fingerprint heatmap for one crisis;
* ``timeline`` — print a day-by-day strip of the trace's crises;
* ``report`` — full operator dossier for one crisis.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.config import (
    FingerprintingConfig,
    SelectionConfig,
    ThresholdConfig,
)
from repro.telemetry.epochs import EpochClock


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="generate and save a trace")
    p.add_argument("output", help="path of the .npz trace archive")
    p.add_argument("--machines", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--warmup-days", type=int, default=30)
    p.add_argument("--bootstrap-days", type=int, default=210)
    p.add_argument("--labeled-days", type=int, default=120)
    p.add_argument("--bootstrap-crises", type=int, default=20)


def _add_identify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "identify", help="replay online identification over a trace"
    )
    p.add_argument("trace", help="path of a saved .npz trace")
    p.add_argument("--relevant-metrics", type=int, default=30)
    p.add_argument("--window-days", type=int, default=240)
    p.add_argument("--alpha", type=float, default=0.1)


def _add_monitor(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "monitor",
        help="drive the streaming monitor over a trace, with "
             "crash-safe checkpoints",
    )
    p.add_argument("trace", help="path of a saved .npz trace")
    p.add_argument("--relevant-metrics", type=int, default=20)
    p.add_argument("--window-days", type=int, default=30)
    p.add_argument("--coverage-floor", type=float, default=0.5,
                   help="min fleet coverage for an epoch to be trusted")
    p.add_argument("--checkpoint",
                   help="checkpoint head path (its segment files are "
                        "written beside it)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="epochs between checkpoints "
                        "(default: one day of the trace's epochs)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint instead of starting fresh")
    p.add_argument("--stop-epoch", type=int, default=None,
                   help="stop after this epoch (exclusive); default: all")


def _add_index(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "index",
        help="build, query and benchmark fingerprint indexes",
    )
    isub = p.add_subparsers(dest="index_action", required=True)

    b = isub.add_parser(
        "build", help="index a trace's labeled crisis fingerprints"
    )
    b.add_argument("trace", help="path of a saved .npz trace")
    b.add_argument("output", help="path of the index archive to write")
    b.add_argument("--backend", default="brute",
                   choices=("brute", "lsh"))
    b.add_argument("--relevant-metrics", type=int, default=30)
    b.add_argument("--synthetic", type=int, default=0,
                   help="pad the index with jittered synthetic "
                        "fingerprints up to this total size")
    b.add_argument("--seed", type=int, default=0,
                   help="seed for LSH hashing and synthetic padding")

    q = isub.add_parser(
        "query", help="match one crisis against a built index"
    )
    q.add_argument("index", help="path of a saved index archive")
    q.add_argument("trace", help="the trace the index was built from")
    q.add_argument("crisis", type=int, help="crisis index in the trace")
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--relevant-metrics", type=int, default=30,
                   help="must match the build invocation")

    s = isub.add_parser("stats", help="print index statistics")
    s.add_argument("index", help="path of a saved index archive")

    be = isub.add_parser(
        "bench", help="per-query latency vs. a Python-loop linear scan"
    )
    be.add_argument("index", help="path of a saved index archive")
    be.add_argument("--queries", type=int, default=50)
    be.add_argument("--k", type=int, default=10)
    be.add_argument("--seed", type=int, default=0)


def _add_fleet(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "fleet",
        help="sharded parallel epoch aggregation over a simulated fleet",
    )
    fsub = p.add_subparsers(dest="fleet_action", required=True)

    def common(q, machines=1000, shards=4):
        q.add_argument("--machines", type=int, default=machines)
        q.add_argument("--shards", type=int, default=shards)

    pl = fsub.add_parser(
        "plan", help="show the hash-partitioned shard assignment"
    )
    common(pl)

    r = fsub.add_parser(
        "run", help="aggregate a simulated fleet epoch by epoch"
    )
    common(r, machines=500)
    r.add_argument("--metrics", type=int, default=20)
    r.add_argument("--epochs", type=int, default=8)
    r.add_argument("--mode", default="exact", choices=("exact", "sketch"))
    r.add_argument("--sketch-eps", type=float, default=0.01)
    r.add_argument("--deadline", type=float, default=5.0,
                   help="epoch-close deadline in seconds")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--chaos-kill", type=float, default=0.0,
                   help="per-epoch probability a shard worker dies at close")
    r.add_argument("--chaos-straggle", type=float, default=0.0,
                   help="per-epoch probability a shard straggles")
    r.add_argument("--chaos-straggle-seconds", type=float, default=0.5)

    b = fsub.add_parser(
        "bench", help="throughput vs. the single-process aggregator"
    )
    b.add_argument("--machines", type=int, default=10_000)
    b.add_argument("--metrics", type=int, default=16)
    b.add_argument("--epochs", type=int, default=3)
    b.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts")
    b.add_argument("--mode", default="sketch", choices=("exact", "sketch"))
    b.add_argument("--sketch-eps", type=float, default=0.02)
    b.add_argument("--seed", type=int, default=0)


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the durable multi-tenant ingestion service "
             "(JSON-lines over TCP; see docs/serving.md)",
    )
    p.add_argument("--root", required=True,
                   help="state directory (journals + checkpoints)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port; the bound port is printed "
                        "as 'SERVING <host> <port>' on stdout")
    p.add_argument("--metrics", type=int, default=8)
    p.add_argument("--relevant", type=int, default=4)
    p.add_argument("--epoch-minutes", type=int, default=15,
                   help="epoch length (must divide 1440)")
    p.add_argument("--window-days", type=int, default=240)
    p.add_argument("--refresh-epochs", type=int, default=None,
                   help="threshold refresh cadence (default: daily)")
    p.add_argument("--min-history-epochs", type=int, default=None,
                   help="history before thresholds activate "
                        "(default: 7 days)")
    p.add_argument("--checkpoint-every", type=int, default=4,
                   help="closed epochs between tenant checkpoints")
    p.add_argument("--max-inflight", type=int, default=1024,
                   help="admission bound on accepted-but-unapplied "
                        "requests")
    p.add_argument("--idle-timeout", type=float, default=5.0,
                   help="seconds before a stalled mid-frame connection "
                        "is dropped")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="consecutive tenant crashes before quarantine")
    p.add_argument("--standby-of", default=None, metavar="HOST:PORT[,...]",
                   help="run as a warm standby tailing the given "
                        "primary's journals (rejects client writes "
                        "until promoted; see docs/operations.md)")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   help="replication heartbeat cadence on idle links")
    p.add_argument("--repl-ack-timeout", type=float, default=5.0,
                   help="seconds without an ack before a replication "
                        "subscriber is presumed dead and reaped")
    p.add_argument("--forecast", action="store_true",
                   help="attach a forecast engine to every tenant for "
                        "predictive early warning (see "
                        "docs/forecasting.md)")
    p.add_argument("--forecast-model", default=None, metavar="PATH",
                   help="trained forecast model archive (from "
                        "'repro forecast train') seeded into fresh "
                        "tenants; without it tenants observe but never "
                        "alarm until a trained checkpoint arrives")
    p.add_argument("--discovery", action="store_true",
                   help="attach a discovery engine to every tenant so "
                        "don't-know crises grow the catalog "
                        "automatically (see docs/discovery.md)")
    p.add_argument("--seed", type=int, default=0)


def _add_discover(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "discover",
        help="unsupervised crisis discovery over an unlabeled trace "
             "(see docs/discovery.md)",
    )
    dsub = p.add_subparsers(dest="discover_action", required=True)

    r = dsub.add_parser(
        "run",
        help="replay a trace with zero diagnoses and cluster its crises",
    )
    r.add_argument("trace", help="path of a saved .npz trace")
    r.add_argument("--state", default=None,
                   help="write the discovery state archive here")
    r.add_argument("--relevant-metrics", type=int, default=10)
    r.add_argument("--window-days", type=int, default=30)
    r.add_argument("--assign-radius", type=float, default=None,
                   help="fixed cluster radius "
                        "(default: auto-calibrated from the stream)")
    r.add_argument("--radius-scale", type=float, default=1.1,
                   help="widening applied to the auto-calibrated radius")
    r.add_argument("--no-promote", action="store_true",
                   help="cluster only; never mint catalog entries")

    s = dsub.add_parser(
        "stats", help="print a saved discovery state's statistics"
    )
    s.add_argument("state", help="path of a discovery state archive")

    pr = dsub.add_parser(
        "promote",
        help="manually promote one cluster into the catalog and save",
    )
    pr.add_argument("state", help="path of a discovery state archive")
    pr.add_argument("cluster", type=int, help="cluster id (see stats)")
    pr.add_argument("--label", default=None,
                    help="catalog label (default: discovered-<id>)")


def _add_forecast(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "forecast",
        help="predictive early warning: train, replay, and inspect "
             "pre-SLA crisis forecasters (see docs/forecasting.md)",
    )
    fsub = p.add_subparsers(dest="forecast_action", required=True)

    t = fsub.add_parser(
        "train",
        help="replay a trace prefix online and train the two-stage "
             "detector; writes a model archive for 'forecast run' and "
             "'serve --forecast-model'",
    )
    t.add_argument("trace", help="path of a saved .npz trace")
    t.add_argument("model", help="path of the model archive to write")
    t.add_argument("--relevant-metrics", type=int, default=10)
    t.add_argument("--window-days", type=int, default=30)
    t.add_argument("--train-epochs", type=int, default=None,
                   help="train on the first N epochs only "
                        "(default: the whole trace)")
    t.add_argument("--horizon", type=int, default=4,
                   help="lead horizon: alarm when a crisis is expected "
                        "within this many epochs")
    t.add_argument("--budget", type=float, default=0.02,
                   help="false-alarm budget on crisis-free epochs")
    t.add_argument("--negatives", type=int, default=6000,
                   help="crisis-free epochs sampled for training")
    t.add_argument("--seed", type=int, default=0)

    r = fsub.add_parser(
        "run",
        help="replay a trace through a trained forecaster and print "
             "the lead-time-vs-precision report",
    )
    r.add_argument("trace", help="path of a saved .npz trace")
    r.add_argument("model", help="path of a trained model archive")
    r.add_argument("--relevant-metrics", type=int, default=10)
    r.add_argument("--window-days", type=int, default=30)
    r.add_argument("--eval-start", type=int, default=0,
                   help="only score crises detected at or after this "
                        "epoch (use the training split point)")

    s = fsub.add_parser(
        "stats", help="print a saved forecast model's statistics"
    )
    s.add_argument("model", help="path of a trained model archive")


def _parse_endpoints(spec: str) -> List[Tuple[str, int]]:
    """Parse ``host:port[,host:port...]`` into endpoint tuples."""
    out: List[Tuple[str, int]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise SystemExit(f"bad endpoint {item!r}: expected HOST:PORT")
        try:
            out.append((host, int(port)))
        except ValueError:
            raise SystemExit(f"bad endpoint port in {item!r}")
    if not out:
        raise SystemExit(f"no endpoints in {spec!r}")
    return out


def _add_admin(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "admin",
        help="operate a running serving fleet: stats, unquarantine, "
             "promote, fence, failover (see docs/operations.md)",
    )
    p.add_argument("--endpoints", required=True, metavar="HOST:PORT[,...]",
                   help="serving nodes, primary first by convention")
    asub = p.add_subparsers(dest="admin_command", required=True)
    asub.add_parser("stats", help="print every node's stats as JSON")
    inc = asub.add_parser(
        "incidents",
        help="print one tenant's crisis catalog: stored labels plus "
             "discovery cluster statistics (read-only)",
    )
    inc.add_argument("tenant")
    fc = asub.add_parser(
        "forecasts",
        help="print one tenant's early-warning state: forecast engine "
             "statistics plus retained alarms (read-only)",
    )
    fc.add_argument("tenant")
    u = asub.add_parser(
        "unquarantine",
        help="release a quarantined tenant with a fresh restart budget",
    )
    u.add_argument("tenant")
    asub.add_parser(
        "promote",
        help="promote the first reachable standby to primary "
             "(mints a new fencing epoch)",
    )
    f = asub.add_parser(
        "fence", help="fence every node at the given epoch"
    )
    f.add_argument("epoch", type=int)
    fo = asub.add_parser(
        "failover",
        help="one controller round: probe, and promote + fence if the "
             "primary is gone",
    )
    fo.add_argument("--grace-probes", type=int, default=2)


def _add_discriminate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "discriminate", help="Figure 3: per-method discrimination AUC"
    )
    p.add_argument("trace", help="path of a saved .npz trace")


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "report", help="print the full operator dossier for one crisis"
    )
    p.add_argument("trace", help="path of a saved .npz trace")
    p.add_argument("crisis", type=int, help="crisis index in the trace")
    p.add_argument("--relevant-metrics", type=int, default=30)


def _add_timeline(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "timeline", help="print a day-by-day strip of the trace"
    )
    p.add_argument("trace", help="path of a saved .npz trace")
    p.add_argument("--days-per-row", type=int, default=60)


def _add_render(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "render", help="print the fingerprint heatmap of one crisis"
    )
    p.add_argument("trace", help="path of a saved .npz trace")
    p.add_argument("crisis", type=int, help="crisis index in the trace")
    p.add_argument("--relevant-metrics", type=int, default=15)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fingerprinting the Datacenter (EuroSys 2010) tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_identify(sub)
    _add_monitor(sub)
    _add_index(sub)
    _add_fleet(sub)
    _add_serve(sub)
    _add_admin(sub)
    _add_discover(sub)
    _add_forecast(sub)
    _add_discriminate(sub)
    _add_render(sub)
    _add_timeline(sub)
    _add_report(sub)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.datacenter import DatacenterSimulator, SimulationConfig
    from repro.persistence import save_trace

    config = SimulationConfig(
        n_machines=args.machines,
        seed=args.seed,
        warmup_days=args.warmup_days,
        bootstrap_days=args.bootstrap_days,
        labeled_days=args.labeled_days,
        n_bootstrap_crises=args.bootstrap_crises,
    )
    print(
        f"simulating {config.total_days} days on {config.n_machines} "
        f"machines (seed {config.seed})..."
    )
    trace = DatacenterSimulator(config).run()
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.n_epochs} epochs, "
        f"{trace.n_metrics} metrics, "
        f"{len(trace.detected_crises)} detected crises"
    )
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    from repro.config import IdentificationConfig
    from repro.core.identification import is_stable, sequence_label
    from repro.core.pipeline import FingerprintPipeline
    from repro.persistence import load_trace

    trace = load_trace(args.trace)
    config = FingerprintingConfig(
        selection=SelectionConfig(n_relevant=args.relevant_metrics),
        thresholds=ThresholdConfig(window_days=args.window_days),
        identification=IdentificationConfig(alpha=args.alpha),
    )
    pipeline = FingerprintPipeline(trace, config)
    correct = attempted = 0
    for crisis in trace.detected_crises:
        pipeline.observe(crisis)
        pipeline.refresh(crisis.detected_epoch)
        pipeline.update_identification_threshold()
        if pipeline.identification_threshold is not None:
            known = {k.label for k in pipeline.known}
            seq = pipeline.identify(crisis).sequence
            stable = is_stable(seq)
            settled = sequence_label(seq) if stable else None
            ok = (
                settled == crisis.label
                if crisis.label in known
                else (stable and settled is None)
            )
            attempted += 1
            correct += ok
            print(
                f"[{'OK  ' if ok else 'MISS'}] crisis {crisis.index:3d} "
                f"type {crisis.label} "
                f"({'known' if crisis.label in known else 'new'}): "
                f"{' '.join(seq)}"
            )
        pipeline.confirm(crisis)
    if attempted:
        print(f"accuracy: {correct}/{attempted} "
              f"({100.0 * correct / attempted:.0f}%)")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.config import ReliabilityConfig
    from repro.core.checkpoint import (
        load_monitor,
        remove_orphan_segments,
        save_monitor,
    )
    from repro.core.streaming import (
        CrisisDetected,
        CrisisEnded,
        EpochUntrusted,
        IdentificationUpdate,
        StreamingCrisisMonitor,
    )
    from repro.persistence import load_trace

    trace = load_trace(args.trace)
    clock = EpochClock(epoch_minutes=(24 * 60) // trace.epochs_per_day)
    config = FingerprintingConfig(
        selection=SelectionConfig(n_relevant=args.relevant_metrics),
        thresholds=ThresholdConfig(window_days=args.window_days),
    )
    reliability = ReliabilityConfig(coverage_floor=args.coverage_floor)
    checkpoint_every = (
        args.checkpoint_every
        if args.checkpoint_every is not None
        else clock.per_day
    )

    if args.resume:
        if not args.checkpoint:
            print("--resume requires --checkpoint", file=sys.stderr)
            return 1
        monitor = load_monitor(args.checkpoint, config, reliability)
        # A run killed mid-save leaves segments its head does not name.
        remove_orphan_segments(args.checkpoint, monitor)
        start = len(monitor.store)
        print(f"resumed from {args.checkpoint} at epoch {start}")
    else:
        from repro.methods import FingerprintMethod

        method = FingerprintMethod(config)
        method.fit(trace, trace.labeled_crises)
        monitor = StreamingCrisisMonitor(
            n_metrics=trace.n_metrics,
            relevant_metrics=method.relevant,
            config=config,
            reliability=reliability,
            clock=clock,
        )
        start = 0

    stop = trace.n_epochs
    if args.stop_epoch is not None:
        stop = min(stop, args.stop_epoch)
    frac = trace.kpi_violation_fraction.max(axis=1)
    n_detected = n_untrusted = 0
    for epoch in range(start, stop):
        events = monitor.ingest(trace.quantiles[epoch], float(frac[epoch]))
        for event in events:
            if isinstance(event, CrisisDetected):
                n_detected += 1
                print(f"[{event.epoch:6d}] crisis {event.crisis_number} "
                      f"detected")
            elif isinstance(event, IdentificationUpdate):
                d = "-" if event.distance is None else f"{event.distance:.3f}"
                print(f"[{event.epoch:6d}] crisis {event.crisis_number} "
                      f"identification {event.identification_epoch}: "
                      f"{event.label} (distance {d})")
            elif isinstance(event, CrisisEnded):
                print(f"[{event.epoch:6d}] crisis {event.crisis_number} "
                      f"ended after {event.duration_epochs} epochs")
            elif isinstance(event, EpochUntrusted):
                n_untrusted += 1
                print(f"[{event.epoch:6d}] epoch untrusted: "
                      f"{', '.join(event.reasons)}")
        if (
            args.checkpoint
            and (epoch + 1 - start) % checkpoint_every == 0
        ):
            save_monitor(monitor, args.checkpoint)
    if args.checkpoint:
        save_monitor(monitor, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    print(f"monitored epochs {start}..{stop}: {n_detected} detections, "
          f"{n_untrusted} untrusted epochs")
    return 0


def _fitted_fingerprints(trace, n_relevant: int):
    """Fit the paper's method and fingerprint every labeled crisis."""
    from repro.methods import FingerprintMethod

    method = FingerprintMethod(
        FingerprintingConfig(
            selection=SelectionConfig(n_relevant=n_relevant)
        )
    )
    method.fit(trace, trace.labeled_crises)
    vectors = [method.vector(c) for c in trace.labeled_crises]
    labels = [c.label for c in trace.labeled_crises]
    return method, vectors, labels


def _cmd_index(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.index import create_index, load_index, save_index
    from repro.persistence import load_trace

    if args.index_action == "build":
        trace = load_trace(args.trace)
        _, vectors, labels = _fitted_fingerprints(
            trace, args.relevant_metrics
        )
        kwargs = {"seed": args.seed} if args.backend == "lsh" else {}
        index = create_index(args.backend, len(vectors[0]), **kwargs)
        index.add_batch(vectors, payloads=labels)
        if args.synthetic > len(index):
            # Jittered copies of real fingerprints: scale experiments need
            # libraries far larger than one trace can produce.
            rng = np.random.default_rng(args.seed)
            base = np.stack(vectors)
            while len(index) < args.synthetic:
                row = int(rng.integers(len(base)))
                vec = base[row] + rng.normal(
                    scale=0.05, size=base.shape[1]
                )
                index.add(vec, payload=labels[row])
        save_index(index, args.output)
        print(
            f"wrote {args.output}: {len(index)} fingerprints "
            f"({index.backend} backend, dim {index.dim})"
        )
        return 0

    index = load_index(args.index)
    if args.index_action == "stats":
        for key, value in sorted(index.stats().items()):
            print(f"{key:>14}: {value}")
        return 0

    if args.index_action == "query":
        trace = load_trace(args.trace)
        crises = {c.index: c for c in trace.detected_crises}
        if args.crisis not in crises:
            print(f"crisis {args.crisis} not found or undetected",
                  file=sys.stderr)
            return 1
        method, _, _ = _fitted_fingerprints(trace, args.relevant_metrics)
        vector = method.vector(crises[args.crisis])
        hits = index.query(vector, k=args.k)
        if not hits:
            print("no matches (empty index or no LSH candidates)")
            return 0
        for rank, hit in enumerate(hits, start=1):
            print(f"{rank}. id {hit.id:6d}  distance {hit.distance:.4f}  "
                  f"label {hit.payload or '-'}")
        return 0

    # bench: indexed queries vs. the historical Python-loop linear scan.
    rng = np.random.default_rng(args.seed)
    ids = index.ids()
    if not ids:
        print("index is empty", file=sys.stderr)
        return 1
    picks = rng.choice(len(ids), size=min(args.queries, len(ids)),
                       replace=False)
    queries = [
        index.vector(ids[i]) + rng.normal(scale=0.01, size=index.dim)
        for i in picks
    ]
    start = time.perf_counter()
    for query in queries:
        index.query(query, k=args.k)
    indexed_s = (time.perf_counter() - start) / len(queries)
    library = [(i, index.vector(i)) for i in ids]
    scan_queries = queries[: max(min(5, len(queries)), 1)]
    start = time.perf_counter()
    for query in scan_queries:
        scored = sorted(
            (float(np.linalg.norm(query - vec)), i) for i, vec in library
        )
        del scored
    scan_s = (time.perf_counter() - start) / len(scan_queries)
    print(f"backend {index.backend}, {len(index)} vectors, "
          f"dim {index.dim}, k={args.k}")
    print(f"indexed query : {indexed_s * 1e3:9.3f} ms")
    print(f"linear scan   : {scan_s * 1e3:9.3f} ms")
    print(f"speedup       : {scan_s / max(indexed_s, 1e-12):9.1f}x")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.config import FleetConfig
    from repro.fleet import FleetAggregator, describe_plan, plan_shards
    from repro.fleet.bench import (
        format_results,
        run_scaling,
        simulate_fleet_epochs,
    )
    from repro.telemetry.chaos import ShardChaosConfig

    if args.fleet_action == "plan":
        machine_ids = [f"host-{i:05d}" for i in range(args.machines)]
        print(describe_plan(plan_shards(machine_ids, args.shards)))
        return 0

    if args.fleet_action == "run":
        machine_ids = [f"host-{i:05d}" for i in range(args.machines)]
        metric_names = [f"metric-{j}" for j in range(args.metrics)]
        chaos = None
        if args.chaos_kill or args.chaos_straggle:
            chaos = ShardChaosConfig(
                kill=args.chaos_kill,
                straggle=args.chaos_straggle,
                straggle_seconds=args.chaos_straggle_seconds,
                seed=args.seed,
            )
        config = FleetConfig(
            n_shards=args.shards, mode=args.mode,
            sketch_eps=args.sketch_eps, close_deadline_s=args.deadline,
        )
        stream = simulate_fleet_epochs(
            args.machines, args.metrics, args.epochs, seed=args.seed
        )
        with FleetAggregator(
            metric_names, machine_ids=machine_ids, config=config,
            chaos=chaos,
        ) as fleet:
            for epoch in range(args.epochs):
                fleet.submit_matrix(stream[epoch])
                summary = fleet.close_epoch()
                q = summary.quality
                degraded = (
                    "" if not q.missing_shards
                    else f"  MISSING SHARDS {list(q.missing_shards)}"
                )
                median = summary.quantiles[0, len(fleet.quantiles) // 2]
                print(
                    f"[{epoch:4d}] reporting {q.n_reporting:6d}/"
                    f"{q.fleet_size}  coverage {q.coverage:5.1%}  "
                    f"shards {q.n_shards_reporting}/{q.n_shards}  "
                    f"quorum {'ok' if q.quorum_met else 'FAILED'}  "
                    f"median(m0) "
                    f"{'nan' if np.isnan(median) else f'{median:.3f}'}"
                    f"{degraded}"
                )
            if fleet.n_respawns:
                print(f"respawned {fleet.n_respawns} dead worker(s)")
        return 0

    # bench
    worker_counts = [int(w) for w in args.workers.split(",") if w]
    results = run_scaling(
        n_machines=args.machines,
        n_metrics=args.metrics,
        n_epochs=args.epochs,
        worker_counts=worker_counts,
        mode=args.mode,
        sketch_eps=args.sketch_eps,
        seed=args.seed,
    )
    print(format_results(
        results, title="Fleet aggregation throughput"
    ))
    return 0


def _cmd_discriminate(args: argparse.Namespace) -> int:
    from repro.evaluation.discrimination import discrimination_roc
    from repro.evaluation.results import format_table
    from repro.methods import (
        AllMetricsFingerprintMethod,
        FingerprintMethod,
        KPIMethod,
        SignaturesMethod,
    )
    from repro.persistence import load_trace

    trace = load_trace(args.trace)
    crises = trace.labeled_crises
    rows = []
    for method in (
        FingerprintMethod(),
        SignaturesMethod(),
        AllMetricsFingerprintMethod(),
        KPIMethod(),
    ):
        method.fit(trace, crises)
        roc = discrimination_roc(method, crises)
        rows.append([method.name, round(roc.auc, 3)])
    print(format_table(["type of fingerprint", "AUC"], rows))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.core.summary import summary_vectors
    from repro.methods import FingerprintMethod
    from repro.persistence import load_trace
    from repro.viz import render_fingerprint

    trace = load_trace(args.trace)
    crises = {c.index: c for c in trace.detected_crises}
    if args.crisis not in crises:
        print(f"crisis {args.crisis} not found or undetected",
              file=sys.stderr)
        return 1
    crisis = crises[args.crisis]
    method = FingerprintMethod(
        FingerprintingConfig(
            selection=SelectionConfig(n_relevant=args.relevant_metrics)
        )
    )
    method.fit(trace, trace.labeled_crises)
    span = method.config.fingerprint.window(
        crisis.detected_epoch, trace.n_epochs
    )
    summaries = summary_vectors(trace.quantiles[span], method.thresholds)
    sub = summaries[:, method.relevant, :]
    print(
        render_fingerprint(
            sub.reshape(sub.shape[0], -1),
            title=f"crisis {crisis.index} (type {crisis.label})",
        )
    )
    print("metrics:", ", ".join(
        trace.metric_names[i] for i in method.relevant
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.methods import FingerprintMethod
    from repro.persistence import load_trace
    from repro.viz import crisis_dossier

    trace = load_trace(args.trace)
    crises = {c.index: c for c in trace.detected_crises}
    if args.crisis not in crises:
        print(f"crisis {args.crisis} not found or undetected",
              file=sys.stderr)
        return 1
    crisis = crises[args.crisis]
    method = FingerprintMethod(
        FingerprintingConfig(
            selection=SelectionConfig(n_relevant=args.relevant_metrics)
        )
    )
    method.fit(trace, trace.labeled_crises)
    others = [c for c in trace.labeled_crises if c.index != crisis.index]
    scored = sorted(
        ((c.label, method.pair_distance(crisis, c)) for c in others),
        key=lambda pair: pair[1],
    )[:3]
    print(
        crisis_dossier(
            trace, crisis, method.thresholds, method.relevant,
            matches=scored,
        )
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.persistence import load_trace
    from repro.viz import render_timeline

    trace = load_trace(args.trace)
    print(render_timeline(trace, days_per_row=args.days_per_row))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.config import ServingConfig
    from repro.serving import IngestServer

    cfg = ServingConfig(
        n_metrics=args.metrics,
        n_relevant=args.relevant,
        epoch_minutes=args.epoch_minutes,
        window_days=args.window_days,
        threshold_refresh_epochs=args.refresh_epochs,
        min_history_epochs=args.min_history_epochs,
        checkpoint_every_epochs=args.checkpoint_every,
        max_inflight=args.max_inflight,
        idle_timeout_s=args.idle_timeout,
        max_restarts=args.max_restarts,
        heartbeat_interval_s=args.heartbeat_interval,
        repl_ack_timeout_s=args.repl_ack_timeout,
        discovery_enabled=args.discovery,
        forecast_enabled=args.forecast or bool(args.forecast_model),
        forecast_model=args.forecast_model,
        seed=args.seed,
    )
    standby_of = (
        _parse_endpoints(args.standby_of)
        if args.standby_of else None
    )
    server = IngestServer(
        cfg, args.root, host=args.host, port=args.port,
        standby_of=standby_of,
    )
    port = server.start()
    # Discovery line for supervisors/tests: flushed before serving.
    print(f"SERVING {args.host} {port}", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    while not stop.is_set() and not server._stopping.is_set():
        stop.wait(0.2)
    server.close()  # graceful: checkpoints every tenant
    if server.fatal_error is not None:
        print(f"FATAL {server.fatal_error}", file=sys.stderr)
        return 1
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    import json

    from repro.serving.failover import FailoverController

    endpoints = _parse_endpoints(args.endpoints)
    controller = FailoverController(endpoints)
    if args.admin_command == "stats":
        out = {
            f"{h}:{p}": controller.probe((h, p)) for h, p in endpoints
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0 if any(v is not None for v in out.values()) else 1
    if args.admin_command in ("incidents", "forecasts"):
        for endpoint in endpoints:
            resp = controller._call(
                endpoint,
                {"op": args.admin_command, "tenant": args.tenant},
            )
            if resp is not None:
                print(json.dumps(resp, indent=2, sort_keys=True))
                return 0
        print(f"no reachable node knows tenant {args.tenant!r}",
              file=sys.stderr)
        return 1
    if args.admin_command == "unquarantine":
        for endpoint in endpoints:
            resp = controller._call(
                endpoint, {"op": "unquarantine", "tenant": args.tenant}
            )
            if resp is not None:
                print(f"UNQUARANTINED {args.tenant} "
                      f"on {endpoint[0]}:{endpoint[1]}")
                return 0
        print(f"no reachable node would unquarantine {args.tenant!r}",
              file=sys.stderr)
        return 1
    if args.admin_command == "promote":
        for endpoint in endpoints:
            status = controller.probe(endpoint)
            if status is not None and status.get("role") == "standby":
                resp = controller._call(endpoint, {"op": "promote"})
                if resp is not None:
                    print(f"PROMOTED {endpoint[0]}:{endpoint[1]} "
                          f"fence {resp['fence']}")
                    return 0
        print("no reachable standby to promote", file=sys.stderr)
        return 1
    if args.admin_command == "fence":
        fenced = 0
        for endpoint in endpoints:
            resp = controller._call(
                endpoint, {"op": "fence", "epoch": args.epoch}
            )
            if resp is not None:
                fenced += 1
                print(f"FENCE {endpoint[0]}:{endpoint[1]} "
                      f"epoch {resp['fence']} fenced {resp['fenced']}")
        return 0 if fenced else 1
    # failover: one controller round.
    controller.grace_probes = args.grace_probes
    # Pre-charge the miss counter so a single invocation acts
    # immediately when the operator has already decided the primary is
    # gone; the grace period matters for the looped/daemonized form.
    result = None
    for _ in range(args.grace_probes):
        result = controller.step()
        if result["action"] != "wait":
            break
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["action"] in ("healthy", "promoted") else 1


def _cmd_discover(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from repro.discovery import load_discovery, save_discovery
    from repro.discovery.eval import (
        EVAL_DISCOVERY,
        format_report,
        run_unlabeled,
    )

    if args.discover_action == "run":
        from repro.persistence import load_trace

        trace = load_trace(args.trace)
        config = FingerprintingConfig(
            selection=SelectionConfig(n_relevant=args.relevant_metrics),
            thresholds=ThresholdConfig(window_days=args.window_days),
        )
        discovery = replace(
            EVAL_DISCOVERY,
            assign_radius=args.assign_radius,
            radius_scale=args.radius_scale,
            auto_promote=not args.no_promote,
        )
        result, engine = run_unlabeled(
            trace, config=config, discovery=discovery
        )
        print(format_report(result))
        if args.state:
            save_discovery(engine, args.state)
            print(f"\ndiscovery state written to {args.state}")
        return 0

    engine = load_discovery(args.state)
    if args.discover_action == "stats":
        stats = engine.stats()
        clusters = stats.pop("clusters", [])
        for key, value in sorted(stats.items()):
            print(f"{key:>16}: {value}")
        for row in clusters:
            print(json.dumps(row, sort_keys=True))
        return 0

    # promote: name one cluster by hand, persist the updated state.
    try:
        label = engine.promote_cluster(args.cluster, label=args.label)
    except KeyError:
        print(f"no cluster {args.cluster} in {args.state}",
              file=sys.stderr)
        return 1
    save_discovery(engine, args.state)
    print(f"promoted cluster {args.cluster} as {label}")
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    from repro.forecast.engine import load_forecast

    if args.forecast_action == "stats":
        engine = load_forecast(args.model)
        for key, value in sorted(engine.stats().items()):
            print(f"{key:>18}: {value}")
        return 0

    from repro.config import ForecastConfig
    from repro.discovery.eval import unlabeled_relevant_metrics
    from repro.persistence import load_trace

    trace = load_trace(args.trace)
    config = FingerprintingConfig(
        selection=SelectionConfig(n_relevant=args.relevant_metrics),
        thresholds=ThresholdConfig(window_days=args.window_days),
    )
    relevant = unlabeled_relevant_metrics(trace, config)

    if args.forecast_action == "train":
        from repro.forecast.engine import save_forecast
        from repro.forecast.trainer import train_forecaster

        fcfg = ForecastConfig(
            horizon_epochs=args.horizon,
            false_alarm_budget=args.budget,
            seed=args.seed,
        )
        engine, report = train_forecaster(
            trace, relevant, config=config, fcfg=fcfg,
            train_epochs=args.train_epochs, n_negative=args.negatives,
        )
        print(
            f"trained on {report.train_epochs} epochs: "
            f"{report.n_positive} positive / {report.n_negative} "
            f"negative examples, {report.n_detections} detections"
        )
        print(
            f"stage 1: lambda {report.lam:.6g}, alarm threshold "
            f"{report.alarm_threshold:.4f} (training recall "
            f"{report.calibration_recall:.0%} at "
            f"{report.calibration_fpr:.2%} false alarms)"
        )
        print(
            f"stage 2: {report.catalog_size} catalog fingerprints, "
            f"match threshold {report.match_threshold}"
        )
        save_forecast(engine, args.model)
        print(f"model written to {args.model}")
        return 0

    # run: replay the trace and report lead-time vs precision.
    from repro.forecast.eval import evaluate_forecaster, format_report

    engine = load_forecast(args.model)
    result = evaluate_forecaster(
        trace, relevant, engine, eval_start=args.eval_start,
        config=config,
    )
    print(format_report(result, title=args.trace))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "identify": _cmd_identify,
    "monitor": _cmd_monitor,
    "index": _cmd_index,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "admin": _cmd_admin,
    "discover": _cmd_discover,
    "forecast": _cmd_forecast,
    "discriminate": _cmd_discriminate,
    "render": _cmd_render,
    "timeline": _cmd_timeline,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
