"""Durable ingestion front door: throughput, latency, and recovery time.

The serving PR's headline numbers, measured against a real ``repro
serve`` subprocess over loopback TCP:

* sustained ingestion throughput in acked reports/second through the
  full journal-before-ack path (every ack means an fsynced journal
  record);
* the same workload as ``report_batch`` frames — one journal record
  and one fsync per fleet batch instead of per machine;
* p99 request latency under the pipelined load generator;
* crash-recovery time — SIGKILL the server mid-run, restart it on the
  same state directory, and measure wall clock from process launch to
  the first successful ``state`` response (checkpoint restore + journal
  replay + socket up).

Set ``SERVING_INGEST_QUICK=1`` (the CI perf wall does) for a reduced
run with the same phases and relaxed floors.
"""

import os
import signal
import subprocess
import sys
import time

from repro.serving.loadgen import ServingClient, run_load

from conftest import publish, publish_json

QUICK = os.environ.get("SERVING_INGEST_QUICK") == "1"
N_TENANTS = 1 if QUICK else 2
N_MACHINES = 10 if QUICK else 30
N_EPOCHS = 8 if QUICK else 24
N_METRICS = 6
CRISIS_EPOCHS = (5, 6) if QUICK else (16, 17, 18)
KILL_EPOCH = 5 if QUICK else 16
THROUGHPUT_FLOOR = 100.0 if QUICK else 200.0  # acked reports/s
RECOVERY_CEILING_S = 30.0

SERVE_ARGS = [
    "--metrics", str(N_METRICS), "--relevant", "3",
    "--epoch-minutes", "144", "--window-days", "2",
    "--refresh-epochs", "5", "--min-history-epochs", "8",
    "--checkpoint-every", "4", "--seed", "7",
]
LOAD = dict(
    seed=42, n_tenants=N_TENANTS, n_machines=N_MACHINES,
    n_epochs=N_EPOCHS, n_metrics=N_METRICS, crisis_epochs=CRISIS_EPOCHS,
)


def start_server(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root)]
        + SERVE_ARGS,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True,
    )
    line = proc.stdout.readline().strip()
    tag, host, port = line.split()
    assert tag == "SERVING"
    return proc, host, int(port)


def test_serving_ingest(tmp_path):
    # --- Phase 1: sustained ingestion through the durable path. -------
    proc, host, port = start_server(tmp_path)
    t0 = time.perf_counter()
    result = run_load(host, port, **LOAD)
    ingest_wall_s = time.perf_counter() - t0
    assert result.rejected == 0
    throughput = result.acked / ingest_wall_s
    p99_ms = result.p99_latency_ms
    mean_ms = result.mean_latency_ms
    n_events = len(result.events)

    # --- Phase 1b: identical workload as report_batch frames. ---------
    # Fresh state directory so both phases ingest the same epochs; the
    # batched run journals one record per fleet frame instead of one
    # per machine report.
    proc_b, host_b, port_b = start_server(tmp_path / "batched")
    t0 = time.perf_counter()
    result_b = run_load(host_b, port_b, batch_size=N_MACHINES, **LOAD)
    batched_wall_s = time.perf_counter() - t0
    assert result_b.rejected == 0
    assert result_b.acked == result.acked  # n-field covers every report
    batched_throughput = result_b.acked / batched_wall_s
    proc_b.send_signal(signal.SIGTERM)
    proc_b.wait(timeout=30)

    # --- Phase 2: SIGKILL mid-epoch, measure recovery wall clock. -----
    run_load(host, port, start_epoch=N_EPOCHS,
             **{**LOAD, "n_epochs": N_EPOCHS + KILL_EPOCH})
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    t0 = time.perf_counter()
    proc2, host2, port2 = start_server(tmp_path)
    with ServingClient(host2, port2) as client:
        state = client.request({"op": "state", "tenant": "tenant-0"})
    recovery_s = time.perf_counter() - t0
    assert state["state"]["next_epoch"] == N_EPOCHS + KILL_EPOCH
    proc2.send_signal(signal.SIGTERM)
    proc2.wait(timeout=30)

    lines = [
        "Durable serving ingest: journal-before-ack over loopback TCP",
        "(%d tenants x %d machines x %d epochs, %d metrics, "
        "pipelined window)" % (N_TENANTS, N_MACHINES, N_EPOCHS, N_METRICS),
        "",
        "%-44s %10.0f reports/s" % ("sustained acked throughput",
                                    throughput),
        "%-44s %10.0f reports/s" % (
            "batched (report_batch, 1 fsync/fleet frame)",
            batched_throughput),
        "%-44s %10.1f x" % (
            "batching speedup", batched_throughput / throughput),
        "%-44s %10.2f ms" % ("p99 request latency", p99_ms),
        "%-44s %10.2f ms" % ("mean request latency", mean_ms),
        "%-44s %10d" % ("acked reports (each one fsynced)", result.acked),
        "%-44s %10d" % ("crisis events streamed back", n_events),
        "",
        "%-44s %10.2f s" % (
            "recovery after SIGKILL mid-epoch", recovery_s),
        "(launch -> checkpoint restore -> journal replay -> first state "
        "response)",
        "",
        "floors: >=%.0f reports/s, recovery <= %.0f s"
        % (THROUGHPUT_FLOOR, RECOVERY_CEILING_S),
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("serving_ingest", "\n".join(lines))
    publish_json("serving", {
        "n_tenants": N_TENANTS,
        "n_machines": N_MACHINES,
        "n_epochs": N_EPOCHS,
        "n_metrics": N_METRICS,
        "acked_reports": result.acked,
        "reports_per_s": throughput,
        "batched_reports_per_s": batched_throughput,
        "p99_latency_ms": p99_ms,
        "mean_latency_ms": mean_ms,
        "events_streamed": n_events,
        "recovery_s": recovery_s,
        "throughput_floor": THROUGHPUT_FLOOR,
        "recovery_ceiling_s": RECOVERY_CEILING_S,
        "mode": "quick" if QUICK else "full",
    })

    assert throughput >= THROUGHPUT_FLOOR, (
        f"only {throughput:.0f} acked reports/s through the durable path"
    )
    assert recovery_s <= RECOVERY_CEILING_S, (
        f"recovery took {recovery_s:.1f}s"
    )
