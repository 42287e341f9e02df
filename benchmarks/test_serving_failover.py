"""Replicated serving: throughput under shipping, lag, promotion time.

The replication PR's headline numbers, measured against real ``repro
serve`` subprocesses (a primary and a journal-tailing hot standby) over
loopback TCP:

* replicated ingestion throughput — acked reports/second through the
  journal-before-ack path *while* the standby tails the stream (the
  cost of shipping rides the same wire);
* steady-state replication lag — wall clock for the standby to drain to
  the primary's journal cursor once the load stops;
* promotion time — SIGKILL the primary mid-epoch, let the failover
  controller promote the standby, and measure wall clock from the kill
  to the survivor acking writes at a fresh fencing epoch.

Set ``SERVING_FAILOVER_QUICK=1`` (the CI perf wall does) for a reduced run with the same phases and relaxed floors.
"""

import os
import signal
import subprocess
import sys
import time

from repro.serving.failover import FailoverController
from repro.serving.loadgen import ServingClient, run_load

from conftest import publish, publish_json

QUICK = os.environ.get("SERVING_FAILOVER_QUICK") == "1"
N_TENANTS = 1 if QUICK else 2
N_MACHINES = 10 if QUICK else 30
N_EPOCHS = 8 if QUICK else 24
N_METRICS = 6
CRISIS_EPOCHS = (5, 6) if QUICK else (16, 17, 18)
THROUGHPUT_FLOOR = 80.0 if QUICK else 150.0  # acked reports/s
LAG_CEILING_S = 30.0
PROMOTION_CEILING_S = 30.0

SERVE_ARGS = [
    "--metrics", str(N_METRICS), "--relevant", "3",
    "--epoch-minutes", "144", "--window-days", "2",
    "--refresh-epochs", "5", "--min-history-epochs", "8",
    "--checkpoint-every", "1000", "--seed", "7",
    "--heartbeat-interval", "0.2", "--repl-ack-timeout", "5.0",
]
LOAD = dict(
    seed=42, n_tenants=N_TENANTS, n_machines=N_MACHINES,
    n_epochs=N_EPOCHS, n_metrics=N_METRICS, crisis_epochs=CRISIS_EPOCHS,
)
LOCAL = "127.0.0.1"


def start_node(root, standby_of=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    args = [
        sys.executable, "-m", "repro", "serve", "--root", str(root)
    ] + SERVE_ARGS
    if standby_of is not None:
        args += ["--standby-of", "%s:%d" % standby_of]
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True,
    )
    line = proc.stdout.readline().strip()
    tag, host, port = line.split()
    assert tag == "SERVING"
    return proc, host, int(port)


def applied_totals(host, port):
    with ServingClient(host, port) as client:
        stats = client.request({"op": "stats"})
    return {
        tenant: t.get("applied_seq") or 0
        for tenant, t in stats.get("tenants", {}).items()
    }


def test_serving_failover(tmp_path):
    # --- Phase 1: throughput with a live standby tailing the WAL. -----
    prim, host, port = start_node(tmp_path / "prim")
    stby, shost, sport = start_node(
        tmp_path / "stby", standby_of=(LOCAL, port)
    )
    t0 = time.perf_counter()
    result = run_load(host, port, **LOAD)
    ingest_wall_s = time.perf_counter() - t0
    assert result.rejected == 0
    throughput = result.acked / ingest_wall_s

    # --- Phase 2: steady-state lag — drain to the primary's cursor. ---
    t0 = time.perf_counter()
    target = applied_totals(host, port)
    deadline = time.time() + LAG_CEILING_S
    while time.time() < deadline:
        if applied_totals(shost, sport) == target:
            break
        time.sleep(0.05)
    lag_s = time.perf_counter() - t0
    converged = applied_totals(shost, sport) == target
    assert converged, "standby never drained to the primary's cursor"

    # --- Phase 3: SIGKILL the primary, promote, write again. ----------
    controller = FailoverController(
        [(host, port), (shost, sport)], grace_probes=1, probe_timeout=2.0
    )
    os.kill(prim.pid, signal.SIGKILL)
    prim.wait()
    t0 = time.perf_counter()
    outcome = controller.step()
    assert outcome["action"] == "promoted", outcome
    assert outcome["endpoint"] == (shost, sport)
    post = run_load(
        shost, sport, start_epoch=N_EPOCHS,
        **{**LOAD, "n_epochs": N_EPOCHS + 2},
    )
    promotion_s = time.perf_counter() - t0
    assert post.rejected == 0
    epoch = int(outcome["fence"])
    assert epoch >= 1

    stby.send_signal(signal.SIGTERM)
    stby.wait(timeout=30)

    lines = [
        "Replicated serving: journal shipping, lag, fenced failover",
        "(%d tenants x %d machines x %d epochs, %d metrics, "
        "hot standby tailing)" % (N_TENANTS, N_MACHINES, N_EPOCHS,
                                  N_METRICS),
        "",
        "%-44s %10.0f reports/s" % (
            "acked throughput while replicating", throughput),
        "%-44s %10.2f ms" % ("p99 request latency", result.p99_latency_ms),
        "%-44s %10d" % ("acked reports (journaled + shipped)",
                        result.acked),
        "",
        "%-44s %10.2f s" % (
            "steady-state replication lag (drain)", lag_s),
        "%-44s %10.2f s" % (
            "SIGKILL -> promoted -> writes acked", promotion_s),
        "%-44s %10d" % ("fencing epoch after promotion", epoch),
        "",
        "floors: >=%.0f reports/s, lag <= %.0f s, promotion <= %.0f s"
        % (THROUGHPUT_FLOOR, LAG_CEILING_S, PROMOTION_CEILING_S),
        "mode = %s" % ("quick (CI perf wall)" if QUICK else "full"),
    ]
    publish("serving_failover", "\n".join(lines))
    publish_json("serving_replication", {
        "n_tenants": N_TENANTS,
        "n_machines": N_MACHINES,
        "n_epochs": N_EPOCHS,
        "n_metrics": N_METRICS,
        "acked_reports": result.acked,
        "replicated_reports_per_s": throughput,
        "p99_latency_ms": result.p99_latency_ms,
        "steady_state_lag_s": lag_s,
        "promotion_s": promotion_s,
        "fence_epoch": epoch,
        "throughput_floor": THROUGHPUT_FLOOR,
        "lag_ceiling_s": LAG_CEILING_S,
        "promotion_ceiling_s": PROMOTION_CEILING_S,
        "mode": "quick" if QUICK else "full",
    })

    assert throughput >= THROUGHPUT_FLOOR, (
        f"only {throughput:.0f} acked reports/s while replicating"
    )
    assert promotion_s <= PROMOTION_CEILING_S, (
        f"promotion took {promotion_s:.1f}s"
    )
