"""One benchmark process: set up, report readiness, run the timed loop.

Started by run.py, never by hand.  Protocol on stdout: the line ``READY``
once inputs exist and the warm-up is done, then ``SCALE <x>``, the
machine-speed scale measured right after it; with ``--role measure`` one
JSON line with the results follows.  Everything else goes to stderr.

The loop is closed: one caller, one thread, the next op starts when the
previous one returns.  It runs whole passes over the workload's cases
and stops at the pass boundary nearest to ``--seconds``.  With
``--trace 1`` the first half of the time runs untraced and the second
half traced, which gives the tracing overhead as the gap between the two
``ops_per_s``.

Between ops the loop runs the reference kernel of calibrate.py for about
8% of the op time.  Every op time is reported twice: as CPU time, and
scaled by the machine speed the kernel measured around that op.  The
end-to-end time metrics are the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import calibrate
import tracer as tracing
import workloads
from consonance import optimizer

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


class OpClock:
    """Stamps op starts and tells the tracer which op is running."""

    def __init__(self):
        self.n = 0
        self.tracer = None

    def tick(self) -> float:
        if self.tracer is not None:
            self.tracer.op_id = self.n
        self.n += 1
        return workloads.op_clock()


def run_passes(wl, cases, seed, seconds, clock, first_pass, speed):
    """Whole passes over ``cases``, stopping at the pass boundary nearest
    to ``seconds`` of wall time; at least one pass.

    ``first_pass`` holds each op's fingerprint from the first pass ever
    run; a later pass that differs marks the op failed (it did not replay).
    ``speed`` is the SpeedLog that brackets every op with bursts; the
    results come back with each op's scaled time.
    """
    results, groups = [], []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        slot = 0
        for case in cases:
            gc.collect()
            ops = wl.run(case, seed, clock)
            for r in ops:
                if slot not in first_pass:
                    first_pass[slot] = r.fingerprint
                elif r.fingerprint != first_pass[slot] and not r.failed:
                    r.failed, r.solved = True, False
                    r.note = f"{case.label}: result differs between passes"
                results.append(r)
                groups.append(speed.group)
                slot += 1
            speed.after_op(sum(r.latency_s for r in ops))
        now = time.perf_counter()
        if seconds - (now - t0) <= (now - t_pass) / 2:
            speed.close()
            return [(r, r.latency_s * speed.scale(g)) for r, g in zip(results, groups)]


def tail(latencies_ms):
    """The highest listed percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(latencies_ms)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(latencies_ms, p))
    return None, None


def summarize(timed) -> dict:
    """Metrics of a list of (OpResult, scaled seconds)."""
    results = [r for r, _ in timed]
    n = len(results)
    lat_ms = [s * 1e3 for _, s in timed]
    cpu_ms = [r.latency_s * 1e3 for r in results]
    busy = sum(s for _, s in timed)
    cpu_busy = sum(r.latency_s for r in results)
    p, tail_ms = tail(lat_ms)
    frames = {}
    for frame in sorted({r.frame for r in results}):
        sub = [r for r in results if r.frame == frame]
        frames[frame] = {"share": len(sub) / n, "ops": len(sub),
                         "solved_frac": sum(r.solved for r in sub) / len(sub)}
    return {
        "ops": n,
        "busy_s": busy,
        "evals": sum(r.evals for r in results),
        "ops_per_s": n / busy,
        "op_p50_ms": statistics.median(lat_ms),
        "cpu_busy_s": cpu_busy,
        "cpu_ops_per_s": n / cpu_busy,
        "cpu_op_p50_ms": statistics.median(cpu_ms),
        "speed": cpu_busy / busy,
        "op_tail_ms": tail_ms,
        "op_tail_percentile": p,
        "solved_frac": sum(r.solved for r in results) / n,
        "failed": sum(r.failed for r in results),
        "fail_frac": sum(r.failed for r in results) / n,
        "frames": frames,
        "failures": sorted({r.note for r in results if r.failed})[:20],
    }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mus = getattr(optimizer.OptimizerConfig(), "mu_stages", None)
    note = "per restart" if mus is None else (
        f"per restart, split as max_evals // (mu_stages + 1) = "
        f"{workloads.MAX_EVALS // (mus + 1)} evaluations for each of the "
        f"{mus} penalty stages and the feasibility polish")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loop": "closed, 1 caller, 1 thread",
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "restarts": workloads.RESTARTS,
        "max_evals": workloads.MAX_EVALS,
        "max_evals_note": note,
        "oracle_samples": workloads.ORACLE_SAMPLES,
        "sweep_points": workloads.SWEEP_POINTS,
        "reference_burst_s": calibrate.REFERENCE_S,
        "calibration_share": calibrate.SHARE,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--out", required=True, help="directory for the span file")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    cases = wl.cases(args.seed)
    wl.warm_up(cases, args.seed)
    calibrate.burst()
    print("READY", flush=True)
    # the machine speed right after set-up scales this child's set-up time
    speed = calibrate.SpeedLog()
    print(f"SCALE {calibrate.REFERENCE_S / speed.measure()!r}", flush=True)
    if args.role == "setup":
        return 0

    clock = OpClock()
    first_pass = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    results = run_passes(wl, cases, args.seed, seconds, clock, first_pass, speed)
    out = summarize(results)
    out["passes"] = len(results) // len(first_pass)
    out["attempted"] = out["ops"]
    if args.trace:
        tr = tracing.Tracer()
        clock.tracer = tr
        with tr.installed():
            traced = run_passes(wl, cases, args.seed, seconds, clock, first_pass,
                                speed)
        t = summarize(traced)
        layers = tracing.layer_metrics(tr, t["ops"], t["evals"])
        layers["trace.untraced_ops_per_s"] = {"value": out["ops_per_s"], "unit": "1/s"}
        layers["trace.traced_ops_per_s"] = {"value": t["ops_per_s"], "unit": "1/s"}
        layers["trace.overhead_frac"] = {
            "value": 1.0 - t["ops_per_s"] / out["ops_per_s"], "unit": "share"}
        out["per_layer"] = layers
        out["attempted"] += t["ops"]
        out["failed"] += t["failed"]
        out["failures"] = sorted(set(out["failures"] + t["failures"]))[:20]
        spans = Path(args.out) / f"{args.workload}-seed{args.seed}.spans.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tr.save(spans)
        out["spans_file"] = str(spans)
        out["spans"] = len(tr.start)
    out["gates"] = wl.gates()
    out["evals_per_op"] = out["evals"] / out["ops"]
    out["calibration_bursts_s"] = speed.bursts()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment(args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
