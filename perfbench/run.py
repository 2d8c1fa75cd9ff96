"""Consonance benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload opt_bipartite --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ``src/``.
This launcher starts child.py five times in a row with the BLAS thread
count capped at 1.  Each child imports the package, draws the inputs from
the seed and warms up; the time from its start to its ``READY`` line is
one set-up sample.  The first four children stop there, the last runs
the timed loop.  ``setup_s`` is the median of the five samples.

The machine's speed drifts, so every time metric is scaled to a reference
speed: each child runs the fixed kernel of calibrate.py right after
set-up and between its timed ops, and a time is multiplied by
``REFERENCE_S`` over the kernel's CPU time around it.  The report keeps
the unscaled figures beside the scaled ones.

Every end-to-end metric is printed with its unit and sample count, the
full report goes to ``perfbench_out/``, and the last line of stdout is
the JSON summary.  The exit code is 0 when every op and every gate is
correct, 1 on a correctness failure and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKLOADS = ("opt_bipartite", "opt_ghz3", "oracle_scan", "measures_sweep")
SETUP_RUNS = 5
DEADLINE_S = 170.0

# the metrics a later change is held to (see BENCHMARK.json); the report
# also carries op_tail_ms, fail_frac and the per-frame split
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "solved_frac": "share", "peak_rss_mb": "MB"}
BLAS_CAP = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": "unknown", "git_dirty": None}
    if rev.returncode != 0:
        return {"git_rev": "unknown", "git_dirty": None}
    return {"git_rev": rev.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def run_child(args, role: str, deadline: float):
    """Start one child; return (set-up seconds, its machine-speed scale,
    its result dict or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--out", str(OUT)]
    env = dict(os.environ, **BLAS_CAP, PYTHONPATH=str(SRC),
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        scale = proc.stdout.readline().split()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or scale[:1] != ["SCALE"] or proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, float(scale[1]), (json.loads(lines[-1]) if role == "measure" else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "consonance" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'consonance'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups, raw_setups = [], []
    try:
        for k in range(SETUP_RUNS):
            role = "measure" if k == SETUP_RUNS - 1 else "setup"
            setup, scale, res = run_child(args, role, deadline)
            raw_setups.append(setup)
            setups.append(setup * scale)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gates = res.get("gates", {})
    failed = res["failed"] + sum(not ok for ok in gates.values())
    correct = failed == 0
    res["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    res["setup_wall_samples_s"] = raw_setups
    res["environment"].update(git_state())
    res["workload"] = args.workload
    res["correct"] = correct

    ops = res["ops"]
    counts = {"setup_s": len(setups), "peak_rss_mb": 1}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} evals_per_op={res['evals_per_op']:.1f} "
          f"speed={res['speed']:.3f} (cpu ops_per_s={res['cpu_ops_per_s']:.6g}, "
          f"op_p50_ms={res['cpu_op_p50_ms']:.6g}; wall setup_s="
          f"{statistics.median(raw_setups):.6g})")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {res[name]:>12.6g} {unit:<6} n={counts.get(name, ops)}")
    if res["op_tail_ms"] is None:
        print(f"  {'op_tail_ms':<12} {'n/a':>12} {'ms':<6} n={ops} "
              f"(too few ops for 10 beyond p75)")
    else:
        print(f"  {'op_tail_ms':<12} {res['op_tail_ms']:>12.6g} {'ms':<6} n={ops} "
              f"(p{res['op_tail_percentile']:g})")
    print(f"  {'fail_frac':<12} {res['fail_frac']:>12.6g} {'share':<6} n={ops}")
    for frame, f in res["frames"].items():
        print(f"  frame {frame}: share {f['share']:.3f}, solved_frac "
              f"{f['solved_frac']:.3f} of {f['ops']} ops")
    for gate, ok in gates.items():
        print(f"  gate {gate}: {'ok' if ok else 'FAILED'}")
    for note in res["failures"]:
        print(f"  failure: {note}")
    for name, m in res.get("per_layer", {}).items():
        print(f"  layer {name:<30} {m['value']:>12.6g} {m['unit']}")
    print(f"  env {json.dumps(res['environment'])}")

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(res, indent=1) + "\n")

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {n: {"value": res[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
