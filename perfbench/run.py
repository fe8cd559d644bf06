"""Benchmark of the barcode-pair workbench: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig4_sample_sweep --seed 0 \
        --seconds 36 --trace 0

Each experiment call runs in a fresh child process (``workload.py``) with
one BLAS thread; the workload seed becomes the experiment's
``master_seed``. With ``--trace 0`` the call is repeated, each time in a
new process, while at least half of another one still fits in
``--seconds``. With ``--trace 1`` one untraced and one traced call are
made. Set-up time is the median over several fresh processes that only set
up. Times are rescaled to a reference host speed by a probe
(``probe.py``), because the shared host's speed drifts more than the
bounds allow; the raw wall times are printed as ``.wall`` metrics. The
records are checked (see ``check.py``) and every metric is printed by name
with its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Results, CSVs and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from check import (
    check_structure,
    compare_golden,
    differing_points,
    final_test_acc,
)
from probe import REF_KERNEL_S, rescale
from workload import WORKLOADS, make_workload_config

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0
# one BLAS thread leaves the second core of a 2-core machine free
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def child_cmd(args, *extra):
    return [sys.executable, str(HERE / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def time_setup(args, env, timeout):
    """(seconds from starting a process until it reports set-up done,
    the probe loop time right after)."""
    start = time.perf_counter()
    proc = subprocess.Popen(child_cmd(args, "--setup-only"), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{err}")
    return elapsed, float(rest)


def load_golden(workload, seed):
    path = GOLDEN_DIR / f"{workload}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["rows"]


def run_child(args, env, out, trace, timeout):
    """One experiment call in a fresh process; returns its result dict."""
    out.unlink(missing_ok=True)
    proc = subprocess.run(child_cmd(args, "--trace", str(trace),
                                    "--out", str(out)),
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def run_checks(calls, config, golden):
    """{(trial, n) or (check, ""): [problem, ...]} over every check."""
    failures = defaultdict(list)
    rows = calls[0]["records"]
    for point, errors in check_structure(rows, config).items():
        failures[point] += errors
    if golden is not None:
        for point, errors in compare_golden(
                rows, golden, 2 * config.test_per_class).items():
            failures[point] += errors
    for other in calls[1:]:
        what = "the traced call" if "layers" in other else "a repeated call"
        for point in differing_points(rows, other["records"]):
            failures[point].append(f"{what} gave other records")
        if "layers" in other:
            if not other["trace_restored"]:
                failures[("trace", "")].append(
                    "wrapped functions were not restored")
            if other["split_overlap"]:
                failures[("trace", "")].append(
                    f"{other['split_overlap']} test pairs are also "
                    "training pairs")
    return failures


def call_seconds(call):
    """A call's seconds at the probe's reference host speed."""
    return rescale(call["seconds"], call["kernel_s"])


def end_to_end(calls, setups):
    untraced = [c for c in calls if "layers" not in c]
    points = calls[0]["points"]
    acc = final_test_acc(calls[0]["records"])
    e2e = {
        "setup_s": (statistics.median(rescale(*s) for s in setups), "s"),
        "trials_per_s": (points / statistics.median(
            call_seconds(c) for c in untraced), "1/s"),
        "peak_rss_mb": (statistics.median(
            c["peak_rss_mb"] for c in untraced), "MB"),
        "test_acc.qnn_m": (acc["qnn_m"], "fraction"),
    }
    others = {
        "setup_s.wall": (statistics.median(s for s, _ in setups), "s"),
        "trials_per_s.wall": (points / statistics.median(
            c["seconds"] for c in untraced), "1/s"),
    }
    others.update((f"test_acc.{m}", (v, "fraction"))
                  for m, v in sorted(acc.items()) if m != "qnn_m")
    return e2e, others


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "artifact" / "__init__.py").is_file():
        print("error: src/artifact not found; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(root)

    calls = []
    try:
        setups = [time_setup(args, env, deadline - time.monotonic())
                  for _ in range(SETUP_PROBES)]
        if args.trace:
            for trace in (0, 1):
                calls.append(run_child(args, env,
                                       out_dir / f"{stem}-call{trace}.json",
                                       trace, deadline - time.monotonic()))
        else:
            start = time.monotonic()
            spent = []
            # start another call while at least half of one still fits
            while not spent or (time.monotonic() - start
                                + statistics.median(spent) / 2
                                <= args.seconds):
                began = time.monotonic()
                calls.append(run_child(
                    args, env, out_dir / f"{stem}-call{len(calls)}.json", 0,
                    deadline - began))
                spent.append(time.monotonic() - began)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(root / "src"))
    config = make_workload_config(args.workload, args.seed)
    golden = load_golden(args.workload, args.seed)
    failures = run_checks(calls, config, golden)
    attempted = calls[0]["points"]
    failed_points = [p for p in failures if isinstance(p[0], int)]
    # a failure not tied to one trial (tracing, pooled accuracy) fails all
    failed = len(failed_points) if len(failed_points) == len(failures) \
        else attempted
    e2e, extra = end_to_end(calls, setups)
    if args.trace:
        metrics = calls[1]["layers"]
        # traced over untraced trials_per_s
        metrics["trace.overhead"] = (
            call_seconds(calls[0]) / call_seconds(calls[1]), "ratio")
    else:
        metrics = e2e

    res = calls[0]
    env_line = "  ".join(f"{k} {v}" for k, v in res["env"].items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env: {env_line}")
    times = ", ".join(f"{c['seconds']:.3f} s at loop "
                      f"{1e3 * c['kernel_s']:.3f} ms" for c in calls)
    print(f"calls: {len(calls)} ({times}), {attempted} trials each, one "
          "process each; set-up probes: "
          + ", ".join(f"{s:.3f} s at loop {1e3 * k:.3f} ms"
                      for s, k in setups))
    print(f"times rescaled to a probe loop time of {1e3 * REF_KERNEL_S:g} "
          "ms (probe.py); .wall metrics are not rescaled")
    shown = dict(e2e)
    shown["failed_frac"] = (failed / attempted, "fraction")
    shown.update(extra)
    if args.trace:
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"{name}: {value:.6g} {unit}")
    if calls[-1].get("trace_missing"):
        print("trace: not wrapped (absent): "
              + ", ".join(calls[-1]["trace_missing"]))
    print("reference records:", "compared" if golden is not None
          else f"none stored for seed {args.seed}; structural checks only")
    for point, errors in sorted(failures.items(), key=str):
        for error in errors[:5]:
            print(f"FAILED {point}: {error}")

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"{stem}-result.json").write_text(json.dumps(
        {**summary, "env": res["env"], "setup_probes_s": setups,
         "calls_s": [c["seconds"] for c in calls],
         "calls_kernel_s": [c["kernel_s"] for c in calls], "shown": shown,
         "failures": {str(k): v for k, v in failures.items()}}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
