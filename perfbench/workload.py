"""One benchmark process: set up, make one experiment call, save results.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS thread count fixed in its environment. It drives the library
only through the calls ``artifact run`` makes: ``make_config`` ->
``run_experiment`` -> ``emit_csv``. Each call gets a fresh process, so no
cache inside the program carries over from one measured call to the next.

``--setup-only`` stops after set-up, prints ``ready`` and then the
host-speed probe's loop time (``probe.py``); ``run.py`` times several such
processes for ``setup_s``. Otherwise the process makes one call, traced
with ``--trace 1``, and writes a JSON file holding the environment, the
call's time without the probe's, the probe's median loop time during the
call, peak memory, the records at full precision, and with ``--trace 1``
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from probe import Sampler, burst

# name -> (experiment, trials); every other config field keeps its default
WORKLOADS = {
    "fig3_variational": ("fig3", 1),
    "fig4_sample_sweep": ("fig4", 1),
    "fig5_size_sweep": ("fig5", 10),
}
RECORD_FIELDS = ("trial", "model", "n", "M", "epoch", "train_loss",
                 "train_acc", "test_acc", "seed", "wall_ms")


def make_workload_config(workload, seed):
    from artifact import make_config

    experiment, trials = WORKLOADS[workload]
    return make_config(experiment, trials=trials, master_seed=seed)


def sizes(config):
    return config.sweep_n if config.experiment == "fig5" else (config.n,)


def setup(workload, seed):
    """Import, resolve the config and build the operator pool of every n."""
    import artifact.symmetry

    config = make_workload_config(workload, seed)
    for n in sizes(config):
        artifact.symmetry.build_pool(n)
    return config


def trial_of_seed(config):
    """Map each trial's training-pool seed back to its trial index."""
    from artifact import derive_seed

    table = {}
    for trial in range(config.trials):
        if config.experiment == "fig5":
            for n in config.sweep_n:
                table[derive_seed(config.master_seed, "fig5", trial,
                                  f"n{n}:data")] = trial
        else:
            table[derive_seed(config.master_seed, config.experiment, trial,
                              "data")] = trial
    return table


def run_call(config, csv_path, tracer=None):
    """One ``artifact run``: returns (records, seconds)."""
    from artifact import emit_csv, run_experiment

    from tracing import EMIT, ROOT

    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    start = time.perf_counter()
    with span(ROOT):
        records = run_experiment(config)
    with span(EMIT):
        emit_csv(records, csv_path)
    return records, time.perf_counter() - start


def as_rows(records):
    return [[getattr(r, f) for f in RECORD_FIELDS] for r in records]


def git_revision(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(src):
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root, seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src"),
        "workload_seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result JSON path")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        from tracing import Tracer

        originals = Tracer.originals()
        tracer = Tracer()
        tracer.install()
    try:
        config = setup(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0
    root = Path.cwd()
    src = (root / "src").resolve()
    if not Path(sys.modules["artifact"].__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"artifact not imported from {src}")
    if args.setup_only:
        print("ready", flush=True)
        print(burst(), flush=True)
        return 0

    out = Path(args.out)
    points = config.trials * len(sizes(config))
    result = {"env": environment(root, args.seed), "setup_s": setup_s,
              "workload": args.workload, "experiment": config.experiment,
              "trials": config.trials, "points": points}
    sampler = Sampler()
    if tracer is None:
        with sampler:
            records, seconds = run_call(config, out.with_suffix(".csv"))
    else:
        from tracing import layer_metrics

        tracer.trial_of_seed = trial_of_seed(config)
        call_start = len(tracer.spans)
        tracer.install()
        try:
            with sampler:
                records, seconds = run_call(config, out.with_suffix(".csv"),
                                            tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer, call_start, points * 2 * config.test_per_class)
        metrics["harness.rows"] = (len(records), "count")
        result["layers"] = metrics
        result["trace_missing"] = tracer.missing
        result["trace_restored"] = Tracer.restored(originals)
        result["split_overlap"] = tracer.counts["split_overlap"]
        tracer.write_spans(out.with_name(out.stem + "-spans.csv.gz"))

    result.update({
        "seconds": seconds - sampler.spent(),
        "kernel_s": sampler.kernel_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "records": as_rows(records),
    })
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
