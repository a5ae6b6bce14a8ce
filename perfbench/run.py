#!/usr/bin/env python3
"""GNUMAP-SNP benchmark: one command, four workloads, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the libraries, gnumapd,
gnumap_index and the harness from source (into $CARGO_TARGET_DIR, default
.bench_build), generates seeded inputs with the repo's simulator, runs the
workload, checks its outputs, and prints one JSON line as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from a separate traced run.  A failed check or a broken
component exits non-zero without a result.  Traces, per-layer tables and a
run record (nproc, load average, threads, operations) land in
perfbench-out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from lib import build, workloads  # noqa: E402
from lib.procs import BenchError  # noqa: E402


def exit_on_signal(signum, _frame):
    # SystemExit unwinds through every finally block, which stops daemons.
    raise SystemExit(128 + signum)


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, exit_on_signal)
    signal.signal(signal.SIGINT, exit_on_signal)

    specs = metric_specs(args.trace)
    build_dir = build.build(ROOT)
    out_dir = os.path.join(ROOT, "perfbench-out")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=label + "-", dir=tmp_root)
    load_before = os.getloadavg()
    started = time.time()
    try:
        ctx = workloads.Context(build_dir, workdir, out_dir, args.seed,
                                args.seconds, bool(args.trace), label)
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in result.metrics:
            value = result.metrics[name]
        elif args.trace:
            value = 0  # the layer does not run on this workload (README)
        else:
            raise BenchError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": spec["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.time() - started,
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics, **result.record,
    }
    with open(os.path.join(out_dir, label + ".run.json"), "w") as f:
        json.dump(record, f, indent=1)
    if "table" in result.record:
        sys.stderr.write(result.record["table"] + "\n")
    sys.stderr.write(
        f"perfbench {label}: nproc {record['nproc']}, load "
        f"{load_before[0]:.2f}->{record['loadavg_after'][0]:.2f}, threads "
        f"{json.dumps(result.record.get('threads', {}))}, attempted "
        f"{result.attempted}, failed {result.failed}\n")
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        sys.stderr.write(f"perfbench: FAILED: {e}\n")
        sys.exit(1)
