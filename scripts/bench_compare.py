#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Guards two throughput surfaces in CI:

* PHMM kernel (default): a fresh google-benchmark JSON (the bench-smoke leg
  runs bench_ablation_phmm with --benchmark_out) is compared row-by-row
  against the committed BENCH_phmm.json, and any benchmark whose ``gcups``
  counter regressed by more than the threshold fails the run.

* Pipeline (--pipeline): a fresh BENCH_pipeline.json (written by
  bench_pipeline_stream) is compared on ``reads_per_sec``, covering both
  the monolithic-vs-streaming ``runs`` rows and the ``drain_scaling`` rows
  (one worker-format row per thread count).

* Fleet startup (--startup): the JSON written by ``gnumap_index
  --startup-json`` is gated on its own two timings, no committed baseline:
  the mmap instant-start load must be at least ``--startup-factor`` times
  faster than rebuilding the index from FASTA (default 10x, or the
  GNUMAP_STARTUP_FACTOR environment variable).  This is the contract the
  fleet index file exists to honour — a cold gnumapd restart costing a
  rebuild is a regression even when every throughput row is green.

Only rows present in BOTH files are compared (a renamed or added benchmark
is reported, not fatal — the committed baseline trails new code by design).
Rows without the compared counter are skipped.  Context drift (build type,
cpu count, workload shape) is printed so a "regression" on noisy shared
hardware is diagnosable at a glance.

Usage:
    bench_compare.py fresh.json [--baseline BENCH_phmm.json]
                     [--threshold 0.15] [--pipeline]

The threshold is a fraction (0.15 = fail below 85% of baseline); the
GNUMAP_BENCH_THRESHOLD environment variable overrides the default, the
flag overrides both.  Re-baselining after an intentional change is just
committing the fresh file as the baseline (see docs/OBSERVABILITY.md).

Stdlib only.  Exit codes: 0 ok, 1 regression, 2 bad input.
"""

import argparse
import json
import os
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_phmm_rows(path):
    doc = load_json(path)
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "gcups" in bench:
            rows[bench["name"]] = float(bench["gcups"])
    return doc.get("context", {}), rows


def load_pipeline_rows(path):
    doc = load_json(path)
    rows = {}
    for run in doc.get("runs", []):
        key = f"{run.get('mode')}/r{run.get('reads')}"
        if "reads_per_sec" in run:
            rows[key] = float(run["reads_per_sec"])
    for run in doc.get("drain_scaling", []):
        key = f"drain_scaling/t{run.get('threads')}/{run.get('mode')}"
        if "reads_per_sec" in run:
            rows[key] = float(run["reads_per_sec"])
    context = {k: doc.get(k)
               for k in ("genome_bp", "threads", "stream_batch",
                         "queue_depth")}
    return context, rows


def check_startup(path, factor):
    doc = load_json(path)
    build = doc.get("build_seconds")
    load = doc.get("load_seconds")
    if not isinstance(build, (int, float)) or not isinstance(
            load, (int, float)) or build <= 0.0 or load < 0.0:
        print(f"bench_compare: {path} has no usable build_seconds/"
              f"load_seconds", file=sys.stderr)
        return 2
    speedup = build / load if load > 0.0 else float("inf")
    detail = (f"build {build:.4f}s vs mmap load {load:.6f}s "
              f"({speedup:.1f}x, need >={factor:.1f}x; "
              f"file_bytes={doc.get('file_bytes')}, "
              f"index_entries={doc.get('index_entries')})")
    if speedup < factor:
        print(f"bench_compare: FAIL: instant start too slow: {detail}",
              file=sys.stderr)
        return 1
    print(f"bench_compare: OK: {detail}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="fail on bench throughput regressions vs the committed "
                    "baseline")
    parser.add_argument("fresh", help="fresh bench JSON")
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline (default: repo BENCH_phmm.json, or "
             "BENCH_pipeline.json with --pipeline)")
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("GNUMAP_BENCH_THRESHOLD", "0.15")),
        help="max tolerated fractional drop (default %(default)s, "
             "or GNUMAP_BENCH_THRESHOLD)")
    parser.add_argument(
        "--pipeline", action="store_true",
        help="compare BENCH_pipeline.json reads_per_sec rows instead of "
             "google-benchmark gcups rows")
    parser.add_argument(
        "--startup", action="store_true",
        help="gate a gnumap_index --startup-json file: mmap load must be "
             "--startup-factor times faster than the index rebuild")
    parser.add_argument(
        "--startup-factor", type=float,
        default=float(os.environ.get("GNUMAP_STARTUP_FACTOR", "10")),
        help="required build/load speedup with --startup (default "
             "%(default)s, or GNUMAP_STARTUP_FACTOR)")
    args = parser.parse_args()
    if args.startup:
        if args.startup_factor <= 1.0:
            print("bench_compare: --startup-factor must be > 1",
                  file=sys.stderr)
            return 2
        return check_startup(args.fresh, args.startup_factor)
    if not 0.0 < args.threshold < 1.0:
        print("bench_compare: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.baseline is None:
        name = "BENCH_pipeline.json" if args.pipeline else "BENCH_phmm.json"
        args.baseline = os.path.join(repo, name)
    load_rows = load_pipeline_rows if args.pipeline else load_phmm_rows
    unit = "reads/s" if args.pipeline else "GCUPS"

    base_ctx, base = load_rows(args.baseline)
    fresh_ctx, fresh = load_rows(args.fresh)
    if not base or not fresh:
        print(f"bench_compare: no {unit} rows to compare", file=sys.stderr)
        return 2

    drift_keys = (("genome_bp", "threads", "stream_batch", "queue_depth")
                  if args.pipeline
                  else ("library_build_type", "num_cpus", "host_name"))
    for key in drift_keys:
        if base_ctx.get(key) != fresh_ctx.get(key):
            print(f"bench_compare: context drift: {key} baseline="
                  f"{base_ctx.get(key)!r} fresh={fresh_ctx.get(key)!r}")

    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    for name in only_base:
        print(f"bench_compare: note: baseline-only row {name} (skipped)")
    for name in only_fresh:
        print(f"bench_compare: note: new row {name} (no baseline yet)")

    regressions = []
    for name in sorted(set(base) & set(fresh)):
        base_val, fresh_val = base[name], fresh[name]
        if base_val <= 0.0:
            continue
        change = fresh_val / base_val - 1.0
        marker = ""
        if change < -args.threshold:
            regressions.append(name)
            marker = "  <-- REGRESSION"
        print(f"bench_compare: {name}: {base_val:.4f} -> "
              f"{fresh_val:.4f} {unit} ({change:+.1%}){marker}")

    if regressions:
        print(f"bench_compare: FAIL: {len(regressions)} row(s) regressed "
              f"more than {args.threshold:.0%}; if intentional, re-baseline "
              f"by committing the fresh JSON as {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(set(base) & set(fresh))} rows within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
