"""The four workloads: inputs, the timed run, the traced run, the checks.

Every workload function takes a Context and returns a Result holding the
end-to-end metrics (untraced run) or the per-layer metrics (traced run),
the operations attempted and failed, and a record of what ran.  A failed
check raises BenchError, so the run prints no result.
"""

import bisect
import json
import math
import os
import random
import statistics
import subprocess
from dataclasses import dataclass, field

from . import checks, stats, tracing
from .procs import BenchError, Fleet

# ---- Inputs (see README "Inputs") -------------------------------------------
GENOME_BP = 100_000
SNPS = 400
READ_LEN = 62
BATCH_COVERAGE = 10
SERVE_COVERAGE = 20
REQUESTS = 192
REQUEST_MIN_READS = 10
REQUEST_MAX_READS = 300

# ---- Shapes -----------------------------------------------------------------
BATCH_THREADS = 4
SERVE_THREADS = 1       # daemon mapping threads (per request)
SHARD_THREADS = 1       # per shard daemon
CONNECTIONS = 2         # load-generator connections, serve-small
ROUTED_CONNECTIONS = 1  # routed-small: 2 shards + router + client fit 4 cores,
                        # and the traced run needs requests one at a time
SPREAD_RANKS = 4
SETUP_REPS = 15
TRACE_REPS = 3          # traced batch-call drives, each beside a 1-thread run
ROUTED_SETUP_REPS = 9

# ---- Correctness bounds (README "Correctness bounds") -----------------------
MIN_PRECISION = 0.97
MIN_RECALL = 0.70
MIN_PLACEMENT_BATCH = 0.97
MIN_PLACEMENT_SERVED = 0.95
MIN_TAIL_SAMPLES = 100  # p90 with at least ten samples beyond it

HARNESS_TIMEOUT_S = 150


@dataclass
class Context:
    build_dir: str
    workdir: str
    out_dir: str
    seed: int
    seconds: float
    trace: bool
    label: str

    def binary(self, name):
        return os.path.join(self.build_dir, name)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    record: dict = field(default_factory=dict)


def harness(ctx, *args):
    """Runs one harness subcommand; a non-zero exit fails the run."""
    cmd = [ctx.binary("perfbench_harness"), *[str(a) for a in args]]
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            timeout=HARNESS_TIMEOUT_S)
    if result.returncode != 0:
        raise BenchError(f"harness {args[0]} failed (exit "
                         f"{result.returncode}): {result.stderr.strip()}")


def harness_json(ctx, name, *args):
    out = ctx.path(f"{name}.json")
    harness(ctx, *args, "--json", out)
    with open(out) as f:
        return json.load(f)


def generate(ctx, name, coverage):
    """Seeded reference, planted catalog and reads via the repo simulator."""
    d = ctx.path(name)
    os.makedirs(d, exist_ok=True)
    harness(ctx, "gen", "--out", d, "--seed", ctx.seed, "--length", GENOME_BP,
            "--snps", SNPS, "--coverage", coverage, "--read-length", READ_LEN)
    return d


def read_text(path):
    with open(path) as f:
        return f.read()


def check_calls(tsv_text, truth, what):
    score = checks.score_calls(checks.read_calls(tsv_text), truth)
    if score.precision < MIN_PRECISION or score.recall < MIN_RECALL:
        raise BenchError(
            f"{what}: precision {score.precision:.3f} / recall "
            f"{score.recall:.3f} below the bounds {MIN_PRECISION} / "
            f"{MIN_RECALL} ({score})")
    return score


def check_placement(sam_texts, bound, what):
    reads = placed = 0
    for text in sam_texts:
        p = checks.sam_placement(text)
        reads += p.reads
        placed += p.placed
    rate = placed / reads if reads else 0.0
    if rate < bound:
        raise BenchError(f"{what}: SAM placement {rate:.4f} "
                         f"({placed}/{reads}) below the bound {bound}")
    return rate


def latency_metrics(latencies_s, runs_are_requests):
    """request_p50_ms / request_p90_ms.  Served requests need at least 100
    samples so p90 has ten beyond it.  Whole-input runs number 10-30, too
    few for any tail, so their p90 slot carries the median alone (README)."""
    p50 = statistics.median(latencies_s) * 1e3
    if not runs_are_requests:
        return p50, p50
    p90 = stats.percentile(latencies_s, 90.0)
    if p90 is None:
        raise BenchError(f"only {len(latencies_s)} requests completed; "
                         f"p90 needs {MIN_TAIL_SAMPLES}")
    return p50, p90 * 1e3


def e2e(setup_s, reads_per_s, requests_per_s, p50, p90, rss, true_calls):
    return {
        "setup_s": setup_s,
        "reads_per_s": reads_per_s,
        "requests_per_s": requests_per_s,
        "request_p50_ms": p50,
        "request_p90_ms": p90,
        "peak_rss_mb": rss,
        "true_calls": true_calls,
    }


def med(values):
    return statistics.median(values) if values else 0.0


def trace_outputs(ctx, spans_path, rows):
    """Copies the Chrome trace next to the run record and writes the
    per-layer summary table."""
    base = os.path.join(ctx.out_dir, ctx.label)
    os.replace(spans_path, base + ".trace.json")
    table = tracing.summary_table(rows)
    with open(base + ".layers.txt", "w") as f:
        f.write(table + "\n")
    return base + ".trace.json", table


# ---- batch-call ---------------------------------------------------------------

def batch_call(ctx):
    d = generate(ctx, "batch", BATCH_COVERAGE)
    ref, reads = os.path.join(d, "reference.fa"), os.path.join(d, "reads.fastq")
    truth = checks.read_catalog(read_text(os.path.join(d, "truth.catalog")))
    if ctx.trace:
        return batch_call_traced(ctx, ref, reads)

    run = harness_json(ctx, "batch", "batch", "--ref", ref, "--reads", reads,
                       "--threads", BATCH_THREADS, "--seconds", ctx.seconds,
                       "--setup-reps", SETUP_REPS, "--warmup",
                       "--out-tsv", ctx.path("batch.tsv"),
                       "--out-sam", ctx.path("batch.sam"))
    # Design guarantee: the same bytes at 1 thread.
    harness(ctx, "batch", "--ref", ref, "--reads", reads, "--threads", 1,
            "--seconds", 0, "--setup-reps", 1, "--json", ctx.path("one.json"),
            "--out-tsv", ctx.path("one.tsv"), "--out-sam", ctx.path("one.sam"))
    tsv, sam = read_text(ctx.path("batch.tsv")), read_text(ctx.path("batch.sam"))
    if tsv != read_text(ctx.path("one.tsv")) or \
            sam != read_text(ctx.path("one.sam")):
        raise BenchError(f"batch-call: {BATCH_THREADS}-thread TSV/SAM differs "
                         "from the 1-thread run")
    score = check_calls(tsv, truth, "batch-call")
    placement = check_placement([sam], MIN_PLACEMENT_BATCH, "batch-call")

    runs = len(run["latencies_s"])
    p50, p90 = latency_metrics(run["latencies_s"], runs_are_requests=False)
    metrics = e2e(med(run["setup_s"]), run["reads_done"] / run["measured_s"],
                  runs / run["measured_s"], p50, p90, run["peak_rss_mb"],
                  score.true_calls)
    record = {"checks": {"precision": score.precision, "recall": score.recall,
                         "placement": placement, "one_thread_identical": True},
              "threads": {"mapping": BATCH_THREADS},
              "reads_per_run": run["reads_per_run"], "runs": runs,
              "reads_in_flight_peak": run["reads_in_flight_peak"]}
    return Result(metrics, attempted=runs, failed=0, record=record)


def batch_call_traced(ctx, ref, reads):
    spans_path = ctx.path("batch.trace.json")
    t = harness_json(ctx, "trace", "trace-batch", "--ref", ref,
                     "--reads", reads, "--threads", BATCH_THREADS,
                     "--reps", TRACE_REPS, "--trace-out", spans_path)
    self_s, counts = tracing.self_times(tracing.load_spans(spans_path))
    per_drive = {name: total / TRACE_REPS for name, total in self_s.items()}
    decode = per_drive["FastqReadStream::next"]
    seed = per_drive["Seeder::candidates"]
    score = per_drive["ReadMapper::score_reads"]
    accum = per_drive["ReadMapper::accumulate"]
    render = per_drive["append_sam_record"] + per_drive["append_snps_tsv"]
    call = per_drive["call_snps"]
    fwd, bwd = t["phmm_forward_s"], t["phmm_backward_s"]
    busy = t["map_stage_nt_s"] + t["format_nt_s"]
    # The traced drive seeds every read once more, outside score_reads, to
    # time the seeder; the untraced session seeds only inside it, so the
    # attributed time leaves that pass out.  Drives alternate with untraced
    # 1-thread sessions and the medians are compared.
    wall_1t = med(t["wall_1t_s"])
    residual = (wall_1t - med(t["attributed_s"])) / wall_1t
    overhead = t["spans"] * t["span_cost_s"] / sum(t["traced_wall_s"])
    layers = {
        "io.decode_s": decode,
        "io.decode_mb_per_s": t["bytes_decoded"] / decode / 1e6,
        "io.render_s": render,
        "io.output_bytes": t["output_bytes"],
        "index.build_s": t["index_build_s"],
        "index.bytes": t["index_bytes"],
        "index.seed_s": seed,
        "index.candidates_per_read": t["candidates"] / t["reads"],
        "phmm.forward_s": fwd,
        "phmm.backward_s": bwd,
        "phmm.dp_cells": t["dp_cells"],
        "phmm.ns_per_cell": (fwd + bwd) / t["dp_cells"] * 1e9,
        "phmm.fb_cpu_s_1t": med(t["fb_1t_s"]),
        "phmm.fb_cpu_s_4t": t["fb_nt_s"],
        "core.score_s": score,
        "core.posterior_s": score - seed - fwd - bwd,
        "core.map_s": t["map_nt_s"],
        "core.worker_busy_s": busy,
        "core.batch_wait_s": t["threads"] * t["map_nt_s"] - busy,
        "core.splice_s": t["splice_nt_s"],
        "core.reads_in_flight_peak": t["in_flight_peak_nt"],
        "core.reads_in_flight_bound": t["in_flight_bound_nt"],
        "accum.add_s": accum,
        "accum.bytes": t["accum_bytes"],
        "call.call_s": call,
        "call.positions_tested": t["positions_tested"],
        "trace.residual_share": residual,
        "trace.overhead_share": overhead,
        "trace.spans": t["spans"],
    }
    rows = [(name, per_drive[name], counts[name], note) for name, note in (
        ("FastqReadStream::next", "io"),
        ("Seeder::candidates", "index (extra pass, see README)"),
        ("ReadMapper::score_reads", f"core; phmm fwd {fwd:.3f} s bwd {bwd:.3f} s"),
        ("ReadMapper::accumulate", "accum"),
        ("append_sam_record", "io (to_sam_records + render)"),
        ("call_snps", "call"),
        ("append_snps_tsv", "io"))]
    rows.append(("MappingSession::MappingSession",
                 self_s["MappingSession::MappingSession"], 1, "index build"))
    rows.append(("residual vs 1-thread session", residual * wall_1t, TRACE_REPS,
                 f"{residual:.2%} of {wall_1t:.3f} s (medians)"))
    rows.append(("tracing overhead", t["spans"] * t["span_cost_s"], t["spans"],
                 f"{overhead:.4%} of traced wall"))
    trace_path, table = trace_outputs(ctx, spans_path, rows)
    record = {"trace": trace_path, "table": table,
              "threads": {"traced_drive": 1, "session": BATCH_THREADS},
              "untraced": {"wall_1t_s": t["wall_1t_s"],
                           "wall_nt_s": t["wall_nt_s"]},
              "traced_drives": TRACE_REPS}
    return Result(layers, attempted=TRACE_REPS, failed=0, record=record)


# ---- served requests ------------------------------------------------------------

def parse_fastq(text):
    """(origin, serial, record text) per read, from simulator read names."""
    lines = text.split("\n")
    out = []
    for i in range(0, len(lines) - 3, 4):
        _, origin, _, serial = lines[i][1:].rsplit(":", 3)
        out.append((int(origin), int(serial), "\n".join(lines[i:i + 4]) + "\n"))
    return out


def request_sizes(count):
    """A fixed log-uniform grid of request sizes: every seed gets the same
    size mix, so the latency distribution compares across seeds."""
    lo, hi = math.log(REQUEST_MIN_READS), math.log(REQUEST_MAX_READS)
    return [round(math.exp(lo + (i + 0.5) / count * (hi - lo)))
            for i in range(count)]


def make_requests(ctx, d):
    """Targeted-resequencing requests: each is the reads nearest one planted
    site, so small requests still carry callable coverage.  The seed picks
    the sites and which size goes with which site."""
    rng = random.Random(ctx.seed)
    reads = sorted(parse_fastq(read_text(os.path.join(d, "reads.fastq"))))
    origins = [r[0] for r in reads]
    sites = []
    for line in read_text(os.path.join(d, "truth.catalog")).splitlines():
        if line and not line.startswith("#"):
            sites.append(int(line.split("\t")[1]))
    sizes = request_sizes(REQUESTS)
    rng.shuffle(sizes)
    chosen = rng.sample(sites, REQUESTS)
    req_dir = ctx.path("requests")
    os.makedirs(req_dir, exist_ok=True)
    for i, (site, size) in enumerate(zip(chosen, sizes)):
        centre = site - READ_LEN // 2
        lo = hi = bisect.bisect_left(origins, centre)
        while hi - lo < size:
            if lo > 0 and (hi >= len(origins) or
                           centre - origins[lo - 1] <= origins[hi] - centre):
                lo -= 1
            else:
                hi += 1
        picked = sorted(reads[lo:hi], key=lambda r: r[1])
        with open(os.path.join(req_dir, f"req_{i:03d}.fastq"), "w") as f:
            f.write("".join(r[2] for r in picked))
    return req_dir


def request_outputs(req_dir):
    tsvs = [read_text(os.path.join(req_dir, f"req_{i:03d}.tsv"))
            for i in range(REQUESTS)]
    sams = [read_text(os.path.join(req_dir, f"req_{i:03d}.sam"))
            for i in range(REQUESTS)]
    return tsvs, sams


def served_true_calls(tsvs, truth):
    return sum(checks.score_calls(checks.read_calls(t), truth).true_calls
               for t in tsvs)


def load(ctx, name, port, req_dir, expected_dir, connections, seconds,
         extra=()):
    return harness_json(ctx, name, "load", "--port", port,
                        "--requests", req_dir, "--expected", expected_dir,
                        "--count", REQUESTS, "--connections", connections,
                        "--seconds", seconds, "--seed", ctx.seed, *extra)


def served_e2e(run, setup_s, rss, true_calls):
    p50, p90 = latency_metrics(run["latencies_s"], runs_are_requests=True)
    return e2e(setup_s, sum(run["reads_total"]) / run["measured_s"],
               run["attempted"] / run["measured_s"], p50, p90, rss,
               true_calls)


def build_index(ctx, ref, name, *args):
    """A gnumap_index mmap file (untimed preparation, not set-up)."""
    path = ctx.path(name)
    subprocess.run([ctx.binary("gnumap_index"), "--ref", ref, "--out", path,
                    "--quiet", *args], check=True, timeout=60)
    return path


def daemon_argv(ctx, *args):
    return [ctx.binary("gnumapd"), "--quiet", *[str(a) for a in args]]


def serve_small(ctx):
    d = generate(ctx, "serve", SERVE_COVERAGE)
    ref = os.path.join(d, "reference.fa")
    truth = checks.read_catalog(read_text(os.path.join(d, "truth.catalog")))
    req_dir = make_requests(ctx, d)
    # Expected bytes: MappingSession::run in-process on each request's reads.
    expect = harness_json(ctx, "expect", "expect", "--ref", ref,
                          "--requests", req_dir, "--count", REQUESTS)
    index = build_index(ctx, ref, "genome.gidx")
    argv = daemon_argv(ctx, "--index", index, "--threads", SERVE_THREADS)

    with Fleet(ctx.workdir) as fleet:
        # Cold starts from the mmap index; the last one takes the load.
        starts = []
        for rep in range(SETUP_REPS):
            daemon = fleet.start("gnumapd", argv)
            starts.append(daemon.wait_ready())
            if rep + 1 < SETUP_REPS:
                fleet.stop(daemon)
        extra = ()
        spans_path = ctx.path("serve.trace.json")
        if ctx.trace:
            extra = ("--trace-out", spans_path)
        run = load(ctx, "load", daemon.port, req_dir, req_dir, CONNECTIONS,
                   ctx.seconds, extra)
        rss = daemon.peak_rss_mb()
        daemon_threads = daemon.threads()
        daemon.check_alive()

    tsvs, sams = request_outputs(req_dir)
    placement = check_placement(sams, MIN_PLACEMENT_SERVED, "serve-small")
    true_calls = served_true_calls(tsvs, truth)
    record = {"checks": {"responses_equal_session": run["attempted"],
                         "placement": placement},
              "threads": {"daemon": daemon_threads,
                          "daemon_mapping": SERVE_THREADS,
                          "load_connections": CONNECTIONS,
                          "load_threads_peak": run["load_threads_peak"]},
              "rounds": run["rounds"]}
    if not ctx.trace:
        return Result(served_e2e(run, med(starts), rss, true_calls),
                      run["attempted"], 0, record)

    lat = run["latencies_s"]
    total = run["total_seconds"]
    server_attr = [a + m + c for a, m, c in zip(run["admission_wait_seconds"],
                                              run["map_seconds"],
                                              run["call_seconds"])]
    residual = (sum(total) - sum(server_attr)) / sum(lat)
    busy = [m + f for m, f in zip(run["map_stage_seconds"],
                                  run["format_seconds"])]
    layers = {
        "serve.server_s": med(total),
        "serve.wire_s": med([l - t for l, t in zip(lat, total)]),
        "serve.upload_wait_s": med(run["upload_wait_seconds"]),
        "serve.admission_wait_s": med(run["admission_wait_seconds"]),
        "serve.busy_retries": sum(run["busy_answers"]),
        "serve.bytes_in": med(run["upload_bytes"]),
        "serve.bytes_out": med(run["result_bytes"]),
        "fleet.index_load_s": med(run["index_load_seconds"]),
        "io.decode_s": med(run["decode_seconds"]),
        "io.decode_mb_per_s": sum(run["upload_bytes"]) /
                              sum(run["decode_seconds"]) / 1e6,
        "io.render_s": med(run["format_seconds"]),
        "io.output_bytes": med(run["result_bytes"]),
        "core.map_s": med(run["map_seconds"]),
        "core.worker_busy_s": med(busy),
        "core.splice_s": med(run["splice_seconds"]),
        "phmm.dp_cells": med(run["phmm_cells"]),
        "call.call_s": med(run["call_seconds"]),
        "call.positions_tested": med(expect["positions_tested"]),
        "trace.residual_share": residual,
        "trace.overhead_share": run["spans"] * run["span_cost_s"] /
                                (run["measured_s"] * CONNECTIONS),
        "trace.spans": run["spans"],
    }
    self_s, counts = tracing.self_times(tracing.load_spans(spans_path))
    rows = [("MappingClient::map", self_s["MappingClient::map"],
             counts["MappingClient::map"], "client latency, all requests")]
    for key in ("serve.server_s", "serve.wire_s", "serve.upload_wait_s",
                "serve.admission_wait_s", "io.decode_s", "core.map_s",
                "io.render_s", "call.call_s"):
        rows.append((key, layers[key], len(lat), "median per request"))
    rows.append(("server residual", sum(total) - sum(server_attr), len(lat),
                 f"{residual:.2%} of client latency"))
    rows.append(("tracing overhead", run["spans"] * run["span_cost_s"],
                 run["spans"], f"{layers['trace.overhead_share']:.4%}"))
    record["trace"], record["table"] = trace_outputs(ctx, spans_path, rows)
    return Result(layers, run["attempted"], 0, record)


def routed_small(ctx):
    d = generate(ctx, "serve", SERVE_COVERAGE)
    ref = os.path.join(d, "reference.fa")
    truth = checks.read_catalog(read_text(os.path.join(d, "truth.catalog")))
    req_dir = make_requests(ctx, d)
    index = build_index(ctx, ref, "genome.gidx")
    shard_index = [build_index(ctx, ref, f"shard{i}.gidx", "--shard", f"{i}/2")
                   for i in range(2)]

    with Fleet(ctx.workdir) as fleet:
        # The single daemon's answers: routed responses must match them.
        single = fleet.start("single", daemon_argv(
            ctx, "--index", index, "--threads", SERVE_THREADS))
        single.wait_ready()
        expected_dir = ctx.path("single")
        os.makedirs(expected_dir, exist_ok=True)
        load(ctx, "record", single.port, req_dir, req_dir, 1, 0,
             ("--record-dir", expected_dir))
        fleet.stop(single)

        starts = []
        for rep in range(ROUTED_SETUP_REPS):
            shards = []
            for i in range(2):
                argv = daemon_argv(ctx, "--index", shard_index[i], "--shard",
                                   f"{i}/2", "--threads", SHARD_THREADS)
                if ctx.trace:
                    argv += ["--admin-port", "0", "--admin-port-file",
                             ctx.path(f"shard{i}.admin")]
                shards.append(fleet.start(f"shard{i}", argv))
            for s in shards:
                s.wait_ready()
            router = fleet.start("router", daemon_argv(
                ctx, "--ref", ref, "--route",
                ",".join(f"127.0.0.1:{s.port}" for s in shards)))
            ready = router.wait_ready()
            starts.append(router.started + ready - shards[0].started)
            if rep + 1 < ROUTED_SETUP_REPS:
                fleet.stop_all()
        spans_path = ctx.path("routed.trace.json")
        extra = ()
        if ctx.trace:
            # One connection sends requests one at a time, so each shard's
            # /metrics delta between two requests is that request's time.
            admin = [read_text(ctx.path(f"shard{i}.admin")).strip()
                     for i in range(2)]
            extra = ("--trace-out", spans_path,
                     "--shard-admin-ports", ",".join(admin))
        run = load(ctx, "load", router.port, req_dir, expected_dir,
                   ROUTED_CONNECTIONS, ctx.seconds, extra)
        rss = sum(dm.peak_rss_mb() for dm in (*shards, router))
        threads = {dm.name: dm.threads() for dm in (*shards, router)}

    tsvs, sams = request_outputs(expected_dir)
    placement = check_placement(sams, MIN_PLACEMENT_SERVED, "routed-small")
    true_calls = served_true_calls(tsvs, truth)
    record = {"checks": {"responses_equal_single_daemon": run["attempted"],
                         "placement": placement},
              "threads": {**threads, "shard_mapping": SHARD_THREADS,
                          "load_connections": ROUTED_CONNECTIONS,
                          "load_threads_peak": run["load_threads_peak"]},
              "rounds": run["rounds"]}
    if not ctx.trace:
        return Result(served_e2e(run, med(starts), rss, true_calls),
                      run["attempted"], 0, record)

    lat, total = run["latencies_s"], run["total_seconds"]
    shard_max = run["shard_s_max"]
    merge = [t - s for t, s in zip(total, shard_max)]
    layers = {
        "serve.server_s": med(total),
        "serve.wire_s": med([l - t for l, t in zip(lat, total)]),
        "serve.busy_retries": sum(run["busy_answers"]),
        "serve.bytes_in": med(run["upload_bytes"]),
        "serve.bytes_out": med(run["result_bytes"]),
        "fleet.shard_s_max": med(shard_max),
        "fleet.merge_s": med(merge),
        "fleet.shard_bytes_out": med(run["shard_bytes_out"]),
        "phmm.dp_cells": med(run["phmm_cells"]),
        # The router has no stage timers: its time beyond the slowest
        # shard is the unattributed part.
        "trace.residual_share": sum(merge) / sum(lat),
        "trace.overhead_share": run["spans"] * run["span_cost_s"] /
                                run["measured_s"],
        "trace.spans": run["spans"],
    }
    self_s, counts = tracing.self_times(tracing.load_spans(spans_path))
    rows = [("MappingClient::map", self_s["MappingClient::map"],
             counts["MappingClient::map"], "client latency, sequential")]
    for key in ("serve.server_s", "serve.wire_s", "fleet.shard_s_max",
                "fleet.merge_s"):
        rows.append((key, layers[key], len(lat), "median per request"))
    rows.append(("router residual (= merge)", sum(merge), len(lat),
                 f"{layers['trace.residual_share']:.2%} of client latency"))
    rows.append(("tracing overhead", run["spans"] * run["span_cost_s"],
                 run["spans"], f"{layers['trace.overhead_share']:.4%}"))
    record["trace"], record["table"] = trace_outputs(ctx, spans_path, rows)
    return Result(layers, run["attempted"], 0, record)


# ---- spread-memory ----------------------------------------------------------------

def spread_memory(ctx):
    d = generate(ctx, "batch", BATCH_COVERAGE)
    ref, reads = os.path.join(d, "reference.fa"), os.path.join(d, "reads.fastq")
    truth = checks.read_catalog(read_text(os.path.join(d, "truth.catalog")))
    spans_path = ctx.path("spread.trace.json")
    extra = ("--trace-out", spans_path) if ctx.trace else ()
    run = harness_json(ctx, "spread", "spread", "--ref", ref, "--reads", reads,
                       "--seconds", ctx.seconds, "--ranks", SPREAD_RANKS,
                       "--setup-reps", SETUP_REPS, "--max-read-len", READ_LEN,
                       "--out-tsv", ctx.path("spread.tsv"), *extra)
    score = check_calls(read_text(ctx.path("spread.tsv")), truth,
                        "spread-memory")
    runs = len(run["latencies_s"])
    record = {"checks": {"precision": score.precision, "recall": score.recall,
                         "bytes_sent_equal_received": True},
              "threads": {"ranks": SPREAD_RANKS}, "runs": runs}
    if not ctx.trace:
        p50, p90 = latency_metrics(run["latencies_s"], runs_are_requests=False)
        metrics = e2e(med(run["setup_s"]),
                      run["reads_done"] / run["measured_s"],
                      runs / run["measured_s"], p50, p90, run["peak_rss_mb"],
                      score.true_calls)
        return Result(metrics, runs, 0, record)

    self_s, counts = tracing.self_times(tracing.load_spans(spans_path))
    decode = self_s["FastqReadStream::next"] / runs
    fwd, bwd = run["phmm_forward_s"] / runs, run["phmm_backward_s"] / runs
    cells = run["dp_cells"] / runs
    walls = run["dist_wall_s"]
    imbalance = [m / a for m, a in zip(run["rank_compute_max_s"],
                                       run["rank_compute_mean_s"])]
    residual = med([(w - c) / w for w, c in zip(walls,
                                                run["rank_compute_max_s"])])
    layers = {
        "mpsim.messages": run["messages"],
        "mpsim.bytes": run["bytes"],
        "mpsim.wait_s": med(run["rank_wait_mean_s"]),
        "mpsim.rank_compute_max_s": med(run["rank_compute_max_s"]),
        "mpsim.imbalance": med(imbalance),
        "accum.bytes": run["accum_bytes"],
        "index.build_s": self_s["HashIndex::HashIndex"] / SETUP_REPS,
        "index.bytes": run["index_bytes"],
        "io.decode_s": decode,
        "io.decode_mb_per_s": run["bytes_decoded"] / runs / decode / 1e6,
        "phmm.forward_s": fwd,
        "phmm.backward_s": bwd,
        "phmm.dp_cells": cells,
        "phmm.ns_per_cell": (fwd + bwd) / cells * 1e9,
        "core.map_s": med(walls),
        "trace.residual_share": residual,
        "trace.overhead_share": run["spans"] * run["span_cost_s"] /
                                run["measured_s"],
        "trace.spans": run["spans"],
    }
    rows = [(name, self_s[name] / reps, counts[name], note)
            for name, reps, note in (
                ("run_distributed", runs, "mpsim world, per run"),
                ("FastqReadStream::next", runs, "io, rank 0 decoder, per run"),
                ("HashIndex::HashIndex", SETUP_REPS,
                 "index, segment builds per set-up"))]
    rows.append(("critical path beyond slowest rank compute",
                 sum(w - c for w, c in zip(walls, run["rank_compute_max_s"])),
                 runs, f"{residual:.2%} of run wall (median)"))
    rows.append(("tracing overhead", run["spans"] * run["span_cost_s"],
                 run["spans"], f"{layers['trace.overhead_share']:.4%}"))
    record["trace"], record["table"] = trace_outputs(ctx, spans_path, rows)
    return Result(layers, runs, 0, record)


WORKLOADS = {
    "batch-call": batch_call,
    "serve-small": serve_small,
    "routed-small": routed_small,
    "spread-memory": spread_memory,
}
