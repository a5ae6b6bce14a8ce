// Offline subcommands: input generation, batch calling (timed and traced),
// expected outputs for served requests, and the spread-memory mode.
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/sam_export.hpp"
#include "gnumap/core/session.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/genome/partition.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/sam.hpp"
#include "gnumap/io/snp_catalog.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/timer.hpp"

using namespace gnumap;

namespace perfbench {
namespace {

std::string render_tsv(const std::vector<SnpCall>& calls) {
  std::string tsv;
  append_snps_tsv_header(tsv);
  append_snps_tsv_body(tsv, calls);
  return tsv;
}

/// Positions call_snps runs the LRT on: concrete reference bases inside a
/// contig whose accumulated mass reaches min_coverage (the caller's own
/// skip rules, recomputed from the accumulator).
std::uint64_t positions_tested(const Genome& genome, const Accumulator& accum,
                               const PipelineConfig& config) {
  std::uint64_t tested = 0;
  for (GenomePos pos = accum.begin(); pos < accum.begin() + accum.size();
       ++pos) {
    if (genome.at(pos) >= 4 || !genome.in_contig(pos)) continue;
    double n = 0.0;
    for (const float z : accum.counts(pos)) n += static_cast<double>(z);
    if (n >= config.min_coverage) ++tested;
  }
  return tested;
}

/// Forwards to another stream, recording a span around every next().
class TracedReadStream final : public ReadStream {
 public:
  TracedReadStream(ReadStream& inner, SpanRecorder& rec)
      : ReadStream(inner.batch_size()), inner_(inner), rec_(rec) {}

  bool next(ReadBatch& batch) override {
    ScopedSpan span(rec_, "FastqReadStream::next", "io", 1);
    const bool more = inner_.next(batch);
    cursor_ = inner_.cursor();
    return more;
  }
  bool reset() override {
    const bool ok = inner_.reset();
    cursor_ = inner_.cursor();
    return ok;
  }
  std::uint64_t skip(std::uint64_t n) override {
    const std::uint64_t skipped = inner_.skip(n);
    cursor_ = inner_.cursor();
    return skipped;
  }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }

 private:
  ReadStream& inner_;
  SpanRecorder& rec_;
};

}  // namespace

int cmd_gen(const Args& args) {
  const std::string out = args.str("out");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  // The reference is fixed, like a real assembly; the seed draws the
  // individual (planted SNPs) and its reads.
  ReferenceGenOptions ref_options;
  ref_options.length = static_cast<std::uint64_t>(args.num("length"));
  ref_options.repeat_fraction = 0.03;
  ref_options.seed = 20120521;
  CatalogGenOptions catalog_options;
  catalog_options.count = static_cast<std::uint64_t>(args.num("snps"));
  catalog_options.het_fraction = 0.0;
  catalog_options.seed = seed + 1;
  ReadSimOptions read_options;
  read_options.read_length =
      static_cast<std::uint32_t>(args.num("read-length"));
  read_options.coverage = args.num("coverage");
  read_options.seed = seed + 2;

  const Genome reference = generate_reference(ref_options);
  const SnpCatalog catalog = generate_catalog(reference, catalog_options);
  std::string seq;
  for (std::uint64_t i = 0; i < reference.contig_size(0); ++i) {
    seq += decode_base(reference.at(reference.contig_start(0) + i));
  }
  write_fasta_file(out + "/reference.fa", {{reference.contig_name(0), seq}});
  write_catalog_file(out + "/truth.catalog", catalog);
  const Genome individual = apply_catalog(reference, catalog);
  write_fastq_file(out + "/reads.fastq",
                   strip_metadata(simulate_reads(individual, read_options)));
  return 0;
}

int cmd_batch(const Args& args) {
  const std::string ref = args.str("ref");
  const std::string reads = args.str("reads");
  const int threads = static_cast<int>(args.num("threads"));
  const double seconds = args.num("seconds");
  const int reps = static_cast<int>(args.num("setup-reps"));
  const PipelineConfig config = daemon_config(threads);

  // Set-up: FASTA load plus the index build, repeated; the last session
  // serves the timed runs.
  std::vector<double> setup;
  std::unique_ptr<MappingSession> session;
  std::unique_ptr<Genome> genome;
  for (int r = 0; r < reps; ++r) {
    session.reset();
    genome.reset();
    Timer timer;
    genome = std::make_unique<Genome>(genome_from_fasta_file(ref));
    session = std::make_unique<MappingSession>(*genome, config);
    setup.push_back(timer.seconds());
  }

  // One operation: a whole-input MappingSession::run plus the TSV render.
  // The SAM goes into a digest, so the process's peak resident set holds no
  // copy of the whole-input output; the reference run also copies it to
  // --out-sam for the checks.
  struct Output {
    std::string tsv;
    std::uint64_t sam_hash = 0, sam_bytes = 0;
    PipelineResult result;
    double seconds = 0.0;
  };
  auto run_once = [&](bool keep_sam) {
    std::ofstream copy;
    if (keep_sam) {
      copy.open(args.str("out-sam"), std::ios::binary);
      if (!copy) {
        throw std::runtime_error("cannot write " + args.str("out-sam"));
      }
    }
    DigestBuf digest(keep_sam ? &copy : nullptr);
    std::ostream sam(&digest);
    FastqReadStream stream(reads, config.stream_batch);
    Output out;
    Timer timer;
    out.result = session->run(stream, nullptr, &sam);
    out.tsv = render_tsv(out.result.calls);
    out.seconds = timer.seconds();
    if (!sam || (keep_sam && !copy.flush())) {
      throw std::runtime_error("short write of the SAM output");
    }
    out.sam_hash = digest.hash();
    out.sam_bytes = digest.bytes();
    return out;
  };
  // The untimed warm-up run (first-touch allocations, page cache) is the
  // reference every timed run must reproduce: the same TSV, and a SAM of
  // the same length and digest.
  std::optional<Output> first;
  if (args.has("warmup")) first = run_once(true);

  std::vector<double> latencies;
  std::uint64_t reads_done = 0;
  std::uint64_t in_flight_peak = 0;
  Timer total;
  do {
    Output out = run_once(!first);
    latencies.push_back(out.seconds);
    reads_done += out.result.stats.reads_total;
    in_flight_peak = std::max(in_flight_peak, out.result.reads_in_flight_peak);
    if (!first) {
      first = std::move(out);
    } else if (out.tsv != first->tsv || out.sam_hash != first->sam_hash ||
               out.sam_bytes != first->sam_bytes) {
      throw std::runtime_error("run " + std::to_string(latencies.size()) +
                               " produced different TSV/SAM than the first");
    }
  } while (total.seconds() < seconds);
  const double measured = total.seconds();

  write_file(args.str("out-tsv"), first->tsv);
  JsonObject out;
  out.nums("setup_s", setup);
  out.nums("latencies_s", latencies);
  out.count("reads_per_run", first->result.stats.reads_total);
  out.count("reads_done", reads_done);
  out.num("measured_s", measured);
  out.count("reads_in_flight_peak", in_flight_peak);
  out.num("peak_rss_mb", peak_rss_mb());
  out.count("mapping_threads", static_cast<std::uint64_t>(threads));
  write_file(args.str("json"), out.text());
  return 0;
}

int cmd_trace_batch(const Args& args) {
  const std::string ref = args.str("ref");
  const std::string reads = args.str("reads");
  const int threads = static_cast<int>(args.num("threads"));
  SpanRecorder rec(true);
  const double span_cost = SpanRecorder::calibrate_span_seconds();

  const Genome genome = genome_from_fasta_file(ref);
  const PipelineConfig config1 = daemon_config(1);
  std::unique_ptr<MappingSession> session1;
  {
    ScopedSpan span(rec, "MappingSession::MappingSession", "index");
    session1 = std::make_unique<MappingSession>(genome, config1);
  }
  JsonObject out;
  out.num("index_build_s", session1->index_seconds());
  out.count("index_bytes", session1->index().memory_bytes());

  // The multi-thread session, untraced, for its stage fields.
  std::string tsv_nt, sam_nt;
  {
    const PipelineConfig config_n = daemon_config(threads);
    const MappingSession session_n(genome, config_n);
    FastqReadStream stream(reads, config_n.stream_batch);
    std::ostringstream sam;
    Timer timer;
    const PipelineResult r = session_n.run(stream, nullptr, &sam);
    out.num("wall_nt_s", timer.seconds());
    out.count("threads", static_cast<std::uint64_t>(threads));
    out.num("fb_nt_s",
            r.stats.phmm_forward_seconds + r.stats.phmm_backward_seconds);
    out.num("map_nt_s", r.map_seconds);
    out.num("decode_nt_s", r.decode_seconds);
    out.num("map_stage_nt_s", r.map_stage_seconds);
    out.num("format_nt_s", r.format_seconds);
    out.num("splice_nt_s", r.splice_seconds);
    out.num("call_nt_s", r.call_seconds);
    out.count("in_flight_peak_nt", r.reads_in_flight_peak);
    out.count("in_flight_bound_nt",
              (2ull * (config_n.queue_depth + config_n.threads) + 1) *
                  config_n.stream_batch);
    out.count("accum_bytes", r.accum_memory_bytes);
    tsv_nt = render_tsv(r.calls);
    sam_nt = sam.str();
  }

  // Alternate the untraced 1-thread session with the traced drive, so the
  // residual compares runs made under the same host conditions.
  const ReadMapper& mapper = session1->mapper();
  const int reps = static_cast<int>(args.num("reps"));
  std::vector<double> wall_1t, fb_1t, attributed, traced_wall;
  std::uint64_t candidates = 0, reads_total = 0, bytes_decoded = 0;
  std::uint64_t output_bytes = 0, tested = 0;
  MapStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    {
      FastqReadStream stream(reads, config1.stream_batch);
      std::ostringstream sam;
      Timer timer;
      const PipelineResult r = session1->run(stream, nullptr, &sam);
      const std::string tsv = render_tsv(r.calls);
      wall_1t.push_back(timer.seconds());
      fb_1t.push_back(r.stats.phmm_forward_seconds +
                      r.stats.phmm_backward_seconds);
      if (tsv != tsv_nt || sam.str() != sam_nt) {
        throw std::runtime_error(std::to_string(threads) +
                                 "-thread TSV/SAM differs from the 1-thread run");
      }
    }

    // The traced drive: one thread calls each layer's public function in
    // turn, batch by batch, the way the session composes them.  Every span
    // but the extra seeding pass counts as attributed time.
    double attributed_s = 0.0;
    FastqReadStream stream(reads, config1.stream_batch);
    auto accum = make_accumulator(config1.accum_kind, 0, genome.padded_size(),
                                  config1.centdisc_quantize);
    MapperWorkspace ws;
    std::string sam;
    append_sam_header(sam, genome);
    ReadBatch batch;
    Timer wall;
    for (;;) {
      bool more = false;
      {
        ScopedSpan span(rec, "FastqReadStream::next", "io", 0, &attributed_s);
        more = stream.next(batch);
      }
      if (!more) break;
      reads_total += batch.size();
      {
        ScopedSpan span(rec, "Seeder::candidates", "index");
        for (const Read& read : batch.reads) {
          candidates += mapper.seeder().candidates(read).size();
        }
      }
      std::vector<std::vector<ScoredSite>> sites;
      {
        ScopedSpan span(rec, "ReadMapper::score_reads", "core", 0,
                        &attributed_s);
        sites = mapper.score_reads(batch.reads, ws, stats);
      }
      {
        ScopedSpan span(rec, "ReadMapper::accumulate", "accum", 0,
                        &attributed_s);
        for (const auto& s : sites) ReadMapper::accumulate(s, *accum);
      }
      {
        ScopedSpan span(rec, "append_sam_record", "io", 0, &attributed_s);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          for (const SamRecord& record :
               to_sam_records(genome, batch.reads[i], sites[i], config1)) {
            append_sam_record(sam, genome, record);
          }
        }
      }
    }
    std::vector<SnpCall> calls;
    {
      ScopedSpan span(rec, "call_snps", "call", 0, &attributed_s);
      calls = call_snps(genome, *accum, config1);
    }
    std::string tsv;
    {
      ScopedSpan span(rec, "append_snps_tsv", "io", 0, &attributed_s);
      tsv = render_tsv(calls);
    }
    traced_wall.push_back(wall.seconds());
    attributed.push_back(attributed_s);
    if (tsv != tsv_nt || sam != sam_nt) {
      throw std::runtime_error(
          "the traced layer-by-layer drive differs from MappingSession::run");
    }
    bytes_decoded += stream.bytes_decoded();
    output_bytes += tsv.size() + sam.size();
    tested = positions_tested(genome, *accum, config1);
  }
  // Counters below are per drive; the Chrome trace holds every drive.
  const auto per_rep = [&](double total) { return total / reps; };
  out.nums("wall_1t_s", wall_1t);
  out.nums("fb_1t_s", fb_1t);
  out.nums("attributed_s", attributed);
  out.nums("traced_wall_s", traced_wall);
  out.count("reads", reads_total / reps);
  out.num("candidates", per_rep(static_cast<double>(candidates)));
  out.num("bytes_decoded", per_rep(static_cast<double>(bytes_decoded)));
  out.num("output_bytes", per_rep(static_cast<double>(output_bytes)));
  out.num("phmm_forward_s", per_rep(stats.phmm_forward_seconds));
  out.num("phmm_backward_s", per_rep(stats.phmm_backward_seconds));
  out.num("dp_cells", per_rep(static_cast<double>(stats.dp_cells)));
  out.count("positions_tested", tested);
  out.count("spans", rec.size());
  out.num("span_cost_s", span_cost);
  out.num("peak_rss_mb", peak_rss_mb());
  rec.write_chrome_trace(args.str("trace-out"));
  write_file(args.str("json"), out.text());
  return 0;
}

int cmd_expect(const Args& args) {
  const Genome genome = genome_from_fasta_file(args.str("ref"));
  const std::string dir = args.str("requests");
  const int count = static_cast<int>(args.num("count"));
  const PipelineConfig config = daemon_config(1);
  const MappingSession session(genome, config);
  std::vector<double> tested;
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/req_%03d", i);
    FastqReadStream stream(dir + name + ".fastq", config.stream_batch);
    std::ostringstream sam;
    std::unique_ptr<Accumulator> accum;
    const PipelineResult r = session.run(stream, &accum, &sam);
    write_file(dir + name + ".tsv", render_tsv(r.calls));
    write_file(dir + name + ".sam", sam.str());
    tested.push_back(
        static_cast<double>(positions_tested(genome, *accum, config)));
  }
  JsonObject out;
  out.nums("positions_tested", tested);
  write_file(args.str("json"), out.text());
  return 0;
}

int cmd_spread(const Args& args) {
  const std::string ref = args.str("ref");
  const std::string reads = args.str("reads");
  const double seconds = args.num("seconds");
  const int reps = static_cast<int>(args.num("setup-reps"));
  SpanRecorder rec(args.has("trace-out"));
  PipelineConfig config = daemon_config(1);
  config.accum_kind = AccumKind::kCharDisc;
  DistOptions options;
  options.ranks = static_cast<int>(args.num("ranks"));
  options.mode = DistMode::kGenomePartition;
  options.serialize_compute = false;
  options.max_read_len = static_cast<std::uint32_t>(args.num("max-read-len"));

  // Set-up: FASTA load plus every rank's segment index, built the way
  // run_distributed builds them (same partition, same margin), repeated.
  std::vector<double> setup;
  std::unique_ptr<Genome> genome;
  for (int r = 0; r < reps; ++r) {
    genome.reset();
    Timer timer;
    genome = std::make_unique<Genome>(genome_from_fasta_file(ref));
    const std::uint64_t margin = options.max_read_len +
                                 static_cast<std::uint64_t>(config.window_pad) +
                                 static_cast<std::uint64_t>(
                                     config.seeder.band_width);
    for (const GenomeSegment& seg :
         partition_genome(*genome, options.ranks, margin)) {
      ScopedSpan span(rec, "HashIndex::HashIndex", "index");
      const HashIndex index(*genome, config.index, seg.store_begin,
                            seg.store_end);
    }
    setup.push_back(timer.seconds());
  }

  std::string first_tsv;
  std::vector<double> latencies, rank_compute_max, rank_compute_mean,
      rank_wait_mean, dist_wall;
  std::uint64_t reads_done = 0, reads_per_run = 0, messages = 0, bytes = 0;
  std::uint64_t bytes_decoded = 0;
  std::uint64_t accum_bytes = 0, max_rank_accum_bytes = 0, index_bytes = 0;
  MapStats stats_total;
  Timer total;
  do {
    FastqReadStream fastq(reads, kDefaultReadBatch);
    TracedReadStream traced(fastq, rec);
    ReadStream& stream = rec.enabled() ? static_cast<ReadStream&>(traced)
                                       : static_cast<ReadStream&>(fastq);
    Timer timer;
    DistResult result;
    {
      ScopedSpan span(rec, "run_distributed", "mpsim");
      result = run_distributed(*genome, stream, config, options);
    }
    latencies.push_back(timer.seconds());
    bytes_decoded += fastq.bytes_decoded();
    if (latencies.size() == 1) {
      first_tsv = result.tsv;
      reads_per_run = result.stats.reads_total;
    } else if (result.tsv != first_tsv) {
      throw std::runtime_error("run " + std::to_string(latencies.size()) +
                               " produced different calls than run 1");
    }
    std::uint64_t sent = 0, received = 0, msg_sent = 0, msg_received = 0;
    double cmax = 0.0, csum = 0.0;
    for (const RankCost& cost : result.costs) {
      sent += cost.comm.bytes_sent;
      received += cost.comm.bytes_received;
      msg_sent += cost.comm.messages_sent;
      msg_received += cost.comm.messages_received;
      cmax = std::max(cmax, cost.compute_seconds);
      csum += cost.compute_seconds;
    }
    if (sent != received || msg_sent != msg_received) {
      throw std::runtime_error(
          "mpsim totals disagree: sent " + std::to_string(sent) + " B in " +
          std::to_string(msg_sent) + " messages, received " +
          std::to_string(received) + " B in " + std::to_string(msg_received));
    }
    const double ranks = static_cast<double>(result.costs.size());
    rank_compute_max.push_back(cmax);
    rank_compute_mean.push_back(csum / ranks);
    rank_wait_mean.push_back(result.wall_seconds - csum / ranks);
    dist_wall.push_back(result.wall_seconds);
    messages = msg_sent;
    bytes = sent;
    accum_bytes = result.total_accum_bytes;
    max_rank_accum_bytes = result.max_rank_accum_bytes;
    index_bytes = result.max_rank_index_bytes;
    reads_done += result.stats.reads_total;
    stats_total += result.stats;
  } while (total.seconds() < seconds);
  const double measured = total.seconds();

  write_file(args.str("out-tsv"), first_tsv);
  JsonObject out;
  out.nums("setup_s", setup);
  out.nums("latencies_s", latencies);
  out.nums("rank_compute_max_s", rank_compute_max);
  out.nums("rank_compute_mean_s", rank_compute_mean);
  out.nums("rank_wait_mean_s", rank_wait_mean);
  out.nums("dist_wall_s", dist_wall);
  out.count("reads_per_run", reads_per_run);
  out.count("reads_done", reads_done);
  out.num("measured_s", measured);
  out.count("messages", messages);
  out.count("bytes", bytes);
  out.count("bytes_decoded", bytes_decoded);
  out.count("accum_bytes", accum_bytes);
  out.count("max_rank_accum_bytes", max_rank_accum_bytes);
  out.count("index_bytes", index_bytes);
  out.num("phmm_forward_s", stats_total.phmm_forward_seconds);
  out.num("phmm_backward_s", stats_total.phmm_backward_seconds);
  out.count("dp_cells", stats_total.dp_cells);
  out.num("peak_rss_mb", peak_rss_mb());
  out.count("ranks", static_cast<std::uint64_t>(options.ranks));
  if (rec.enabled()) {
    out.count("spans", rec.size());
    out.num("span_cost_s", SpanRecorder::calibrate_span_seconds());
    rec.write_chrome_trace(args.str("trace-out"));
  }
  write_file(args.str("json"), out.text());
  return 0;
}

}  // namespace perfbench
