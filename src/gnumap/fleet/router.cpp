#include "gnumap/fleet/router.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/sam_export.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/fleet/partials.hpp"
#include "gnumap/fleet/registry.hpp"
#include "gnumap/io/sam.hpp"
#include "gnumap/obs/json_util.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::fleet {

using serve::BusyReply;
using serve::decode_busy;
using serve::decode_error;
using serve::decode_hello;
using serve::encode_hello;
using serve::encode_map_begin;
using serve::Frame;
using serve::FrameType;
using serve::kFlagShardPartials;
using serve::kProtocolVersion;
using serve::MapBeginInfo;
using serve::MapRequest;
using serve::read_frame;
using serve::ShardAddress;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;
using serve::write_frame;

namespace {

/// The one genome id a router holds.
constexpr const char* kRouterGenomeId = "default";

/// Merges the per-shard candidate lists of one read, truncates to
/// max_candidates in seeder order, and returns the surviving ScoredSites.
/// This reproduces exactly what a single daemon's Seeder::candidates()
/// would have produced: shard core ranges partition the genome, so each
/// (diagonal, reverse) band lives in exactly one shard's list, the seeder
/// comparator (votes desc, diagonal asc, reverse asc — seeder.cpp) is a
/// strict total order over the merged list, and a global top-K candidate's
/// shard-local rank never exceeds its global rank, so every global top-K
/// entry is present in some shard's (already truncated) list.  Filtered
/// and failed-alignment candidates keep their slots through truncation,
/// exactly as they do in a single-daemon run, and are dropped only after.
std::vector<ScoredSite> merge_read_candidates(
    const PipelineConfig& config, std::vector<RawCandidate>&& merged) {
  std::sort(merged.begin(), merged.end(),
            [](const RawCandidate& a, const RawCandidate& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              if (a.diagonal != b.diagonal) return a.diagonal < b.diagonal;
              return a.reverse < b.reverse;
            });
  if (static_cast<int>(merged.size()) > config.seeder.max_candidates) {
    merged.resize(static_cast<std::size_t>(config.seeder.max_candidates));
  }
  std::vector<ScoredSite> sites;
  for (RawCandidate& cand : merged) {
    if (cand.ok) sites.push_back(std::move(cand.site));
  }
  return sites;
}

std::string label(const ShardAddress& shard) {
  return shard.host + ":" + std::to_string(shard.port);
}

struct FanoutBackend;

/// One live backend connection for the duration of a MAP request.
struct ShardConn {
  std::string label;  ///< "host:port" for error messages
  Socket sock;
};

/// One routed request: the scatter setup before MAP_GO, then the per-batch
/// fan-out, merge and epilogue.
class FanoutJob final : public serve::MapJob {
 public:
  explicit FanoutJob(const FanoutBackend& backend) : backend_(backend) {
    genome_id = kRouterGenomeId;
  }

  std::optional<BusyReply> prepare(MapRequest& request) override;
  PipelineResult run(MapRequest& request) override;

 private:
  /// The shard's next frame, within the request's deadline; an ERROR or a
  /// closed connection becomes a typed WireError naming the shard.
  Frame reply(ShardConn& shard, MapRequest& request, const char* waiting_for);
  /// Sends one frame to a shard under the io timeout.
  void send(ShardConn& shard, MapRequest& request, FrameType type,
            std::string_view payload);

  const FanoutBackend& backend_;
  std::vector<ShardConn> shards_;
  double fanout_wait_seconds_ = 0.0;
};

struct FanoutBackend final : serve::MapBackend {
  FanoutBackend(const Genome& genome_in, const PipelineConfig& config_in,
                const serve::ServeOptions& options)
      : genome(genome_in),
        config(config_in),
        shards(options.route_shards),
        io_timeout_ms(options.io_timeout_ms),
        max_frame_bytes(options.max_frame_bytes) {
    require(!shards.empty(), "router needs at least one shard");
  }

  std::unique_ptr<serve::MapJob> open(const MapBeginInfo& begin) override {
    // Resolve the id the way a daemon does: the router renders SAM and
    // calls SNPs against its one genome, so scores the shards computed on
    // any other genome would come back rendered against the wrong one.
    if (!begin.genome_id.empty() && begin.genome_id != kRouterGenomeId) {
      throw UnknownGenomeError("unknown genome id \"" + begin.genome_id +
                               "\" (this router serves \"" +
                               kRouterGenomeId + "\")");
    }
    return std::make_unique<FanoutJob>(*this);
  }

  std::string banner() const override {
    return "gnumapd-router shards=" + std::to_string(shards.size()) +
           " genome_bases=" + std::to_string(genome.num_bases());
  }

  std::string stats_lines() const override {
    return "router_shards=" + std::to_string(shards.size()) +
           "\ngenome_bases=" + std::to_string(genome.num_bases()) + "\n";
  }

  std::string statusz_members() const override {
    std::string out = "  \"session\": {\"genome_bases\": " +
                      std::to_string(genome.num_bases()) +
                      ", \"threads\": " + std::to_string(config.threads) +
                      ", \"stream_batch\": " +
                      std::to_string(config.stream_batch) + "},\n";
    out += "  \"router\": {\"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (i != 0) out += ", ";
      out += obs::detail::json_string(label(shards[i]));
    }
    out += "]},\n";
    return out;
  }

  const Genome& genome;
  const PipelineConfig config;
  const std::vector<ShardAddress> shards;
  const int io_timeout_ms;
  const std::uint32_t max_frame_bytes;
};

Frame FanoutJob::reply(ShardConn& shard, MapRequest& request,
                       const char* waiting_for) {
  Timer wait;
  std::optional<Frame> frame;
  try {
    frame = read_frame(shard.sock, backend_.max_frame_bytes,
                       request.wait_budget_ms(), request.cancel());
  } catch (const WireError& e) {
    fanout_wait_seconds_ += wait.seconds();
    if (e.code() == WireErrorCode::kShuttingDown) throw;  // watchdog cancel
    // When the request's deadline was the bound, report (and count) that.
    if (e.code() == WireErrorCode::kTimeout) request.wait_budget_ms();
    throw WireError(e.code(), "shard " + shard.label + " (waiting for " +
                                  waiting_for + "): " + e.what());
  }
  fanout_wait_seconds_ += wait.seconds();
  if (!frame.has_value()) {
    throw WireError(WireErrorCode::kClosed, "shard " + shard.label +
                                                " closed while the router "
                                                "waited for " +
                                                waiting_for);
  }
  if (frame->type == FrameType::kError) {
    const auto [code, msg] = decode_error(frame->payload);
    // A shard abandons on the deadline the router forwarded, which started
    // later than the router's own: report (and count) the router's.
    if (code == WireErrorCode::kTimeout) request.wait_budget_ms();
    throw WireError(code, "shard " + shard.label + ": " + msg);
  }
  return std::move(*frame);
}

void FanoutJob::send(ShardConn& shard, MapRequest& request, FrameType type,
                     std::string_view payload) {
  write_frame(shard.sock, type, payload, backend_.io_timeout_ms,
              request.cancel());
}

[[noreturn]] void unexpected(const ShardConn& shard, const Frame& frame,
                             const char* answering) {
  throw WireError(WireErrorCode::kProtocol,
                  "shard " + shard.label + " answered frame type " +
                      std::to_string(static_cast<int>(frame.type)) + " to " +
                      answering);
}

std::optional<BusyReply> FanoutJob::prepare(MapRequest& request) {
  const MapBeginInfo& begin = request.begin();
  if ((begin.flags & kFlagShardPartials) != 0) {
    throw WireError(WireErrorCode::kProtocol,
                    "a router cannot serve shard partials itself");
  }
  // Scatter setup: connect, handshake, and MAP_BEGIN every shard before
  // anything is promised to the client.  A BUSY from any shard aborts the
  // whole fan-out (largest retry hint wins) with the client connection
  // left open; nothing has been uploaded yet, so the client's retry is
  // free.
  shards_.reserve(backend_.shards.size());
  for (const ShardAddress& address : backend_.shards) {
    ShardConn shard;
    shard.label = label(address);
    try {
      shard.sock = serve::connect_tcp(
          address.host, address.port,
          std::min(backend_.io_timeout_ms, request.wait_budget_ms()));
    } catch (const WireError& e) {
      throw WireError(e.code(), "shard " + shard.label + ": " + e.what());
    }
    send(shard, request, FrameType::kHello,
         encode_hello(kProtocolVersion, "gnumapd-router"));
    const Frame hello = reply(shard, request, "HELLO_OK");
    if (hello.type == FrameType::kBusy) {
      const auto [retry_ms, msg] = decode_busy(hello.payload);
      return BusyReply{retry_ms, "shard " + shard.label + ": " + msg};
    }
    if (hello.type != FrameType::kHelloOk) unexpected(shard, hello, "HELLO");
    const auto [shard_version, banner] = decode_hello(hello.payload);
    if (shard_version < 4) {
      throw WireError(WireErrorCode::kBadVersion,
                      "shard " + shard.label + " negotiated v" +
                          std::to_string(shard_version) +
                          "; shard partials need v4");
    }
    shards_.push_back(std::move(shard));
  }

  // MAP_BEGIN to every shard, then collect every MAP_GO before the client
  // gets its own.  The client's genome id is forwarded as sent ("" stays
  // the shards' default).
  MapBeginInfo info;
  info.flags = kFlagShardPartials;
  info.deadline_ms = begin.deadline_ms;
  info.trace_id = begin.trace_id;
  info.parent_span_id = begin.parent_span_id;
  info.genome_id = begin.genome_id;
  const std::string map_begin = encode_map_begin(info, /*version=*/4);
  for (ShardConn& shard : shards_) {
    send(shard, request, FrameType::kMapBegin, map_begin);
  }
  std::optional<BusyReply> busy;
  for (ShardConn& shard : shards_) {
    const Frame go = reply(shard, request, "MAP_GO");
    if (go.type == FrameType::kBusy) {
      const auto [retry_ms, msg] = decode_busy(go.payload);
      if (!busy || retry_ms >= busy->retry_after_ms) {
        busy = BusyReply{retry_ms, "shard " + shard.label + ": " + msg};
      }
      continue;
    }
    if (go.type != FrameType::kMapGo) unexpected(shard, go, "MAP_BEGIN");
  }
  return busy;
}

PipelineResult FanoutJob::run(MapRequest& request) {
  const Genome& genome = backend_.genome;
  const PipelineConfig& config = backend_.config;
  // The same epilogue a single daemon runs (session.cpp): accumulator,
  // SAM header first, per-read accumulate + SAM records in input order,
  // call_snps over the finished accumulator.
  auto accum = make_accumulator(config.accum_kind, 0, genome.padded_size(),
                                config.centdisc_quantize);
  std::ostream* sam = request.sam();
  std::string rendered;
  if (sam != nullptr) {
    append_sam_header(rendered, genome);
    sam->write(rendered.data(), static_cast<std::streamsize>(rendered.size()));
  }

  serve::RequestDigest& digest = request.digest();
  digest.shards = shards_.size();
  PipelineResult result;
  Timer map_timer;
  Timer stage;
  double merge_seconds = 0.0;
  ReadStream& reads = request.reads();
  ReadBatch batch;
  for (;;) {
    stage.reset();
    const bool more = reads.next(batch);
    result.decode_seconds += stage.seconds();
    if (!more) break;
    ++result.batches_decoded;
    result.stats.reads_total += batch.size();
    result.reads_in_flight_peak =
        std::max<std::uint64_t>(result.reads_in_flight_peak, batch.size());
    const std::string payload = serialize_reads(batch.reads);
    for (ShardConn& shard : shards_) {
      send(shard, request, FrameType::kShardReads, payload);
    }
    // One RESULT_PARTIAL per shard, gathered in backend order; the merge
    // is order-independent (the sort re-establishes seeder order).
    std::vector<std::vector<RawCandidate>> merged(batch.reads.size());
    for (ShardConn& shard : shards_) {
      const Frame partial = reply(shard, request, "RESULT_PARTIAL");
      if (partial.type != FrameType::kResultPartial) {
        unexpected(shard, partial, "SHARD_READS");
      }
      auto partials = deserialize_partials(partial.payload);
      if (partials.size() != batch.reads.size()) {
        throw WireError(WireErrorCode::kProtocol,
                        "shard " + shard.label + " answered " +
                            std::to_string(partials.size()) +
                            " reads for a batch of " +
                            std::to_string(batch.reads.size()));
      }
      for (std::size_t r = 0; r < partials.size(); ++r) {
        merged[r].insert(merged[r].end(),
                         std::make_move_iterator(partials[r].begin()),
                         std::make_move_iterator(partials[r].end()));
      }
    }
    stage.reset();
    rendered.clear();
    for (std::size_t r = 0; r < batch.reads.size(); ++r) {
      std::vector<ScoredSite> sites =
          merge_read_candidates(config, std::move(merged[r]));
      finalize_scored_sites(config, batch.reads[r], sites, result.stats);
      ReadMapper::accumulate(sites, *accum);
      if (sam != nullptr) {
        for (const auto& record :
             to_sam_records(genome, batch.reads[r], sites, config)) {
          append_sam_record(rendered, genome, record);
        }
      }
    }
    if (sam != nullptr) {
      sam->write(rendered.data(),
                 static_cast<std::streamsize>(rendered.size()));
    }
    merge_seconds += stage.seconds();
  }

  // Release the shards and aggregate their MAP_DONE accounting.
  for (ShardConn& shard : shards_) {
    send(shard, request, FrameType::kMapEnd, "");
  }
  std::uint64_t shard_candidates = 0;
  std::uint64_t shard_cells = 0;
  for (ShardConn& shard : shards_) {
    const Frame done = reply(shard, request, "MAP_DONE");
    if (done.type != FrameType::kMapDone) unexpected(shard, done, "MAP_END");
    const auto kv = serve::parse_kv_lines(done.payload);
    const auto field = [&](const char* key) -> std::string {
      const auto it = kv.find(key);
      return it == kv.end() ? "0" : it->second;
    };
    shard_candidates += std::stoull(field("candidates_evaluated"));
    shard_cells += std::stoull(field("phmm_cells"));
    digest.shard_seconds_max =
        std::max(digest.shard_seconds_max, std::stod(field("total_seconds")));
    digest.shard_index_load_seconds_max =
        std::max(digest.shard_index_load_seconds_max,
                 std::stod(field("index_load_seconds")));
  }
  result.stats.candidates_evaluated = shard_candidates;
  result.stats.dp_cells = shard_cells;
  result.map_seconds = map_timer.seconds();

  stage.reset();
  result.calls = call_snps(genome, *accum, config);
  result.call_seconds = stage.seconds();

  digest.fanout_wait_seconds = fanout_wait_seconds_;
  digest.merge_seconds = merge_seconds;
  return result;
}

}  // namespace

std::unique_ptr<serve::MapBackend> make_shard_fanout_backend(
    const Genome& genome, const PipelineConfig& config,
    const serve::ServeOptions& options) {
  return std::make_unique<FanoutBackend>(genome, config, options);
}

}  // namespace gnumap::fleet
