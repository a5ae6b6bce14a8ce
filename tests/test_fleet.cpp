// Tests for the fleet subsystem: the mmap instant-start index file
// (round-trip bit-identity of seed hits, typed errors for every kind of
// file damage), the multi-genome registry (LRU eviction under a memory
// budget, typed EvictedError with a retry hint, unknown ids), the wire
// kEvicted retry loop end to end over real sockets, and the scatter/
// gather shard router: byte-identity with a single whole-genome daemon,
// the split of a routed request's time, and genome-id resolution.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/fleet/index_file.hpp"
#include "gnumap/fleet/registry.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/error.hpp"
#include "serve_deployment.hpp"

namespace gnumap {
namespace {

namespace fs = std::filesystem;

using serve::ClientOptions;
using serve::FrameType;
using serve::MappingClient;
using serve::MappingServer;
using serve::ServeOptions;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;

// ---------------------------------------------------------------------------
// Helpers

Genome make_reference(std::uint64_t length, std::uint64_t seed = 42) {
  ReferenceGenOptions options;
  options.length = length;
  options.seed = seed;
  options.repeat_fraction = 0.0;
  options.n_fraction = 0.0;
  return generate_reference(options);
}

/// Renders a genome back to FASTA on disk (registry specs load by path).
std::string write_genome_fasta(const Genome& genome, const std::string& path) {
  std::vector<FastaRecord> records;
  const auto data = genome.data();
  for (std::uint32_t c = 0; c < genome.num_contigs(); ++c) {
    std::string seq;
    const GenomePos start = genome.contig_start(c);
    for (std::uint64_t i = 0; i < genome.contig_size(c); ++i) {
      seq.push_back(decode_base(data[start + i]));
    }
    records.emplace_back(genome.contig_name(c), std::move(seq));
  }
  write_fasta_file(path, records);
  return path;
}

struct Workload {
  Genome ref;
  std::vector<Read> reads;
  std::string fastq;
};

Workload make_workload(std::uint64_t length = 20000, double coverage = 6.0) {
  Workload w;
  w.ref = make_reference(length);
  CatalogGenOptions catalog_options;
  catalog_options.count = 12;
  const SnpCatalog catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = coverage;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  std::ostringstream fastq;
  write_fastq(fastq, w.reads);
  w.fastq = fastq.str();
  return w;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.threads = 2;
  config.stream_batch = 32;
  config.queue_depth = 2;
  config.min_parallel_reads = 0;
  return config;
}

ServeOptions test_options() {
  ServeOptions options;
  options.port = 0;  // ephemeral
  options.io_timeout_ms = 10'000;
  options.request_timeout_ms = 60'000;
  return options;
}

struct OfflineResult {
  std::string tsv;
  std::string sam;
};

OfflineResult offline_outputs(const Workload& w, const PipelineConfig& config) {
  VectorReadStream reads(w.reads, config.stream_batch);
  std::ostringstream sam;
  const PipelineResult result =
      run_pipeline_stream(w.ref, reads, config, nullptr, &sam);
  std::ostringstream tsv;
  write_snps_tsv(tsv, result.calls);
  return {tsv.str(), sam.str()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Copies `src` to `dst` with one byte flipped (damage injection).  XOR
/// guarantees the byte actually changes whatever its original value.
void copy_with_flip(const std::string& src, const std::string& dst,
                    std::size_t offset) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x55);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << bytes;
}

void copy_truncated(const std::string& src, const std::string& dst,
                    std::size_t keep_bytes) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(std::min(keep_bytes, bytes.size()));
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Index file: round trip

TEST(IndexFile, RoundTripSeedHitsBitIdentical) {
  const Genome genome = make_reference(20000);
  HashIndexOptions options;
  options.k = 9;
  const HashIndex fresh(genome, options);

  const std::string path = temp_path("fleet_roundtrip.gidx");
  fleet::write_index_file(path, genome, fresh);
  const fleet::LoadedIndex loaded = fleet::load_index_file(path,
                                                           /*verify=*/true);

  // Genome facts survive the trip.
  EXPECT_EQ(loaded.genome.num_bases(), genome.num_bases());
  EXPECT_EQ(loaded.genome.padded_size(), genome.padded_size());
  ASSERT_EQ(loaded.genome.num_contigs(), genome.num_contigs());
  for (std::uint32_t c = 0; c < genome.num_contigs(); ++c) {
    EXPECT_EQ(loaded.genome.contig_name(c), genome.contig_name(c));
    EXPECT_EQ(loaded.genome.contig_size(c), genome.contig_size(c));
  }
  const auto a = loaded.genome.data();
  const auto b = genome.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));

  // Every k-mer's hit list and repeat mask match the fresh index bit for
  // bit — the mmap'ed index must seed identically to an in-process build.
  EXPECT_EQ(loaded.index.k(), fresh.k());
  EXPECT_EQ(loaded.index.num_entries(), fresh.num_entries());
  EXPECT_EQ(loaded.index.num_distinct_kmers(), fresh.num_distinct_kmers());
  for (Kmer kmer = 0; kmer < kmer_space(options.k); ++kmer) {
    const auto fresh_hits = fresh.lookup(kmer);
    const auto loaded_hits = loaded.index.lookup(kmer);
    ASSERT_EQ(fresh_hits.size(), loaded_hits.size()) << "kmer " << kmer;
    ASSERT_TRUE(std::equal(fresh_hits.begin(), fresh_hits.end(),
                           loaded_hits.begin()))
        << "kmer " << kmer;
    ASSERT_EQ(fresh.is_repeat_masked(kmer), loaded.index.is_repeat_masked(kmer))
        << "kmer " << kmer;
  }

  EXPECT_EQ(loaded.info.version, fleet::kIndexFileVersion);
  EXPECT_EQ(loaded.info.build_begin, 0u);
  EXPECT_EQ(loaded.info.build_end, 0u);
  EXPECT_EQ(loaded.info.file_bytes, fs::file_size(path));
}

TEST(IndexFile, ShardBuildRangeSurvivesRoundTrip) {
  const Genome genome = make_reference(20000);
  HashIndexOptions options;
  options.k = 9;
  const GenomePos begin = 4096, end = 12288;
  const HashIndex fresh = HashIndex::build_shard(genome, options, begin, end);

  const std::string path = temp_path("fleet_shard.gidx");
  fleet::write_index_file(path, genome, fresh, begin, end);
  const fleet::LoadedIndex loaded = fleet::load_index_file(path,
                                                           /*verify=*/true);
  EXPECT_EQ(loaded.info.build_begin, begin);
  EXPECT_EQ(loaded.info.build_end, end);
  EXPECT_EQ(loaded.index.num_entries(), fresh.num_entries());
  for (Kmer kmer = 0; kmer < kmer_space(options.k); ++kmer) {
    const auto fresh_hits = fresh.lookup(kmer);
    const auto loaded_hits = loaded.index.lookup(kmer);
    ASSERT_EQ(fresh_hits.size(), loaded_hits.size()) << "kmer " << kmer;
    ASSERT_TRUE(std::equal(fresh_hits.begin(), fresh_hits.end(),
                           loaded_hits.begin()))
        << "kmer " << kmer;
  }
}

// ---------------------------------------------------------------------------
// Index file: damage is typed, never UB

class IndexFileDamage : public ::testing::Test {
 protected:
  void SetUp() override {
    const Genome genome = make_reference(6000);
    HashIndexOptions options;
    options.k = 9;
    const HashIndex index(genome, options);
    // ctest runs the fixture's cases as separate parallel processes; a
    // shared scratch name would race on the atomic-rename publish.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("fleet_damage_") + info->name() + ".gidx");
    fleet::write_index_file(path_, genome, index);
    file_bytes_ = static_cast<std::size_t>(fs::file_size(path_));
  }

  std::string path_;
  std::size_t file_bytes_ = 0;
};

TEST_F(IndexFileDamage, TruncationIsTyped) {
  const std::string dst = temp_path("fleet_truncated.gidx");
  // Empty, mid-header, header-only, mid-payload, and one-byte-short: every
  // prefix must fail typed instead of reading past the mapping.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{13}, std::size_t{80}, file_bytes_ / 2,
        file_bytes_ - 1}) {
    copy_truncated(path_, dst, keep);
    EXPECT_THROW(fleet::load_index_file(dst), ParseError)
        << "kept " << keep << " of " << file_bytes_ << " bytes";
  }
}

TEST_F(IndexFileDamage, BadMagicIsTyped) {
  const std::string dst = temp_path("fleet_badmagic.gidx");
  copy_with_flip(path_, dst, 0);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, WrongVersionIsTyped) {
  // The u32 version lives at offset 8; flipping it must fail even though
  // the rest of the header is intact (version gate or meta CRC, both
  // typed).
  const std::string dst = temp_path("fleet_badversion.gidx");
  copy_with_flip(path_, dst, 8);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, CorruptMetadataIsTyped) {
  // Damage inside the section table (just past the 80-byte header).
  const std::string dst = temp_path("fleet_badmeta.gidx");
  copy_with_flip(path_, dst, 92);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, CorruptPayloadCaughtByVerify) {
  // A flipped byte deep in a section body leaves the metadata intact; the
  // cheap load accepts it, the verifying load must not.
  const std::string dst = temp_path("fleet_badpayload.gidx");
  copy_with_flip(path_, dst, 80 + 5 * 24 + 512);
  EXPECT_THROW(fleet::load_index_file(dst, /*verify=*/true), ParseError);
}

// ---------------------------------------------------------------------------
// Registry: LRU eviction and typed kEvicted

TEST(Registry, LruEvictionAndEvictedError) {
  const Genome ga = make_reference(16000, /*seed=*/1);
  const Genome gb = make_reference(16000, /*seed=*/2);
  std::vector<fleet::GenomeSpec> specs(2);
  specs[0].id = "alpha";
  specs[0].path = write_genome_fasta(ga, temp_path("fleet_alpha.fa"));
  specs[1].id = "beta";
  specs[1].path = write_genome_fasta(gb, temp_path("fleet_beta.fa"));

  PipelineConfig config = small_config();

  // Probe pass without a budget to learn each genome's resident bytes.
  std::uint64_t bytes_a = 0, bytes_b = 0;
  {
    fleet::GenomeRegistry probe(specs, config, fleet::RegistryOptions{});
    probe.acquire("alpha");
    probe.acquire("beta");
    for (const auto& row : probe.rows()) {
      (row.id == "alpha" ? bytes_a : bytes_b) = row.bytes;
    }
  }
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_b, 0u);

  // Budget admits either genome alone but never both.
  fleet::RegistryOptions options;
  options.memory_budget_bytes = std::max(bytes_a, bytes_b) + 1;
  options.evicted_retry_ms = 1234;
  fleet::GenomeRegistry registry(specs, config, options);

  EXPECT_THROW(registry.acquire("nope"), fleet::UnknownGenomeError);

  fleet::GenomeLease lease_a = registry.acquire("alpha");
  EXPECT_EQ(registry.resident_bytes(), bytes_a);

  // alpha is held by a live lease, so beta cannot be admitted: typed
  // EvictedError carrying the configured retry hint, not a hang or an
  // eviction under a running request.
  try {
    registry.acquire("beta");
    FAIL() << "acquire(beta) should have thrown EvictedError";
  } catch (const fleet::EvictedError& e) {
    EXPECT_EQ(e.retry_after_ms(), 1234u);
  }
  EXPECT_EQ(registry.evictions(), 0u);

  // Once the lease drops, beta evicts idle alpha (LRU) and loads.
  lease_a.reset();
  fleet::GenomeLease lease_b = registry.acquire("beta");
  EXPECT_EQ(lease_b->id, "beta");
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_EQ(registry.resident_bytes(), bytes_b);
  for (const auto& row : registry.rows()) {
    if (row.id == "alpha") {
      EXPECT_FALSE(row.resident);
      EXPECT_EQ(row.evictions, 1u);
    }
    if (row.id == "beta") EXPECT_TRUE(row.resident);
  }

  // "" resolves to the default (first spec) and swaps beta back out.
  lease_b.reset();
  fleet::GenomeLease lease_default = registry.acquire("");
  EXPECT_EQ(lease_default->id, "alpha");
  EXPECT_EQ(registry.evictions(), 2u);
}

// ---------------------------------------------------------------------------
// Wire: kEvicted answers retry like BUSY

TEST(FleetServe, EvictedAnswerRetriesAndSucceeds) {
  const Workload wa = make_workload(16000);
  Workload wb;
  wb.ref = make_reference(16000, /*seed=*/7);
  ReadSimOptions sim_options;
  sim_options.coverage = 4.0;
  wb.reads = strip_metadata(simulate_reads(wb.ref, sim_options));
  std::ostringstream fastq_b;
  write_fastq(fastq_b, wb.reads);
  wb.fastq = fastq_b.str();

  std::vector<fleet::GenomeSpec> specs(2);
  specs[0].id = "alpha";
  specs[0].path = write_genome_fasta(wa.ref, temp_path("fleet_srv_a.fa"));
  specs[1].id = "beta";
  specs[1].path = write_genome_fasta(wb.ref, temp_path("fleet_srv_b.fa"));

  PipelineConfig config = small_config();

  std::uint64_t budget = 0;
  {
    fleet::GenomeRegistry probe(specs, config, fleet::RegistryOptions{});
    probe.acquire("alpha");
    probe.acquire("beta");
    for (const auto& row : probe.rows()) {
      budget = std::max(budget, row.bytes);
    }
  }

  ServeOptions options = test_options();
  options.registry_memory_budget_bytes = budget + 1;
  options.evicted_retry_ms = 50;
  MappingServer server(specs, config, options);
  server.start();

  // A raw v4 request pins alpha mid-request: MAP_BEGIN + MAP_GO, then the
  // upload stalls while the lease is held.
  Socket raw = serve::connect_tcp("127.0.0.1", server.port(), 5'000);
  serve::write_frame(raw, FrameType::kHello,
                     serve::encode_hello(serve::kProtocolVersion, "pin-alpha"),
                     5'000);
  auto hello = serve::read_frame(raw, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, FrameType::kHelloOk);
  serve::MapBeginInfo begin;
  begin.genome_id = "alpha";
  serve::write_frame(raw, FrameType::kMapBegin, serve::encode_map_begin(begin),
                     5'000);
  auto go = serve::read_frame(raw, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(go.has_value());
  ASSERT_EQ(go->type, FrameType::kMapGo);

  // Meanwhile a client asks for beta: the budget cannot admit it while
  // alpha is leased, so the server answers kEvicted + retry hint and the
  // client backs off and retries — like BUSY, nothing was uploaded yet.
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.genome_id = "beta";
  client_options.busy_retries = 100;
  client_options.backoff_base_ms = 10;
  client_options.backoff_max_ms = 50;
  serve::MapOutcome outcome;
  std::string tsv_text;
  std::thread mapper([&] {
    MappingClient client(client_options);
    std::istringstream fastq(wb.fastq);
    std::ostringstream tsv;
    outcome = client.map(fastq, tsv);
    tsv_text = tsv.str();
  });

  // Hold alpha long enough for at least one kEvicted round trip, then
  // finish the pinned request so beta can evict it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  serve::write_frame(raw, FrameType::kMapEnd, "", 5'000);
  for (;;) {
    auto frame = serve::read_frame(raw, serve::kDefaultMaxFrameBytes, 30'000);
    ASSERT_TRUE(frame.has_value()) << "pinned request died before MAP_DONE";
    if (frame->type == FrameType::kMapDone) break;
  }
  raw.close();

  mapper.join();
  EXPECT_FALSE(outcome.busy);
  EXPECT_GE(outcome.busy_answers, 1) << "client never saw a kEvicted answer";
  EXPECT_EQ(outcome.stats.at("genome_id"), "beta");

  // The retried request's calls match the offline pipeline on beta.
  VectorReadStream reads(wb.reads, config.stream_batch);
  const PipelineResult offline =
      run_pipeline_stream(wb.ref, reads, config, nullptr, nullptr);
  std::ostringstream expected;
  write_snps_tsv(expected, offline.calls);
  EXPECT_EQ(tsv_text, expected.str());

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Router: byte identity with a single whole-genome daemon

TEST(Router, ScatterGatherIsByteIdenticalToSingleDaemon) {
  const Workload w = make_workload(24000);
  PipelineConfig config = small_config();
  const OfflineResult offline = offline_outputs(w, config);

  // Single whole-genome daemon.
  ServeOptions single_options = test_options();
  MappingServer single(w.ref, config, single_options);
  single.start();

  std::string single_tsv, single_sam;
  {
    ClientOptions client_options;
    client_options.port = single.port();
    MappingClient client(client_options);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv, sam;
    const auto outcome = client.map(fastq, tsv, &sam);
    ASSERT_FALSE(outcome.busy);
    single_tsv = tsv.str();
    single_sam = sam.str();
  }
  EXPECT_EQ(single_tsv, offline.tsv);
  EXPECT_EQ(single_sam, offline.sam);

  // Two shard backends, each owning half the genome, plus the router.
  Deployed routed(Deployment::kRouter, w.ref, config, test_options());
  MappingServer& router = routed.front();
  router.start();
  std::string routed_tsv, routed_sam;
  {
    ClientOptions client_options;
    client_options.port = router.port();
    MappingClient client(client_options);
    EXPECT_NE(client.banner().find("gnumapd-router shards=2"),
              std::string::npos);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv, sam;
    const auto outcome = client.map(fastq, tsv, &sam);
    ASSERT_FALSE(outcome.busy);
    EXPECT_EQ(outcome.stats.at("router_shards"), "2");
    EXPECT_EQ(outcome.stats.at("reads_total"),
              std::to_string(w.reads.size()));
    routed_tsv = tsv.str();
    routed_sam = sam.str();
  }

  // The linchpin: scatter/gather must not change a single output byte.
  EXPECT_EQ(routed_tsv, single_tsv);
  EXPECT_EQ(routed_sam, single_sam);

  single.request_stop();
  single.wait();
}

TEST(Router, AttributesRoutedTimeToShardsFanoutAndMerge) {
  const Workload w = make_workload(16000);
  const PipelineConfig config = small_config();
  ServeOptions router_options = test_options();
  router_options.admin_port = 0;
  Deployed routed(Deployment::kRouter, w.ref, config, router_options);
  MappingServer& router = routed.front();
  router.start();

  ClientOptions client_options;
  client_options.port = router.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv, sam;
  const auto outcome = client.map(fastq, tsv, &sam);
  ASSERT_FALSE(outcome.busy);

  // Every routed key MAP_DONE had before stays, next to the split of the
  // request's time into shard work, waiting on shards, and merging.
  for (const char* key : {"router_shards", "reads_total", "total_seconds",
                          "phmm_cells", "upload_bytes", "result_bytes"}) {
    EXPECT_TRUE(outcome.stats.count(key)) << "MAP_DONE missing " << key;
  }
  const auto num = [&](const char* key) {
    return std::stod(outcome.stats.at(key));
  };
  EXPECT_GT(num("phmm_cells"), 0.0);
  EXPECT_GT(num("shard_seconds_max"), 0.0);
  EXPECT_GT(num("fanout_wait_seconds"), 0.0);
  EXPECT_GT(num("merge_seconds"), 0.0);
  EXPECT_GT(num("shard_index_load_seconds_max"), 0.0);
  EXPECT_LE(num("fanout_wait_seconds") + num("merge_seconds"),
            num("total_seconds"));

  // The same split reaches the router's digest ring and /tracez.  The
  // digest is recorded just after MAP_DONE is sent, so wait for it.
  for (int i = 0; i < 500 && router.digests().total_recorded() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto digests = router.digests().snapshot();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].shards, 2u);
  EXPECT_GT(digests[0].shard_seconds_max, 0.0);
  EXPECT_GT(digests[0].merge_seconds, 0.0);
  Socket http = serve::connect_tcp(
      "127.0.0.1", static_cast<std::uint16_t>(router.admin_port()),
      5'000);
  const std::string get = "GET /tracez HTTP/1.0\r\n\r\n";
  http.send_all(get.data(), get.size(), 5'000);
  std::string body;
  char buf[4096];
  for (std::size_t n; (n = http.recv_some(buf, sizeof buf, 10'000)) != 0;) {
    body.append(buf, n);
  }
  for (const char* key : {"\"router_shards\": 2", "\"shard_seconds_max\"",
                          "\"fanout_wait_seconds\"", "\"merge_seconds\"",
                          "\"shard_index_load_seconds_max\""}) {
    EXPECT_NE(body.find(key), std::string::npos) << key << "\n" << body;
  }
}

TEST(Router, GenomeIdItDoesNotHoldIsRefusedNotMisrendered) {
  // Shards that host two genomes: a router over genome A must not accept a
  // request naming genome B, whose scores it would render against A.
  const Workload w = make_workload(16000);
  const Genome other = make_reference(16000, /*seed=*/7);
  const PipelineConfig config = small_config();
  std::vector<fleet::GenomeSpec> specs(2);
  specs[0].id = "default";
  specs[0].path = write_genome_fasta(w.ref, temp_path("router_id_a.fa"));
  specs[1].id = "beta";
  specs[1].path = write_genome_fasta(other, temp_path("router_id_b.fa"));
  std::vector<std::unique_ptr<MappingServer>> shards;
  ServeOptions router_options = test_options();
  for (int i = 0; i < 2; ++i) {
    ServeOptions options = test_options();
    options.shard_index = i;
    options.shard_count = 2;
    shards.push_back(std::make_unique<MappingServer>(specs, config, options));
    shards.back()->start();
    router_options.route_shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  MappingServer router(w.ref, config, router_options);
  router.start();

  ClientOptions client_options;
  client_options.port = router.port();
  client_options.genome_id = "beta";
  {
    MappingClient client(client_options);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv;
    try {
      client.map(fastq, tsv);
      FAIL() << "router mapped a genome it does not hold";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kProtocol) << e.what();
      EXPECT_NE(std::string(e.what()).find("unknown genome id"),
                std::string::npos)
          << e.what();
    }
  }
  // Naming the router's own genome still maps, byte-identically.
  client_options.genome_id = "default";
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  const auto outcome = client.map(fastq, tsv);
  ASSERT_FALSE(outcome.busy);
  EXPECT_EQ(outcome.stats.at("genome_id"), "default");
  EXPECT_EQ(tsv.str(), offline_outputs(w, config).tsv);

  router.request_stop();
  router.wait();
  for (auto& shard : shards) {
    shard->request_stop();
    shard->wait();
  }
}

// ---------------------------------------------------------------------------
// Server: registry facts on the wire

TEST(FleetServe, StatsCarryRegistryAndLoadTime) {
  const Workload w = make_workload(16000);
  PipelineConfig config = small_config();
  std::vector<fleet::GenomeSpec> specs(1);
  specs[0].id = "main";
  specs[0].path = write_genome_fasta(w.ref, temp_path("fleet_stats.fa"));

  MappingServer server(specs, config, test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  const std::string stats = client.stats();
  EXPECT_NE(stats.find("registry_genomes=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("registry_resident_bytes="), std::string::npos);
  EXPECT_NE(stats.find("registry_evictions_total=0"), std::string::npos);
  EXPECT_NE(stats.find("index_load_seconds="), std::string::npos);

  // MAP_DONE names the genome that served the request.
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  const auto outcome = client.map(fastq, tsv);
  ASSERT_FALSE(outcome.busy);
  EXPECT_EQ(outcome.stats.at("genome_id"), "main");
  EXPECT_NE(outcome.stats.find("index_load_seconds"), outcome.stats.end());

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace gnumap
