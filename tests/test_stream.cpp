// Tests for the streaming read pipeline: BatchQueue/ReorderBuffer, the
// ReadStream sources, FASTQ robustness, and the ordering/memory guarantees
// of the staged pipeline — byte-identical output across thread counts and
// between the vector and streaming paths (shared-memory and distributed).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/gzip_stream.hpp"
#include "gnumap/io/quality.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/batch_queue.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {
namespace {

// ---------------------------------------------------------------------------
// BatchQueue

TEST(BatchQueue, FifoAndDrainsAfterClose) {
  BatchQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  queue.close();
  for (int i = 0; i < 5; ++i) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BatchQueue, PushAfterCloseReturnsFalse) {
  BatchQueue<int> queue(2);
  queue.close();
  EXPECT_FALSE(queue.push(1));
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BatchQueue, BackpressureBoundsQueueSize) {
  BatchQueue<int> queue(2);
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) queue.push(i);
    queue.close();
  });
  int expected = 0;
  while (auto item = queue.pop()) {
    EXPECT_EQ(*item, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, 50);
  // The producer ran far ahead of the consumer but could never buffer more
  // than the capacity.
  EXPECT_LE(queue.peak_size(), 2u);
}

// ---------------------------------------------------------------------------
// ReorderBuffer

TEST(ReorderBuffer, RestoresInputOrder) {
  ReorderBuffer<int> reorder(8);
  // Push 0..7 in reverse from a helper thread; every seq is inside the
  // admission window so none of them block.
  std::thread producer([&] {
    for (int seq = 7; seq >= 0; --seq) {
      EXPECT_TRUE(reorder.push(static_cast<std::uint64_t>(seq), seq * 10));
    }
    reorder.close();
  });
  for (int seq = 0; seq < 8; ++seq) {
    const auto item = reorder.pop_next();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, seq * 10);
  }
  EXPECT_FALSE(reorder.pop_next().has_value());
  producer.join();
}

TEST(ReorderBuffer, AdmissionWindowBlocksFarAheadItems) {
  ReorderBuffer<int> reorder(2);
  std::atomic<bool> parked_far_item{false};
  // seq 2 is outside the window while next_seq == 0; the push must wait
  // until the drain advances.
  std::thread producer([&] {
    EXPECT_TRUE(reorder.push(2, 22));
    parked_far_item = true;
  });
  EXPECT_TRUE(reorder.push(1, 11));
  EXPECT_FALSE(parked_far_item.load());
  EXPECT_TRUE(reorder.push(0, 0));
  EXPECT_EQ(reorder.pop_next(), 0);   // next_seq -> 1, window admits seq 2
  EXPECT_EQ(reorder.pop_next(), 11);
  EXPECT_EQ(reorder.pop_next(), 22);
  producer.join();
  EXPECT_TRUE(parked_far_item.load());
}

TEST(ReorderBuffer, CloseUnblocksWaitersAndKeepsPrefix) {
  ReorderBuffer<int> reorder(2);
  EXPECT_TRUE(reorder.push(0, 100));
  std::thread blocked([&] {
    // Blocks (window is [0, 2)); close() must release it with false.
    EXPECT_FALSE(reorder.push(5, 555));
  });
  reorder.close();
  blocked.join();
  // The in-order prefix parked before close() still drains.
  EXPECT_EQ(reorder.pop_next(), 100);
  EXPECT_FALSE(reorder.pop_next().has_value());
}

// ---------------------------------------------------------------------------
// Queue edge cases: degenerate capacities, window wraparound far past the
// capacity, and close() racing blocked producers and consumers.

TEST(BatchQueue, ZeroCapacityIsRejected) {
  EXPECT_THROW(BatchQueue<int>(0), ConfigError);
  EXPECT_THROW(ReorderBuffer<int>(0), ConfigError);
}

TEST(BatchQueue, CapacityOneStillMovesEveryItem) {
  BatchQueue<int> queue(1);
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) queue.push(i);
    queue.close();
  });
  int expected = 0;
  while (auto item = queue.pop()) EXPECT_EQ(*item, expected++);
  producer.join();
  EXPECT_EQ(expected, 200);
  EXPECT_EQ(queue.peak_size(), 1u);
}

TEST(ReorderBuffer, CapacityOneSerializesProducers) {
  // With a window of one, only the exact next item is ever admissible, so
  // out-of-order workers are fully serialized — and must still finish.
  ReorderBuffer<int> reorder(1);
  constexpr int kItems = 100;
  std::atomic<int> next_claim{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const int seq = next_claim.fetch_add(1);
        if (seq >= kItems) return;
        EXPECT_TRUE(reorder.push(static_cast<std::uint64_t>(seq), seq));
      }
    });
  }
  for (int seq = 0; seq < kItems; ++seq) {
    const auto item = reorder.pop_next();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, seq);
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(reorder.peak_pending(), 1u);
}

TEST(ReorderBuffer, WindowSlidesFarPastCapacity) {
  // The admission window wraps around the capacity many times over; order
  // and the pending bound must hold across every wrap.
  ReorderBuffer<std::uint64_t> reorder(3);
  constexpr std::uint64_t kItems = 3000;  // 1000 full window turns
  std::atomic<std::uint64_t> next_claim{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::uint64_t seq = next_claim.fetch_add(1);
        if (seq >= kItems) return;
        EXPECT_TRUE(reorder.push(seq, seq * 7));
      }
    });
  }
  for (std::uint64_t seq = 0; seq < kItems; ++seq) {
    const auto item = reorder.pop_next();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, seq * 7);
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(reorder.peak_pending(), 3u);
}

TEST(BatchQueue, ConcurrentCloseReleasesBlockedProducersAndConsumers) {
  BatchQueue<int> queue(2);
  EXPECT_TRUE(queue.push(0));
  EXPECT_TRUE(queue.push(1));  // full: further pushes block

  std::atomic<int> refused_pushes{0};
  std::vector<std::thread> blocked;
  for (int t = 0; t < 3; ++t) {
    blocked.emplace_back([&] {
      if (!queue.push(99)) ++refused_pushes;
    });
  }
  // Two closers racing each other and the blocked producers: close() is
  // idempotent and must release every waiter exactly once.
  std::thread closer1([&] { queue.close(); });
  std::thread closer2([&] { queue.close(); });
  closer1.join();
  closer2.join();
  for (auto& t : blocked) t.join();
  EXPECT_EQ(refused_pushes.load(), 3);

  // Items queued before the close still drain, then poppers see the end.
  EXPECT_EQ(queue.pop(), 0);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(ReorderBuffer, ConcurrentCloseWhileProducersBlockedBeyondWindow) {
  ReorderBuffer<int> reorder(2);
  std::atomic<int> refused{0};
  std::vector<std::thread> blocked;
  for (int t = 0; t < 3; ++t) {
    blocked.emplace_back([&, t] {
      // All beyond the [0, 2) window, so all park until close().
      if (!reorder.push(static_cast<std::uint64_t>(10 + t), t)) ++refused;
    });
  }
  std::thread waiting_drain([&] {
    // Blocks: seq 0 never arrives; close() must deliver nullopt.
    EXPECT_FALSE(reorder.pop_next().has_value());
  });
  reorder.close();
  for (auto& t : blocked) t.join();
  waiting_drain.join();
  EXPECT_EQ(refused.load(), 3);
}

// ---------------------------------------------------------------------------
// VectorReadStream

std::vector<Read> tiny_reads(std::size_t n) {
  std::vector<Read> reads(n);
  for (std::size_t i = 0; i < n; ++i) {
    reads[i].name = "r" + std::to_string(i);
    reads[i].bases = {0, 1, 2, 3};
    reads[i].quals = {40, 40, 40, 40};
  }
  return reads;
}

TEST(VectorStream, BatchesCursorResetSkip) {
  const auto reads = tiny_reads(10);
  VectorReadStream stream(reads, 4);
  EXPECT_EQ(stream.size_hint(), 10u);
  EXPECT_EQ(stream.batch_size(), 4u);

  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.first_index, 0u);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.reads[0].name, "r0");
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.first_index, 4u);
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.size(), 2u);  // final partial batch
  EXPECT_EQ(stream.cursor(), 10u);
  EXPECT_FALSE(stream.next(batch));
  EXPECT_TRUE(batch.empty());

  EXPECT_TRUE(stream.reset());
  EXPECT_EQ(stream.cursor(), 0u);
  EXPECT_EQ(stream.skip(7), 7u);
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.first_index, 7u);
  EXPECT_EQ(batch.reads[0].name, "r7");
  EXPECT_EQ(stream.skip(99), 0u);  // past the end
}

TEST(VectorStream, RejectsZeroBatchSize) {
  const auto reads = tiny_reads(2);
  EXPECT_THROW(VectorReadStream(reads, 0), ConfigError);
}

// ---------------------------------------------------------------------------
// FastqReadStream

constexpr const char* kFastqThree =
    "@r1\nACGT\n+\nIIII\n@r2\nGGTT\n+\n!!!!\n@r3\nTTAA\n+\nIIII\n";

TEST(FastqStream, DeliversRecordsWithCursor) {
  std::istringstream in(kFastqThree);
  FastqReadStream stream(in, 2);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.first_index, 0u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.reads[0].name, "r1");
  EXPECT_EQ(batch.reads[1].name, "r2");
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.first_index, 2u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.reads[0].name, "r3");
  EXPECT_FALSE(stream.next(batch));
  EXPECT_EQ(stream.cursor(), 3u);
  EXPECT_GT(stream.bytes_decoded(), 0u);
  // String streams can seek, so reset() re-parses from the top.
  EXPECT_TRUE(stream.reset());
  EXPECT_EQ(stream.cursor(), 0u);
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.reads[0].name, "r1");
}

TEST(FastqStream, SkipParsesPastRecords) {
  std::istringstream in(kFastqThree);
  FastqReadStream stream(in, 8);
  EXPECT_EQ(stream.skip(2), 2u);
  EXPECT_EQ(stream.cursor(), 2u);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.first_index, 2u);
  EXPECT_EQ(batch.reads[0].name, "r3");
  EXPECT_EQ(stream.skip(1), 0u);  // exhausted
}

TEST(FastqStream, FileFormStreamsAndResets) {
  const std::string path = ::testing::TempDir() + "test_stream_reads.fastq";
  {
    std::ofstream out(path);
    out << kFastqThree;
  }
  FastqReadStream stream(path, 2);
  ReadBatch batch;
  std::size_t total = 0;
  while (stream.next(batch)) total += batch.size();
  EXPECT_EQ(total, 3u);
  EXPECT_TRUE(stream.reset());
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.reads[0].name, "r1");
  std::remove(path.c_str());
}

TEST(FastqStream, MissingFileThrows) {
  EXPECT_THROW(FastqReadStream("/nonexistent/reads.fastq", 4), ParseError);
}

// ---------------------------------------------------------------------------
// FASTQ robustness: empty input, truncation, length mismatch — through both
// the vector API and the stream.

TEST(FastqRobustness, EmptyInputIsEmptyNotError) {
  std::istringstream vec_in("");
  EXPECT_TRUE(read_fastq(vec_in).empty());

  std::istringstream stream_in("");
  FastqReadStream stream(stream_in, 4);
  ReadBatch batch;
  EXPECT_FALSE(stream.next(batch));
  EXPECT_EQ(stream.cursor(), 0u);
}

TEST(FastqRobustness, LengthMismatchNamesSourceAndRecord) {
  // Second record has 2 quality values for 4 bases; the error must point at
  // the file and the record so a user can find the damage.
  const std::string text = "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nII\n";
  std::istringstream in(text);
  try {
    read_fastq(in, kPhred33, "reads.fastq");
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reads.fastq"), std::string::npos) << what;
    EXPECT_NE(what.find("FASTQ record 2"), std::string::npos) << what;
    EXPECT_NE(what.find("length mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("4 bases"), std::string::npos) << what;
    EXPECT_NE(what.find("2 quality values"), std::string::npos) << what;
  }

  std::istringstream stream_in(text);
  FastqReadStream stream(stream_in, 8, kPhred33, "reads.fastq");
  ReadBatch batch;
  try {
    stream.next(batch);
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reads.fastq: FASTQ record 2"), std::string::npos)
        << what;
  }
}

TEST(FastqRobustness, TruncatedFinalRecordNamesRecord) {
  const std::string text = "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n";
  std::istringstream vec_in(text);
  EXPECT_THROW(read_fastq(vec_in), ParseError);

  std::istringstream stream_in(text);
  FastqReadStream stream(stream_in, 8);
  ReadBatch batch;
  try {
    stream.next(batch);
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated record"), std::string::npos) << what;
    EXPECT_NE(what.find("FASTQ record 2"), std::string::npos) << what;
  }
}

TEST(FastqRobustness, FilePathAppearsInFileErrors) {
  const std::string path = ::testing::TempDir() + "test_stream_damaged.fastq";
  {
    std::ofstream out(path);
    out << "@r1\nACGT\n+\nII\n";
  }
  try {
    read_fastq_file(path);
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Gzip FASTQ: content-detected decompression in front of the same stream.

std::vector<Read> drain_stream(ReadStream& stream) {
  std::vector<Read> all;
  ReadBatch batch;
  while (stream.next(batch)) {
    for (auto& read : batch.reads) all.push_back(std::move(read));
  }
  return all;
}

void expect_same_reads(const std::vector<Read>& expected,
                       const std::vector<Read>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].name, actual[i].name);
    EXPECT_EQ(expected[i].bases, actual[i].bases);
    EXPECT_EQ(expected[i].quals, actual[i].quals);
  }
}

TEST(GzipStream, RoundTripMatchesPlainStream) {
  if (!gzip_available()) GTEST_SKIP() << "built without zlib";
  const std::string path = "gzip_roundtrip_tmp.fastq.gz";
  {
    std::ofstream out(path, std::ios::binary);
    out << gzip_compress(kFastqThree);
  }
  std::istringstream plain_text(kFastqThree);
  FastqReadStream plain(plain_text, 2);
  auto gz = open_fastq_read_stream(path, 2);
  expect_same_reads(drain_stream(plain), drain_stream(*gz));
  std::remove(path.c_str());
}

TEST(GzipStream, FactoryDetectsByContentNotExtension) {
  if (!gzip_available()) GTEST_SKIP() << "built without zlib";
  // A gzip payload behind a .fastq name still decompresses; a plain
  // payload behind a .gz name still parses directly.
  const std::string gz_path = "gzip_detect_tmp.fastq";
  const std::string plain_path = "gzip_detect_tmp2.fastq.gz";
  {
    std::ofstream out(gz_path, std::ios::binary);
    out << gzip_compress(kFastqThree);
  }
  {
    std::ofstream out(plain_path, std::ios::binary);
    out << kFastqThree;
  }
  auto from_gz = open_fastq_read_stream(gz_path, 2);
  auto from_plain = open_fastq_read_stream(plain_path, 2);
  expect_same_reads(drain_stream(*from_gz), drain_stream(*from_plain));
  std::remove(gz_path.c_str());
  std::remove(plain_path.c_str());
}

TEST(GzipStream, MultiMemberFilesConcatenate) {
  if (!gzip_available()) GTEST_SKIP() << "built without zlib";
  const std::string path = "gzip_multimember_tmp.fastq.gz";
  {
    // `cat a.gz b.gz`: two members, one logical stream.
    std::ofstream out(path, std::ios::binary);
    out << gzip_compress("@r1\nACGT\n+\nIIII\n")
        << gzip_compress("@r2\nGGTT\n+\n!!!!\n");
  }
  auto stream = open_fastq_read_stream(path, 4);
  const auto reads = drain_stream(*stream);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].name, "r1");
  EXPECT_EQ(reads[1].name, "r2");
  std::remove(path.c_str());
}

TEST(GzipStream, ResetAndSkipBehaveLikePlainStream) {
  if (!gzip_available()) GTEST_SKIP() << "built without zlib";
  const std::string path = "gzip_reset_tmp.fastq.gz";
  {
    std::ofstream out(path, std::ios::binary);
    out << gzip_compress(kFastqThree);
  }
  auto stream = open_fastq_read_stream(path, 2);
  ReadBatch batch;
  ASSERT_TRUE(stream->next(batch));
  EXPECT_EQ(batch.first_index, 0u);
  ASSERT_TRUE(stream->reset());
  EXPECT_EQ(stream->cursor(), 0u);
  EXPECT_EQ(stream->skip(2), 2u);
  ASSERT_TRUE(stream->next(batch));
  EXPECT_EQ(batch.first_index, 2u);
  EXPECT_EQ(batch.reads[0].name, "r3");
  std::remove(path.c_str());
}

TEST(GzipStream, TruncatedFileRaisesParseError) {
  if (!gzip_available()) GTEST_SKIP() << "built without zlib";
  const std::string path = "gzip_truncated_tmp.fastq.gz";
  const std::string full = gzip_compress(kFastqThree);
  {
    std::ofstream out(path, std::ios::binary);
    out << full.substr(0, full.size() - 6);  // clip the trailer + data
  }
  auto stream = open_fastq_read_stream(path, 2);
  ReadBatch batch;
  EXPECT_THROW({
    while (stream->next(batch)) {
    }
  }, ParseError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Staged pipeline: ordering and memory guarantees.

struct Workload {
  Genome ref;
  SnpCatalog catalog;
  std::vector<Read> reads;
};

Workload make_workload(std::uint64_t length = 20000, double coverage = 6.0) {
  ReferenceGenOptions ref_options;
  ref_options.length = length;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = 12;
  w.catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, w.catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = coverage;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  return w;
}

PipelineConfig stream_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.stream_batch = 32;
  config.queue_depth = 2;
  config.min_parallel_reads = 0;  // force the staged path on small inputs
  return config;
}

void expect_identical_calls(const std::vector<SnpCall>& expected,
                            const std::vector<SnpCall>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].contig, actual[i].contig);
    EXPECT_EQ(expected[i].position, actual[i].position);
    EXPECT_EQ(expected[i].ref, actual[i].ref);
    EXPECT_EQ(expected[i].allele1, actual[i].allele1);
    EXPECT_EQ(expected[i].allele2, actual[i].allele2);
    // Bit-identical, not approximately equal: the streaming path must
    // accumulate in exactly the serial order.
    EXPECT_EQ(expected[i].coverage, actual[i].coverage);
    EXPECT_EQ(expected[i].lrt_stat, actual[i].lrt_stat);
    EXPECT_EQ(expected[i].p_value, actual[i].p_value);
  }
}

std::string calls_tsv(const std::vector<SnpCall>& calls) {
  std::ostringstream out;
  write_snps_tsv(out, calls);
  return out.str();
}

TEST(StreamPipeline, ThreadedOutputByteIdenticalToSerial) {
  const Workload w = make_workload();
  PipelineConfig serial = stream_config();
  serial.threads = 1;
  PipelineConfig threaded = stream_config();
  threaded.threads = 4;

  std::ostringstream serial_sam, threaded_sam;
  const auto serial_result =
      run_pipeline_with_accumulator(w.ref, w.reads, serial, nullptr,
                                    &serial_sam);
  const auto threaded_result =
      run_pipeline_with_accumulator(w.ref, w.reads, threaded, nullptr,
                                    &threaded_sam);

  // SAM records, SNP TSV, and every call field must match byte for byte:
  // the reorder buffer drains batches in input order, and accumulation
  // order (float addition is not associative) matches the serial path.
  EXPECT_EQ(serial_sam.str(), threaded_sam.str());
  EXPECT_EQ(calls_tsv(serial_result.calls), calls_tsv(threaded_result.calls));
  expect_identical_calls(serial_result.calls, threaded_result.calls);
  EXPECT_EQ(serial_result.stats.reads_total, threaded_result.stats.reads_total);
  EXPECT_EQ(serial_result.stats.reads_mapped,
            threaded_result.stats.reads_mapped);
  EXPECT_GT(threaded_result.batches_decoded, 1u);
}

TEST(StreamPipeline, EightThreadsByteIdenticalIncludingAccumulator) {
  // Same invariant at a higher worker count, and one level deeper: the
  // final accumulator bytes must match too, which catches any reordering
  // of the worker-flattened delta replay (float addition is not
  // associative).
  const Workload w = make_workload();
  PipelineConfig serial = stream_config();
  serial.threads = 1;
  PipelineConfig threaded = stream_config();
  threaded.threads = 8;

  std::ostringstream serial_sam, threaded_sam;
  std::unique_ptr<Accumulator> serial_accum, threaded_accum;
  const auto serial_result = run_pipeline_with_accumulator(
      w.ref, w.reads, serial, &serial_accum, &serial_sam);
  const auto threaded_result = run_pipeline_with_accumulator(
      w.ref, w.reads, threaded, &threaded_accum, &threaded_sam);

  EXPECT_EQ(serial_sam.str(), threaded_sam.str());
  EXPECT_EQ(calls_tsv(serial_result.calls), calls_tsv(threaded_result.calls));
  expect_identical_calls(serial_result.calls, threaded_result.calls);
  ASSERT_NE(serial_accum, nullptr);
  ASSERT_NE(threaded_accum, nullptr);
  EXPECT_EQ(serial_accum->to_bytes(), threaded_accum->to_bytes());
  // Worker formatting actually ran and was accounted for.
  EXPECT_GT(threaded_result.output_bytes, 0u);
  EXPECT_EQ(threaded_result.output_bytes, serial_result.output_bytes);
}

TEST(StreamPipeline, TinyOutputBufferStillByteIdentical) {
  // A byte budget far below one rendered chunk forces maximal blocking in
  // the splicer; the in-order exemption must keep the pipeline live and
  // the output identical.
  const Workload w = make_workload();
  PipelineConfig serial = stream_config();
  serial.threads = 1;
  PipelineConfig squeezed = stream_config();
  squeezed.threads = 4;
  squeezed.output_buffer_bytes = 64;

  std::ostringstream serial_sam, squeezed_sam;
  const auto serial_result = run_pipeline_with_accumulator(
      w.ref, w.reads, serial, nullptr, &serial_sam);
  const auto squeezed_result = run_pipeline_with_accumulator(
      w.ref, w.reads, squeezed, nullptr, &squeezed_sam);

  EXPECT_EQ(serial_sam.str(), squeezed_sam.str());
  expect_identical_calls(serial_result.calls, squeezed_result.calls);
}

TEST(StreamPipeline, FastqStreamMatchesVectorPath) {
  const Workload w = make_workload();
  // Round-trip the simulated reads through FASTQ text so the FASTQ-backed
  // (unsized) stream is exercised end to end.
  std::ostringstream fastq;
  write_fastq(fastq, w.reads);

  PipelineConfig config = stream_config();
  config.threads = 4;

  std::ostringstream vector_sam, stream_sam;
  const auto vector_result = run_pipeline_with_accumulator(
      w.ref, w.reads, config, nullptr, &vector_sam);

  std::istringstream fastq_in(fastq.str());
  FastqReadStream stream(fastq_in, config.stream_batch);
  const auto stream_result =
      run_pipeline_stream(w.ref, stream, config, nullptr, &stream_sam);

  EXPECT_EQ(vector_sam.str(), stream_sam.str());
  expect_identical_calls(vector_result.calls, stream_result.calls);
}

TEST(StreamPipeline, InFlightPeakBoundedIndependentOfDatasetSize) {
  PipelineConfig config = stream_config();
  config.threads = 4;
  config.stream_batch = 8;
  config.queue_depth = 2;
  // The documented bound, (2 * (2 + 4) + 1) * 8 = 104 reads here: the
  // same function serve admission reserves per request.
  const std::uint64_t bound = in_flight_bound_reads(config);
  ASSERT_EQ(bound, 104u);

  const Workload small = make_workload(15000, 3.0);
  const Workload large = make_workload(15000, 12.0);
  ASSERT_GT(large.reads.size(), bound * 3);

  const auto small_result = run_pipeline(small.ref, small.reads, config);
  const auto large_result = run_pipeline(large.ref, large.reads, config);
  EXPECT_GT(small_result.reads_in_flight_peak, 0u);
  EXPECT_LE(small_result.reads_in_flight_peak, bound);
  // The bound does not grow with the dataset: 4x the reads, same ceiling.
  EXPECT_LE(large_result.reads_in_flight_peak, bound);
}

// ---------------------------------------------------------------------------
// Distributed streaming: byte-identical to the vector overload, and
// fault-tolerant via stream-cursor checkpoints.

TEST(StreamDist, ReadPartitionMatchesVectorPathExactly) {
  const Workload w = make_workload();
  const PipelineConfig config = stream_config();
  DistOptions options;
  options.ranks = 3;
  options.mode = DistMode::kReadPartition;
  options.serialize_compute = false;

  const auto vector_result = run_distributed(w.ref, w.reads, config, options);
  VectorReadStream stream(w.reads, config.stream_batch);
  const auto stream_result = run_distributed(w.ref, stream, config, options);

  // Sized stream -> the pump follows the vector path's shard boundaries;
  // per-rank accumulators, the reduce, and the calls are all bit-identical.
  expect_identical_calls(vector_result.calls, stream_result.calls);
  EXPECT_EQ(vector_result.stats.reads_total, stream_result.stats.reads_total);
  EXPECT_EQ(vector_result.stats.reads_mapped,
            stream_result.stats.reads_mapped);
  // Rank-local TSV formatting: the document rank 0 assembled must equal a
  // root-side render of the final calls — i.e. the serial bytes.
  EXPECT_EQ(vector_result.tsv, calls_tsv(vector_result.calls));
  EXPECT_EQ(stream_result.tsv, vector_result.tsv);
}

TEST(StreamDist, GenomePartitionMatchesVectorPathExactly) {
  const Workload w = make_workload();
  const PipelineConfig config = stream_config();
  DistOptions options;
  options.ranks = 3;
  options.mode = DistMode::kGenomePartition;
  options.serialize_compute = false;
  options.batch_size = 128;

  const auto vector_result = run_distributed(w.ref, w.reads, config, options);

  // Prescan path (max_read_len measured from the stream)...
  VectorReadStream stream(w.reads, config.stream_batch);
  const auto stream_result = run_distributed(w.ref, stream, config, options);
  expect_identical_calls(vector_result.calls, stream_result.calls);
  EXPECT_EQ(vector_result.stats.reads_total, stream_result.stats.reads_total);
  EXPECT_EQ(vector_result.stats.reads_mapped,
            stream_result.stats.reads_mapped);
  // Every rank rendered its own segment's rows; the root's rank-order
  // splice must be byte-identical to rendering the gathered calls.
  EXPECT_EQ(vector_result.tsv, calls_tsv(vector_result.calls));
  EXPECT_EQ(stream_result.tsv, vector_result.tsv);

  // ...and the hint path (no prescan needed) must agree too.
  std::uint32_t max_len = 0;
  for (const auto& read : w.reads) {
    max_len = std::max(max_len, static_cast<std::uint32_t>(read.length()));
  }
  options.max_read_len = max_len;
  VectorReadStream hinted(w.reads, config.stream_batch);
  const auto hinted_result = run_distributed(w.ref, hinted, config, options);
  expect_identical_calls(vector_result.calls, hinted_result.calls);
}

TEST(StreamDist, ReadPartitionCrashRecoveryMatchesFaultFree) {
  const Workload w = make_workload();
  const PipelineConfig config = stream_config();
  DistOptions options;
  options.ranks = 3;
  options.mode = DistMode::kReadPartition;
  options.serialize_compute = false;

  VectorReadStream clean_stream(w.reads, config.stream_batch);
  const auto clean = run_distributed(w.ref, clean_stream, config, options);

  options.faults.crash(1, 40);  // mid-shard, between checkpoints
  options.recv_timeout_seconds = 5.0;
  VectorReadStream faulty_stream(w.reads, config.stream_batch);
  const auto faulty = run_distributed(w.ref, faulty_stream, config, options);

  EXPECT_GE(faulty.recovery.attempts, 2);
  EXPECT_EQ(faulty.recovery.failed_ranks.front(), 1);
  expect_identical_calls(clean.calls, faulty.calls);
  // Recovery replays from checkpoints; the rendered TSV must not carry any
  // bytes from the aborted attempt.
  EXPECT_EQ(faulty.tsv, clean.tsv);
  EXPECT_EQ(faulty.tsv, calls_tsv(faulty.calls));
}

TEST(StreamDist, GenomePartitionCrashRecoveryMatchesFaultFree) {
  const Workload w = make_workload();
  const PipelineConfig config = stream_config();
  DistOptions options;
  options.ranks = 3;
  options.mode = DistMode::kGenomePartition;
  options.serialize_compute = false;
  options.batch_size = 128;

  VectorReadStream clean_stream(w.reads, config.stream_batch);
  const auto clean = run_distributed(w.ref, clean_stream, config, options);

  options.faults.crash(1, 5);  // during an early broadcast batch
  options.recv_timeout_seconds = 5.0;
  VectorReadStream faulty_stream(w.reads, config.stream_batch);
  const auto faulty = run_distributed(w.ref, faulty_stream, config, options);

  EXPECT_GE(faulty.recovery.attempts, 2);
  expect_identical_calls(clean.calls, faulty.calls);
  // Same for the genome-partition splice: rank-local bodies gathered on
  // the final attempt only.
  EXPECT_EQ(faulty.tsv, clean.tsv);
  EXPECT_EQ(faulty.tsv, calls_tsv(faulty.calls));
}

TEST(StreamDist, RequiresStreamAtStart) {
  const auto reads = tiny_reads(8);
  VectorReadStream stream(reads, 4);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));  // advance the cursor

  Genome genome;
  genome.add_contig("chr1", std::string(2000, 'A'));
  PipelineConfig config;
  DistOptions options;
  EXPECT_THROW(run_distributed(genome, stream, config, options), ConfigError);
}

}  // namespace
}  // namespace gnumap
