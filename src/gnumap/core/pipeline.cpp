#include "gnumap/core/pipeline.hpp"

#include <algorithm>

#include "gnumap/core/session.hpp"

namespace gnumap {

std::uint64_t in_flight_bound_reads(const PipelineConfig& config) {
  const std::uint64_t threads =
      static_cast<std::uint64_t>(std::max(1, config.threads));
  const std::uint64_t queue_depth =
      std::max<std::uint64_t>(1, config.queue_depth);
  const std::uint64_t batch = std::max<std::uint32_t>(1, config.stream_batch);
  // Worst case: one batch in the decoder's hands, queue_depth queued,
  // threads being scored, and queue_depth + threads parked in the splice
  // window.
  return (2 * (queue_depth + threads) + 1) * batch;
}

PipelineResult run_pipeline_stream(const Genome& genome, ReadStream& reads,
                                   const PipelineConfig& config,
                                   std::unique_ptr<Accumulator>* accum_out,
                                   std::ostream* sam_out) {
  // One-shot form: build the session (index + mapper), run it once, drop
  // it.  Long-lived callers (gnumapd) construct MappingSession directly and
  // call run() per request so the index build is paid exactly once.
  const MappingSession session(genome, config);
  return session.run(reads, accum_out, sam_out);
}

PipelineResult run_pipeline_with_accumulator(
    const Genome& genome, const std::vector<Read>& reads,
    const PipelineConfig& config, std::unique_ptr<Accumulator>* accum_out,
    std::ostream* sam_out) {
  VectorReadStream stream(reads,
                          std::max<std::uint32_t>(1, config.stream_batch));
  return run_pipeline_stream(genome, stream, config, accum_out, sam_out);
}

PipelineResult run_pipeline(const Genome& genome,
                            const std::vector<Read>& reads,
                            const PipelineConfig& config) {
  return run_pipeline_with_accumulator(genome, reads, config, nullptr);
}

}  // namespace gnumap
