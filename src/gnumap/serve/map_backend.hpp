// The request body behind the one serving front end (server.hpp).
//
// MappingServer owns everything around a MAP request: listener, HEALTH and
// HELLO handshake, connection limit, admission, the effective deadline and
// its watchdog, connection budgets, request digests, the admin endpoint,
// the wire fault shim, STATS, and the one MAP_DONE writer.  What differs
// between a daemon that maps against resident genomes and a router that
// fans reads out to shard daemons is only this:
//
//   * resolving the MAP_BEGIN genome id (MapBackend::open);
//   * setup that must finish before the client's MAP_GO (MapJob::prepare);
//   * the run that turns the client's reads into calls, SAM bytes and
//     stats (MapJob::run).
//
// Two backends exist: the local one over a fleet::GenomeRegistry
// (server.cpp) and the shard fan-out (fleet/router.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/serve/admission.hpp"
#include "gnumap/serve/digest.hpp"
#include "gnumap/serve/wire.hpp"

namespace gnumap::serve {

/// The front end's side of one admitted MAP request, as a backend sees it.
/// Every byte a backend exchanges with the client goes through here, so the
/// request deadline, connection budgets, fault shim and byte counters apply
/// to every backend alike.
class MapRequest {
 public:
  virtual ~MapRequest() = default;

  virtual const MapBeginInfo& begin() const = 0;
  /// The client's READS_CHUNK upload as a FASTQ stream, pulled off the
  /// socket only as the caller asks for batches (built on first call).
  virtual ReadStream& reads() = 0;
  /// The SAM response sink, or nullptr when the client did not ask for SAM.
  virtual std::ostream* sam() = 0;
  /// The next raw client frame (shard-partials requests); throws a typed
  /// WireError on disconnect, an expired deadline, or a spent byte budget.
  virtual Frame next_frame() = 0;
  /// Sends one frame to the client.
  virtual void send(FrameType type, std::string_view payload) = 0;
  /// How long a backend may block on a third party right now: what is left
  /// of the request's deadline, or the io timeout when it has none.  Throws
  /// a typed kTimeout once the deadline has passed.
  virtual int wait_budget_ms() = 0;
  /// Tripped by the watchdog (deadline, eviction, drain); pass it to every
  /// blocking socket call the backend makes.
  virtual const std::atomic<bool>* cancel() const = 0;
  /// The request's digest, for what only the backend can measure.
  virtual RequestDigest& digest() = 0;
};

/// A BUSY answer to forward to the client: retry hint and message.
struct BusyReply {
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

/// One MAP request bound to the genome its MAP_BEGIN named.
class MapJob {
 public:
  virtual ~MapJob() = default;

  /// Setup that must finish before the client's MAP_GO.  A BusyReply is
  /// forwarded instead of MAP_GO: nothing has been uploaded yet, so the
  /// client's retry is free.
  virtual std::optional<BusyReply> prepare(MapRequest& request) {
    (void)request;
    return std::nullopt;
  }

  /// The request body after MAP_GO.  The returned calls become the TSV
  /// response (shard-partials requests send none), the rest feeds the
  /// digest and MAP_DONE.
  virtual PipelineResult run(MapRequest& request) = 0;

  std::string genome_id;            ///< named in MAP_DONE, logs and digests
  double index_load_seconds = 0.0;  ///< what producing the index cost
  /// Per-genome window riding on the global one (nullptr = none).
  AdmissionController* admission = nullptr;
  /// Backend-specific MAP_DONE lines ("key=value\n"), appended verbatim.
  std::string done_lines;
};

class MapBackend {
 public:
  virtual ~MapBackend() = default;

  /// Binds a request to its genome ("" = the default).  Throws
  /// fleet::UnknownGenomeError for an id this backend does not hold,
  /// fleet::EvictedError when the memory budget refuses it right now, and
  /// ParseError for a damaged index file.
  virtual std::unique_ptr<MapJob> open(const MapBeginInfo& begin) = 0;

  /// The HELLO_OK banner.
  virtual std::string banner() const = 0;
  /// Backend facts for STATS ("key=value\n" lines).
  virtual std::string stats_lines() const = 0;
  /// Backend members of the /statusz object, each line ending ",\n".
  virtual std::string statusz_members() const = 0;
};

}  // namespace gnumap::serve
