// The shard fan-out backend: one genome split across shard daemons, served
// through the ordinary front end (serve::MappingServer with
// ServeOptions::route_shards; gnumapd --route).
//
// A client cannot tell a router from a single daemon: the front end does
// the handshake, admission, deadline and watchdog, budgets, digests, admin
// endpoint and fault shim exactly as it does for a local request.  This
// backend speaks the v4 shard-partial dialect to the shards.  Before the
// client's MAP_GO it connects to every shard, handshakes, and collects a
// MAP_GO (or BUSY) for a kFlagShardPartials MAP_BEGIN.  Then it fans every
// decoded read batch out as SHARD_READS frames, gathers one RESULT_PARTIAL
// per shard, merges the per-read candidate lists in seeder order,
// truncates the merged list to max_candidates exactly as a single daemon's
// seeder would, and only then runs the per-read posterior epilogue
// (finalize_scored_sites) and the shared accumulate/SAM/call_snps tail —
// which is what makes the router's TSV and SAM output byte-identical to a
// single daemon serving the whole genome.
//
// Renormalization rule (DESIGN.md §13): shards ship raw per-candidate
// log-likelihoods, never per-shard posteriors.  The posterior softmax is
// computed once, on the router, over the merged candidate list — so a
// read whose candidates straddle a shard boundary weighs them exactly as
// a single daemon would.  Summing per-shard softmaxes would double-count
// the normalizer; merging logs first is the only order that commutes.
//
// The router holds one genome, under the id "default"; a MAP_BEGIN naming
// any other id is refused like an unknown id on a daemon.  Backend faults
// surface as typed ERROR frames naming the shard; a BUSY from any shard is
// forwarded to the client (largest retry hint wins) before anything is
// uploaded, so the client's ordinary retry/backoff applies unchanged.
// Every wait on a shard is bounded by the request's effective deadline.
#pragma once

#include <memory>

#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/serve/map_backend.hpp"
#include "gnumap/serve/server.hpp"

namespace gnumap::fleet {

/// A fan-out backend over options.route_shards.  `genome` must outlive the
/// backend; it is used only for the SAM header/records and SNP calling —
/// the router never builds a HashIndex.
std::unique_ptr<serve::MapBackend> make_shard_fanout_backend(
    const Genome& genome, const PipelineConfig& config,
    const serve::ServeOptions& options);

}  // namespace gnumap::fleet
