// The two ways gnumapd serves a genome, for end-to-end tests that must
// hold on both: a single daemon, and a router over two shard daemons — the
// same MappingServer with ServeOptions::route_shards set.
//
// DEPLOYMENT_TEST(Suite, Name) defines one test body twice: Suite.Name
// runs it against a single daemon, SuiteRouted.Name against a router over
// two shards.  The options a test passes configure the server its client
// talks to; shards run with plain test defaults.
#pragma once

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/serve/server.hpp"

namespace gnumap {

enum class Deployment { kDaemon, kRouter };

class Deployed {
 public:
  Deployed(Deployment deployment, const Genome& genome,
           const PipelineConfig& config, serve::ServeOptions options) {
    if (deployment == Deployment::kRouter) {
      for (int i = 0; i < 2; ++i) {
        serve::ServeOptions shard;
        shard.io_timeout_ms = 10'000;
        shard.request_timeout_ms = 60'000;
        shard.shard_index = i;
        shard.shard_count = 2;
        shards_.push_back(
            std::make_unique<serve::MappingServer>(genome, config, shard));
        shards_.back()->start();
        options.route_shards.push_back({"127.0.0.1", shards_.back()->port()});
      }
    }
    front_ = std::make_unique<serve::MappingServer>(genome, config, options);
  }

  /// The server clients connect to: the daemon, or the router.
  serve::MappingServer& front() { return *front_; }

 private:
  // Declared first, destroyed last: the router drains before its shards.
  std::vector<std::unique_ptr<serve::MappingServer>> shards_;
  std::unique_ptr<serve::MappingServer> front_;
};

}  // namespace gnumap

#define DEPLOYMENT_TEST(SUITE, NAME)                                   \
  void SUITE##_##NAME(::gnumap::Deployment deployment);                \
  TEST(SUITE, NAME) { SUITE##_##NAME(::gnumap::Deployment::kDaemon); } \
  TEST(SUITE##Routed, NAME) {                                          \
    SUITE##_##NAME(::gnumap::Deployment::kRouter);                     \
  }                                                                    \
  void SUITE##_##NAME(::gnumap::Deployment deployment)
