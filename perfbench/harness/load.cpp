// The serving load generator: a closed loop of client connections, each
// sending MAP requests through serve::MappingClient and checking every
// response byte for byte against the expected output.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/util/timer.hpp"

using namespace gnumap;

namespace perfbench {
namespace {

struct Request {
  std::string fastq;
  std::string tsv;
  std::string sam;
};

/// One finished MAP call, as the client saw it plus what MAP_DONE said.
struct Sample {
  double latency_s = 0.0;
  std::map<std::string, std::string> done;
  int busy_answers = 0;
  double shard_s_max = 0.0;  ///< sequential mode only
  double shard_bytes_out = 0.0;
};

double field(const std::map<std::string, std::string>& kv,
             const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::stod(it->second);
}

/// Hands out request indices in whole rounds: a round is every request
/// once, in a seeded order, and a new round starts only while time is
/// left, so every run attempts a whole number of rounds.
class RoundDealer {
 public:
  RoundDealer(std::size_t n, std::uint64_t seed, double seconds)
      : order_(n), rng_(seed), seconds_(seconds) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    std::shuffle(order_.begin(), order_.end(), rng_);
  }

  /// Next request index, or -1 once the run is over.
  long next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pos_ == order_.size()) {
      if (timer_.seconds() >= seconds_ || stop_) return -1;
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
      ++rounds_;
    }
    return static_cast<long>(order_[pos_++]);
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  std::size_t rounds() const { return rounds_; }
  double elapsed() const { return timer_.seconds(); }

 private:
  std::mutex mu_;  ///< guards everything below
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::size_t pos_ = 0;
  std::size_t rounds_ = 1;
  bool stop_ = false;
  double seconds_;
  Timer timer_;
};

/// Plain HTTP/1.0 GET against a daemon's admin endpoint.
std::string http_get(std::uint16_t port, const std::string& path) {
  serve::Socket sock = serve::connect_tcp("127.0.0.1", port, 5000);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  sock.send_all(req.data(), req.size(), 5000);
  std::string body;
  char buf[8192];
  for (;;) {
    const std::size_t n = sock.recv_some(buf, sizeof buf, 5000);
    if (n == 0) break;
    body.append(buf, n);
  }
  return body;
}

/// Value of one un-labelled Prometheus series in a /metrics body.
double prom_value(const std::string& body, const std::string& series) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  throw std::runtime_error("series " + series + " missing from /metrics");
}

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::size_t start = 0;
  while (start < list.size()) {
    const auto comma = list.find(',', start);
    const std::string one = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!one.empty()) ports.push_back(static_cast<std::uint16_t>(std::stoul(one)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return ports;
}

}  // namespace

int cmd_load(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.num("port"));
  const std::string dir = args.str("requests");
  const std::string expected_dir = args.str("expected");
  // --record-dir writes the responses instead of checking them (collecting
  // the single daemon's answers that routed responses must reproduce).
  const std::string record_dir = args.str("record-dir", "");
  const int count = static_cast<int>(args.num("count"));
  const int connections = static_cast<int>(args.num("connections"));
  const double seconds = args.num("seconds");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const std::vector<std::uint16_t> shard_admin =
      parse_ports(args.str("shard-admin-ports", ""));
  SpanRecorder rec(args.has("trace-out"));
  if (!shard_admin.empty() && connections != 1) {
    throw std::runtime_error("--shard-admin-ports needs --connections 1");
  }

  std::vector<Request> requests(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/req_%03d", i);
    Request& r = requests[static_cast<std::size_t>(i)];
    r.fastq = read_file(dir + name + ".fastq");
    if (record_dir.empty()) {
      r.tsv = read_file(expected_dir + name + ".tsv");
      r.sam = read_file(expected_dir + name + ".sam");
    }
  }

  RoundDealer dealer(requests.size(), seed, seconds);
  std::mutex mu;  ///< guards samples and failure
  std::vector<Sample> samples;
  std::string failure;
  int peak_threads = 0;

  auto worker = [&](int conn) {
    try {
      serve::ClientOptions options;
      options.port = port;
      options.name = "perfbench-load";
      options.connect_retries = 3;
      options.deadline_ms = 60'000;
      options.backoff_seed = seed + static_cast<std::uint64_t>(conn) + 1;
      serve::MappingClient client(options);
      double shard_seconds_prev[2] = {0.0, 0.0};
      double shard_bytes_prev[2] = {0.0, 0.0};
      auto scrape = [&](double* seconds_out, double* bytes_out) {
        for (std::size_t s = 0; s < shard_admin.size() && s < 2; ++s) {
          const std::string body = http_get(shard_admin[s], "/metrics");
          seconds_out[s] =
              prom_value(body, "gnumap_serve_request_seconds_sum");
          bytes_out[s] = prom_value(body, "gnumap_serve_bytes_tx_total");
        }
      };
      if (!shard_admin.empty()) scrape(shard_seconds_prev, shard_bytes_prev);
      for (long idx; (idx = dealer.next()) >= 0;) {
        const Request& req = requests[static_cast<std::size_t>(idx)];
        std::istringstream fastq(req.fastq);
        std::ostringstream tsv, sam;
        Sample sample;
        Timer timer;
        serve::MapOutcome outcome;
        {
          ScopedSpan span(rec, "MappingClient::map", "serve", conn);
          outcome = client.map(fastq, tsv, &sam);
        }
        sample.latency_s = timer.seconds();
        if (outcome.busy) {
          throw std::runtime_error("request " + std::to_string(idx) +
                                   " was never admitted (BUSY past budget)");
        }
        if (!record_dir.empty()) {
          char name[32];
          std::snprintf(name, sizeof name, "/req_%03ld", idx);
          write_file(record_dir + name + ".tsv", tsv.str());
          write_file(record_dir + name + ".sam", sam.str());
        } else if (tsv.str() != req.tsv || sam.str() != req.sam) {
          throw std::runtime_error(
              "response to request " + std::to_string(idx) +
              " differs from the expected TSV/SAM (" +
              std::to_string(tsv.str().size()) + "/" +
              std::to_string(sam.str().size()) + " bytes, expected " +
              std::to_string(req.tsv.size()) + "/" +
              std::to_string(req.sam.size()) + ")");
        }
        sample.done = std::move(outcome.stats);
        sample.busy_answers = outcome.busy_answers;
        if (!shard_admin.empty()) {
          double now_s[2] = {0.0, 0.0}, now_b[2] = {0.0, 0.0};
          scrape(now_s, now_b);
          for (std::size_t s = 0; s < shard_admin.size() && s < 2; ++s) {
            sample.shard_s_max = std::max(sample.shard_s_max,
                                          now_s[s] - shard_seconds_prev[s]);
            sample.shard_bytes_out += now_b[s] - shard_bytes_prev[s];
            shard_seconds_prev[s] = now_s[s];
            shard_bytes_prev[s] = now_b[s];
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        samples.push_back(std::move(sample));
        peak_threads = std::max(peak_threads, thread_count());
      }
    } catch (const std::exception& e) {
      dealer.stop();
      std::lock_guard<std::mutex> lock(mu);
      if (failure.empty()) {
        failure = "connection " + std::to_string(conn) + ": " + e.what();
      }
    }
  };

  std::vector<std::thread> pool;
  for (int c = 0; c < connections; ++c) pool.emplace_back(worker, c);
  for (auto& t : pool) t.join();
  const double measured = dealer.elapsed();
  if (!failure.empty()) throw std::runtime_error(failure);

  const std::size_t attempted = dealer.rounds() * requests.size();
  if (samples.size() != attempted) {
    throw std::runtime_error("completed " + std::to_string(samples.size()) +
                             " of " + std::to_string(attempted) + " requests");
  }

  auto column = [&](const std::string& key) {
    std::vector<double> values;
    for (const Sample& s : samples) values.push_back(field(s.done, key));
    return values;
  };
  std::vector<double> latencies, busy, shard_max, shard_bytes;
  for (const Sample& s : samples) {
    latencies.push_back(s.latency_s);
    busy.push_back(s.busy_answers);
    shard_max.push_back(s.shard_s_max);
    shard_bytes.push_back(s.shard_bytes_out);
  }
  JsonObject out;
  out.count("attempted", attempted);
  out.count("rounds", dealer.rounds());
  out.num("measured_s", measured);
  out.nums("latencies_s", latencies);
  out.nums("busy_answers", busy);
  for (const char* key :
       {"reads_total", "total_seconds", "admission_wait_seconds",
        "upload_wait_seconds", "decode_seconds", "map_stage_seconds",
        "format_seconds", "splice_seconds", "call_seconds", "map_seconds",
        "upload_bytes", "result_bytes", "phmm_cells", "index_load_seconds"}) {
    out.nums(key, column(key));
  }
  if (!shard_admin.empty()) {
    out.nums("shard_s_max", shard_max);
    out.nums("shard_bytes_out", shard_bytes);
  }
  out.count("connections", static_cast<std::uint64_t>(connections));
  out.count("load_threads_peak", static_cast<std::uint64_t>(peak_threads));
  if (rec.enabled()) {
    out.count("spans", rec.size());
    out.num("span_cost_s", SpanRecorder::calibrate_span_seconds());
    rec.write_chrome_trace(args.str("trace-out"));
  }
  write_file(args.str("json"), out.text());
  return 0;
}

}  // namespace perfbench
