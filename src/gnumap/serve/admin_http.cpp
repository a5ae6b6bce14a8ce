#include "gnumap/serve/admin_http.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string_view>
#include <utility>

#include "gnumap/obs/json_util.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/util/log.hpp"

namespace gnumap::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr int kIoTimeoutMs = 5'000;
constexpr std::uint32_t kMaxTracezMs = 60'000;
constexpr std::size_t kTracezTableRows = 32;

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

void send_response(Socket& sock, const HttpResponse& resp) {
  std::string out = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                    status_reason(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  sock.send_all(out.data(), out.size(), kIoTimeoutMs);
}

/// Reads until the end of the request headers (we never need a body) or
/// the size/deadline bound, returning the raw request text.
std::string read_request(Socket& sock) {
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const std::size_t n = sock.recv_some(buf, sizeof buf, kIoTimeoutMs);
    if (n == 0) break;
    request.append(buf, n);
  }
  return request;
}

/// Splits "GET /tracez?duration_ms=50 HTTP/1.0" into {"/tracez",
/// "duration_ms=50"}; returns false unless the request is a GET.
bool parse_get(const std::string& request, std::string& path,
               std::string& query) {
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line(request.data(), line_end == std::string::npos
                                                  ? request.size()
                                                  : line_end);
  if (line.substr(0, 4) != "GET ") return false;
  const std::size_t target_end = line.find(' ', 4);
  if (target_end == std::string_view::npos) return false;
  const std::string_view target = line.substr(4, target_end - 4);
  const std::size_t qmark = target.find('?');
  path = std::string(target.substr(0, qmark));
  query = qmark == std::string_view::npos
              ? std::string()
              : std::string(target.substr(qmark + 1));
  return true;
}

/// The one query parameter the admin surface understands.
bool query_u32(const std::string& query, const std::string& key,
               std::uint32_t& value) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair =
        std::string_view(query).substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      std::uint64_t v = 0;
      for (const char c : pair.substr(eq + 1)) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 0xFFFF'FFFFull) return false;
      }
      value = static_cast<std::uint32_t>(v);
      return true;
    }
    pos = amp + 1;
  }
  return false;
}

std::string digest_table_json(const MappingServer& server) {
  using obs::detail::json_number;
  using obs::detail::json_string;
  const auto slowest = server.digests().slowest(kTracezTableRows);
  std::string out = "{\n  \"digests_recorded\": " +
                    std::to_string(server.digests().total_recorded()) +
                    ",\n  \"ring_capacity\": " +
                    std::to_string(server.digests().capacity()) +
                    ",\n  \"slowest_recent_requests\": [";
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    const RequestDigest& d = slowest[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"request_id\": " + std::to_string(d.request_id) +
           ", \"conn_id\": " + std::to_string(d.conn_id) + ", \"trace_id\": " +
           json_string(d.trace_id != 0 ? trace_id_hex(d.trace_id) : "") +
           ", \"error_code\": " + std::to_string(d.error_code) +
           ", \"total_seconds\": " + json_number(d.total_seconds) +
           ", \"admission_wait_seconds\": " +
           json_number(d.admission_wait_seconds) +
           ", \"upload_wait_seconds\": " + json_number(d.upload_wait_seconds) +
           ", \"decode_seconds\": " + json_number(d.decode_seconds) +
           ", \"map_stage_seconds\": " + json_number(d.map_stage_seconds) +
           ", \"drain_seconds\": " + json_number(d.drain_seconds()) +
           ", \"format_seconds\": " + json_number(d.format_seconds) +
           ", \"splice_seconds\": " + json_number(d.splice_seconds) +
           ", \"call_seconds\": " + json_number(d.call_seconds) +
           ", \"upload_bytes\": " + std::to_string(d.upload_bytes) +
           ", \"result_bytes\": " + std::to_string(d.result_bytes) +
           ", \"reads_total\": " + std::to_string(d.reads_total) +
           ", \"reads_mapped\": " + std::to_string(d.reads_mapped) +
           ", \"calls\": " + std::to_string(d.calls) +
           ", \"phmm_cells\": " + std::to_string(d.phmm_cells) +
           ", \"gcups\": " + json_number(d.gcups) +
           ", \"fp32_recomputed\": " + std::to_string(d.fp32_recomputed);
    if (d.shards > 0) {
      out += ", \"router_shards\": " + std::to_string(d.shards) +
             ", \"shard_seconds_max\": " + json_number(d.shard_seconds_max) +
             ", \"fanout_wait_seconds\": " +
             json_number(d.fanout_wait_seconds) +
             ", \"merge_seconds\": " + json_number(d.merge_seconds) +
             ", \"shard_index_load_seconds_max\": " +
             json_number(d.shard_index_load_seconds_max);
    }
    out += "}";
  }
  out += slowest.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace

AdminHttpServer::AdminHttpServer(MappingServer& server, int port,
                                 bool bind_any)
    : server_(server),
      listener_(std::make_unique<Listener>(static_cast<std::uint16_t>(port),
                                           bind_any)) {}

AdminHttpServer::~AdminHttpServer() { stop(); }

int AdminHttpServer::port() const { return listener_->port(); }

void AdminHttpServer::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { serve_loop(); });
}

void AdminHttpServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  listener_->close();
}

void AdminHttpServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto sock = listener_->accept(200, &stop_);
    if (!sock.has_value()) continue;
    try {
      handle(std::move(*sock));
    } catch (const std::exception& e) {
      // A misbehaving scraper must not take the admin surface down.
      GNUMAP_LOG(kDebug) << "admin: request failed: " << e.what();
    }
  }
}

void AdminHttpServer::handle(Socket sock) {
  const std::string request = read_request(sock);
  std::string path;
  std::string query;
  HttpResponse resp;
  if (!parse_get(request, path, query)) {
    resp.status = request.empty() ? 400 : 405;
    resp.body = "admin endpoint speaks GET only\n";
    send_response(sock, resp);
    return;
  }

  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::prometheus_text();
  } else if (path == "/healthz") {
    resp.body = server_.health_text();
    // Mirror the wire HEALTH verdict in the status code so probes need no
    // body parsing: ready=1 is always the first line.
    if (resp.body.rfind("ready=1", 0) != 0) resp.status = 503;
  } else if (path == "/statusz") {
    resp.content_type = "application/json";
    resp.body = server_.statusz_json();
  } else if (path == "/tracez") {
    std::uint32_t duration_ms = 0;
    if (query_u32(query, "duration_ms", duration_ms) && duration_ms > 0) {
      duration_ms = std::min(duration_ms, kMaxTracezMs);
      // A capture window: start a fresh timeline unless a capture is
      // already running (then just observe it — don't clear or stop it).
      const bool was_enabled = obs::trace_enabled();
      if (!was_enabled) {
        obs::reset_trace();
        obs::set_trace_enabled(true);
      }
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(duration_ms);
      while (std::chrono::steady_clock::now() < deadline &&
             !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!was_enabled) obs::set_trace_enabled(false);
      std::ostringstream trace;
      obs::write_chrome_trace(trace);
      resp.content_type = "application/json";
      resp.body = trace.str();
    } else {
      resp.content_type = "application/json";
      resp.body = digest_table_json(server_);
    }
  } else if (path == "/") {
    resp.body =
        "gnumapd admin endpoint\n"
        "  /metrics               Prometheus text exposition (live)\n"
        "  /healthz               wire HEALTH payload; 503 when not ready\n"
        "  /statusz               server status JSON\n"
        "  /tracez                slowest recent requests (JSON)\n"
        "  /tracez?duration_ms=N  capture a Chrome trace for N ms\n";
  } else {
    resp.status = 404;
    resp.body = "no route " + path + " (try /)\n";
  }
  send_response(sock, resp);
}

}  // namespace gnumap::serve
