#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument: " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "1";
    }
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::num(const std::string& key) const { return std::stod(str(key)); }

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

void JsonObject::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
}

void JsonObject::count(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObject::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", values[i]);
    body_ += buf;
  }
  body_ += "]";
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

void SpanRecorder::add(const char* name, const char* cat, int tid,
                       Clock::time_point begin, Clock::time_point end) {
  const double ts =
      std::chrono::duration<double, std::micro>(begin - origin_).count();
  const double dur =
      std::chrono::duration<double, std::micro>(end - begin).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, cat, tid, ts, dur});
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  i == 0 ? "" : ",", s.name, s.cat, s.tid, s.ts_us, s.dur_us);
    out += buf;
  }
  out += "\n]}\n";
  write_file(path, out);
}

double SpanRecorder::calibrate_span_seconds() {
  SpanRecorder scratch(true);
  constexpr int kSpans = 20000;
  const auto begin = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(scratch, "calibrate", "trace");
  }
  const double total =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return total / kSpans;
}

DigestBuf::int_type DigestBuf::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) {
    return traits_type::not_eof(c);
  }
  const char ch = traits_type::to_char_type(c);
  xsputn(&ch, 1);
  return c;
}

std::streamsize DigestBuf::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    hash_ ^= static_cast<unsigned char>(s[i]);
    hash_ *= 1099511628211ull;
  }
  bytes_ += static_cast<std::uint64_t>(n);
  if (copy_ != nullptr && !copy_->write(s, n)) return 0;
  return n;
}

gnumap::PipelineConfig daemon_config(int threads) {
  gnumap::PipelineConfig config;
  config.index.k = 10;
  config.threads = threads;
  return config;
}

namespace {

double status_field(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field("VmHWM") / 1024.0; }

int thread_count() { return static_cast<int>(status_field("Threads")); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << data;
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
