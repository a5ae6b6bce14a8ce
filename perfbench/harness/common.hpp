// Shared pieces of the benchmark harness: argument lookup, a small JSON
// writer, the span recorder behind the traced runs, and process probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "gnumap/core/config.hpp"

namespace perfbench {

/// "--key value" pairs after the subcommand; a flag without a value maps
/// to "1".
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string str(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback) const;
  double num(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Flat JSON object writer: numbers and number arrays.
class JsonObject {
 public:
  void num(const std::string& key, double value);
  void count(const std::string& key, std::uint64_t value);
  void nums(const std::string& key, const std::vector<double>& values);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Records complete spans ("X" events) for the Chrome-trace output.  Spans
/// are kept in memory and written once at the end; a disabled recorder
/// costs one branch per span.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  void add(const char* name, const char* cat, int tid, Clock::time_point begin,
           Clock::time_point end);
  std::size_t size() const;
  /// Writes {"traceEvents": [...]} to `path`.
  void write_chrome_trace(const std::string& path) const;
  /// Mean cost of recording one span, measured on a scratch recorder.
  static double calibrate_span_seconds();

 private:
  struct Span {
    const char* name;
    const char* cat;
    int tid;
    double ts_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Times its scope into a SpanRecorder (no-op when the recorder is off),
/// optionally adding the duration in seconds to `*total` as well.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, const char* cat, int tid = 0,
             double* total = nullptr)
      : rec_(rec), name_(name), cat_(cat), tid_(tid), total_(total),
        begin_(rec.enabled() ? SpanRecorder::Clock::now()
                             : SpanRecorder::Clock::time_point{}) {}
  ~ScopedSpan() {
    if (rec_.enabled()) {
      const auto end = SpanRecorder::Clock::now();
      rec_.add(name_, cat_, tid_, begin_, end);
      if (total_ != nullptr) {
        *total_ += std::chrono::duration<double>(end - begin_).count();
      }
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  const char* cat_;
  int tid_;
  double* total_;
  SpanRecorder::Clock::time_point begin_;
};

/// An output buffer that keeps only a digest of the bytes written to it
/// (64-bit FNV-1a and the byte count), copying them to `copy` when one is
/// given, so a run's output is compared without holding it in memory.
class DigestBuf final : public std::streambuf {
 public:
  explicit DigestBuf(std::ostream* copy = nullptr) : copy_(copy) {}
  std::uint64_t hash() const { return hash_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::ostream* copy_;
  std::uint64_t hash_ = 14695981039346656037ull;
  std::uint64_t bytes_ = 0;
};

/// The daemons' configuration (gnumapd defaults: k = 10, everything else
/// PipelineConfig's defaults), so in-process sessions match served bytes.
gnumap::PipelineConfig daemon_config(int threads);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();
/// Threads of this process right now (/proc/self/status Threads).
int thread_count();

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& data);

}  // namespace perfbench
