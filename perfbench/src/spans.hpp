// In-memory span log for the traced run. The benchmark opens one span
// around each call it makes into a pipeline layer; spans live in memory
// and are written out once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns();

struct SpanRecord {
  const char* name = "";  ///< layer call, e.g. "sim.run"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;     ///< index of the enclosing span; -1 for a root
  int iteration = -1;  ///< closed-loop iteration id; -1 during set-up
  int thread = 0;      ///< small per-process thread index
};

/// Per-name self time of one iteration's spans, plus the part of the
/// iteration root that no child span on its thread covers.
struct IterationTimes {
  std::map<std::string, double> self_s;  ///< keyed by span name
  double unaccounted_s = 0.0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a root span for `iteration`; spans opened on threads with no
  /// open span of their own (pool workers) become its children.
  int open(const char* name, int iteration);
  int open(const char* name);
  void close(int index);

  /// Self times of the spans of one iteration.
  IterationTimes times(int iteration) const;
  /// Chrome trace-event JSON ("X" events; args carry iteration + parent).
  void write_chrome_trace(std::ostream& os) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_, root_
  std::vector<SpanRecord> spans_;
  int root_ = -1;
};

/// Times one call into a layer. It always measures, because the untraced
/// run needs the durations of the simulate and analyze calls for its
/// end-to-end rates; it records a span only when the log is enabled.
class Timed {
 public:
  Timed(SpanLog& log, const char* name)
      : log_(log),
        span_(log.enabled() ? log.open(name) : -1),
        t0_(std::chrono::steady_clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Close the span (first call only) and return its length in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0_)
                     .count();
      if (span_ >= 0) log_.close(span_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog& log_;
  int span_;
  std::chrono::steady_clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
