// The benchmark's three workloads. Each drives the pipeline through the
// public entry points of its layers, one closed-loop iteration at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Named values, each with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one iteration produced that the output check compares: exact
/// values rendered as text (doubles with 17 significant digits).
using Outcome = std::vector<std::pair<std::string, std::string>>;

struct IterResult {
  Outcome outcome;
  /// End-to-end rate inputs: engine events over host seconds inside
  /// Engine::run(), trace rows over host seconds from trace hand-over to
  /// profile returned. Zero when the iteration does no such work.
  double events = 0.0;
  double sim_s = 0.0;
  double rows = 0.0;
  double analyze_s = 0.0;
  /// Per-layer values; filled only by traced iterations.
  Metrics layers;
};

struct Config {
  std::uint64_t seed = 0;
  int thread_cap = 1;               ///< min(nproc, 4)
  std::string work_dir;             ///< scratch files (trace log, spill)
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// The thread counts this workload uses, for the provenance record.
  virtual std::string threads() const = 0;
  /// Work done once per set-up before the warm-up iteration (for
  /// trace-spill: simulate the job and write its log). Returns per-layer
  /// values measured there.
  virtual Metrics prepare() = 0;
  /// One iteration. `traced` turns on the in-program counters that the
  /// per-layer metrics read.
  virtual IterResult iterate(bool traced) = 0;
};

/// nullptr for an unknown workload name. Layer calls are timed into `log`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg, SpanLog& log);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
