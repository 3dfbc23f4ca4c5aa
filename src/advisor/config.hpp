// RunConfig: how one run is configured. The default-constructed value is
// the system default configuration (the paper's "baseline"); the advisor
// fills `rewrites` from workload attributes (the paper's "optimized",
// RuleEngine::configure). Every §IV-D configuration change is a named
// IR -> IR rewrite of the baseline pattern (pattern_rewrites.hpp), applied
// in list order by workloads::set_baseline. The PFS stripe size and
// shared-file locking are recommended but stay advisory: the model has no
// knob for either.
#pragma once

#include <vector>

#include "advisor/pattern_rewrites.hpp"
#include "sim/faults.hpp"

namespace wasp::advisor {

struct RunConfig {
  /// Rewrites of the baseline pattern, applied in order.
  std::vector<Rewrite> rewrites;
  /// Deterministic fault schedule for the run (empty = fault-free). The
  /// runner installs it on the Simulation before launching the traced job.
  sim::FaultPlan faults;
};

}  // namespace wasp::advisor
