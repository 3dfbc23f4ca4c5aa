// Attribute -> configuration rule engine (§IV-D of the paper).
//
// Each rule inspects the WorkloadCharacterization and, when its conditions
// hold, emits a Recommendation that (a) names the §IV-D optimization
// category, (b) cites the attributes that drove the decision, and (c)
// carries the pattern rewrites that apply it, as data (pattern_rewrites.hpp).
// This is the "storage system configures itself from the user-provided
// features" step. Two rules, stripe-size and disable-locking, carry no
// rewrite: the model has no knob for either, so they stay advisory.
#pragma once

#include <string>
#include <vector>

#include "advisor/config.hpp"
#include "core/entities.hpp"

namespace wasp::advisor {

enum class Category {
  kSoftwareAcceleration,  ///< §IV-D.1 aggregation/buffering/caching/prefetch
  kAsyncIo,               ///< §IV-D.2
  kSystemTuning,          ///< §IV-D.3 PFS/middleware parameters
  kProcessPlacement,      ///< §IV-D.4
  kDatasetLayout,         ///< §IV-D.5
};

const char* to_string(Category c) noexcept;

struct Recommendation {
  std::string id;         ///< stable rule identifier, e.g. "preload-input"
  Category category = Category::kSoftwareAcceleration;
  std::string parameter;  ///< the setting changed (human-readable)
  std::string value;      ///< target value
  std::string rationale;  ///< the attributes that justified the change
  double expected_speedup = 1.0;  ///< coarse a-priori estimate
  /// The rewrites that apply it; empty for an advisory-only rule.
  std::vector<Rewrite> rewrites;
};

class RuleEngine {
 public:
  /// Evaluate all built-in rules against a characterization.
  std::vector<Recommendation> evaluate(
      const charz::WorkloadCharacterization& c) const;

  /// Append every recommendation's rewrites to `base`, in the rewrite
  /// table's canonical order whatever the order of `recs` (the storage
  /// system "configuring itself").
  static RunConfig configure(const std::vector<Recommendation>& recs,
                             RunConfig base = RunConfig{});

  /// Render recommendations as a human-readable report.
  static std::string report(const std::vector<Recommendation>& recs);
};

}  // namespace wasp::advisor
