// Golden digests of replayed workload runs: one row per pinned
// configuration (workload x RunConfig x fault plan, test scale, on
// golden_cluster()). A row pins the exact trace (row count plus an FNV-1a 64
// over every record, hashed field by field), the tracer's app list, the
// engine event count, the job's simulated seconds at 17 significant digits
// (which round-trips the double) and an FNV-1a 64 of the characterization
// YAML. The rows were recorded from the hand-written imperative models the
// pattern compilers replaced, and replay matched every one of them, so a
// row is the trace those models produced.
//
// A model change that moves a row on purpose is a reviewed edit: the failure
// message names the fields that differ and prints the actual row in this
// table's syntax, ready to paste. Never paste a row to make an unintended
// difference go away.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "profile_test_util.hpp"
#include "workloads/workload.hpp"

namespace wasp::testutil {

struct GoldenRow {
  std::string config;
  std::uint64_t trace_rows = 0;
  std::uint64_t trace_digest = 0;  ///< FNV-1a 64 over records, per field
  std::vector<std::string> apps;   ///< tracer app registry, in index order
  std::uint64_t engine_events = 0;
  std::string job_seconds;         ///< "%.17g"
  std::uint64_t charz_digest = 0;  ///< FNV-1a 64 of characterization YAML
};

// clang-format off
inline const std::vector<GoldenRow>& golden_rows() {
  static const std::vector<GoldenRow> rows = {
      {"cm1", 350, 0x9b9e59a184c65dba, {"cm1-stage", "cm1"}, 463, "5.765444542", 0x79d3700682643757},
      {"hacc-fpp", 176, 0xd8e47fc7905277c9, {"hacc-io"}, 320, "0.166032183", 0xc259ab956a93a75e},
      {"cosmoflow", 240, 0xe0fc63c4dc0efff1, {"cosmoflow-stage", "cosmoflow"}, 798, "1.0101623530000001", 0x07eff7646235e4cb},
      {"jag", 122, 0x2538e7777d35df9f, {"jag-stage", "jag-icf"}, 187, "5.3805438320000007", 0xcd91053508d6e516},
      {"montage-mpi", 176, 0x81c44274ef775cc8, {"montage-stage", "mProject", "mImgtbl", "mAddMPI", "mShrink", "mViewer"}, 343, "2.5540745090000003", 0xf8477f91b1da56fe},
      {"montage-pegasus", 389, 0x23101a68ff5b4da9, {"mpegasus-stage", "mProject", "mDiff", "mConcatFit", "mBgModel", "mBackground", "mImgtbl", "mAdd", "mViewer"}, 727, "2.1117556520000003", 0x1de017fe68c7906e},
      {"ior", 36, 0x4380ff08662b5451, {"ior"}, 64, "0.022302718000000003", 0x389fe2b78850c25e},
      {"ior-shared-readback", 36, 0xc91d8932066daa99, {"ior"}, 66, "0.022802718000000003", 0xb20970d9ea4fe7e0},
      {"hacc-fpp-compressed-async-drain", 224, 0x48aa89b8867949a1, {"hacc-io"}, 312, "0.144180167", 0x874a5a20d57e958b},
      {"cosmoflow-chunked-preloaded", 356, 0xbc53a12735c1add1, {"cosmoflow-stage", "cosmoflow"}, 850, "0.96284790000000009", 0xc417be13682b1087},
      {"jag-stdio-1mib", 122, 0x7759b64f19723c2f, {"jag-stage", "jag-icf"}, 187, "5.0299789390000003", 0x6db678623ab65ae4},
      {"montage-mpi-shm-intermediates", 188, 0xab2264ce552df788, {"montage-stage", "mProject", "mImgtbl", "mAddMPI", "mShrink", "mViewer"}, 285, "1.9533426720000002", 0x35f5b04e67f5970c},
      {"montage-pegasus-locality-aware", 389, 0xd1b3995297a7acc7, {"mpegasus-stage", "mProject", "mDiff", "mConcatFit", "mBgModel", "mBackground", "mImgtbl", "mAdd", "mViewer"}, 708, "1.9470935650000001", 0x0d8381d63e327c3c},
      {"hacc-fpp-faults", 190, 0xa48f943e6d28d564, {"hacc-io"}, 407, "0.31311904100000004", 0x4afef84ae9163fe8},
  };
  return rows;
}
// clang-format on

/// The cluster every golden row was recorded on.
inline cluster::ClusterSpec golden_cluster() {
  auto spec = cluster::lassen(4);
  spec.node.cpu_cores = 8;
  return spec;
}

inline std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::uint64_t charz_digest(
    const charz::WorkloadCharacterization& characterization) {
  return fnv1a(kFnvOffset, characterization.to_yaml());
}

/// FNV-1a 64 over every record field, each widened to 8 little-endian bytes
/// (never the raw struct: Record has padding).
inline std::uint64_t trace_digest(const std::vector<trace::Record>& records) {
  std::uint64_t h = kFnvOffset;
  for (const trace::Record& r : records) {
    for (const std::uint64_t v :
         {std::uint64_t{r.app}, static_cast<std::uint64_t>(r.rank),
          static_cast<std::uint64_t>(r.node), std::uint64_t{
              static_cast<std::uint8_t>(r.iface)},
          std::uint64_t{static_cast<std::uint8_t>(r.op)},
          static_cast<std::uint64_t>(r.file.fs), r.file.file, r.offset,
          r.size, std::uint64_t{r.count}, r.tstart, r.tend}) {
      char bytes[8];
      for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
      h = fnv1a(h, {bytes, sizeof(bytes)});
    }
  }
  return h;
}

/// Run the pipeline on `sim` and record its row.
inline GoldenRow observe(std::string config, runtime::Simulation& sim,
                         const workloads::Workload& w,
                         const advisor::RunConfig& cfg) {
  const auto out =
      workloads::run_with(sim, w, cfg, analysis::Analyzer::Options{});
  GoldenRow row;
  row.config = std::move(config);
  const auto& records = sim.tracer().records();
  row.trace_rows = records.size();
  row.trace_digest = trace_digest(records);
  for (std::size_t a = 0; a < sim.tracer().num_apps(); ++a) {
    row.apps.push_back(sim.tracer().app_name(static_cast<std::uint16_t>(a)));
  }
  row.engine_events = out.engine_events;
  row.job_seconds = exact(out.job_seconds);
  row.charz_digest = charz_digest(out.characterization);
  return row;
}

/// `row` in the table's source syntax.
inline std::string to_source(const GoldenRow& row) {
  std::string s = "{\"" + row.config + "\", " +
                  std::to_string(row.trace_rows) + ", " +
                  hex64(row.trace_digest) + ", {";
  for (std::size_t i = 0; i < row.apps.size(); ++i) {
    s += (i ? ", \"" : "\"") + row.apps[i] + "\"";
  }
  return s + "}, " + std::to_string(row.engine_events) + ", \"" +
         row.job_seconds + "\", " + hex64(row.charz_digest) + "},";
}

inline const GoldenRow* golden_row(const std::string& config) {
  for (const GoldenRow& row : golden_rows()) {
    if (row.config == config) return &row;
  }
  return nullptr;
}

/// Assert `actual` equals its committed row, field by field.
inline void expect_golden(const GoldenRow& actual) {
  const GoldenRow* want = golden_row(actual.config);
  ASSERT_NE(want, nullptr) << "no golden row for " << actual.config
                           << "; actual row:\n    " << to_source(actual);
  std::string differ;
  const auto check = [&](bool same, const char* field) {
    if (!same) differ += std::string(differ.empty() ? "" : ", ") + field;
  };
  check(actual.trace_rows == want->trace_rows, "trace_rows");
  check(actual.trace_digest == want->trace_digest, "trace_digest");
  check(actual.apps == want->apps, "apps");
  check(actual.engine_events == want->engine_events, "engine_events");
  check(actual.job_seconds == want->job_seconds, "job_seconds");
  check(actual.charz_digest == want->charz_digest, "charz_digest");
  EXPECT_TRUE(differ.empty())
      << actual.config << ": " << differ << " differ from the golden row"
      << "\n  golden: " << to_source(*want)
      << "\n  actual: " << to_source(actual);
}

}  // namespace wasp::testutil
