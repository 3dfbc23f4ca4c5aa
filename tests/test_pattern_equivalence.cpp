// The pattern compilers' contract: replaying a compiled JobPattern through
// the generic replayer reproduces the committed golden row of each pinned
// configuration (tests/pattern_golden.hpp) — the exact trace, app list,
// engine event count, job seconds and characterization — across workloads,
// run configs, trace backends, and scenario-runner job counts.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "advisor/pattern_rewrites.hpp"
#include "pattern/replayer.hpp"
#include "pattern_golden.hpp"
#include "workloads/ior.hpp"
#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

using testutil::golden_cluster;

/// Replay `w` under `cfg` and assert the run matches golden row `config`.
void expect_golden(const std::string& config, const Workload& w,
                   const advisor::RunConfig& cfg) {
  runtime::Simulation sim(golden_cluster());
  testutil::expect_golden(testutil::observe(config, sim, w, cfg));
}

TEST(PatternEquivalence, AllSixWorkloadsBaselineConfig) {
  for (const auto& entry : paper_workloads()) {
    SCOPED_TRACE(entry.id);
    expect_golden(entry.id, entry.make_test(), advisor::RunConfig{});
  }
}

TEST(PatternEquivalence, IorBenchmark) {
  expect_golden("ior", make_ior(IorParams::test()), advisor::RunConfig{});
  auto P = IorParams::test();
  P.file_per_process = false;
  P.read_back = true;
  expect_golden("ior-shared-readback", make_ior(P), advisor::RunConfig{});
}

// The five §IV-D knob rows: each workload with the rewrites its case study
// applies to the baseline pattern.
struct KnobRow {
  std::string config;
  std::function<Workload()> make;
  std::vector<advisor::Rewrite> rewrites;
};

std::vector<KnobRow> knob_rows() {
  const std::string mib = std::to_string(util::kMiB);
  const std::string kib64 = std::to_string(64 * util::kKiB);
  return {
      {"hacc-fpp-compressed-async-drain",
       [] { return make_hacc(HaccParams::test()); },
       {{"compress", {"0.5", "gpu"}}, {"async-drain", {"shm"}}}},
      {"cosmoflow-chunked-preloaded",
       [] { return make_cosmoflow(CosmoflowParams::test()); },
       {{"hdf5-chunk", {mib}}, {"preload", {"shm"}}}},
      {"jag-stdio-1mib", [] { return make_jag(JagParams::test()); },
       {{"stdio-buffer", {mib}}}},
      {"montage-mpi-shm-intermediates",
       [] { return make_montage_mpi(MontageMpiParams::test()); },
       {{"stdio-buffer", {kib64}}, {"intermediates", {"shm"}}}},
      {"montage-pegasus-locality-aware",
       [] { return make_montage_pegasus(MontagePegasusParams::test()); },
       {{"stdio-buffer", {kib64}}, {"locality", {}}}},
  };
}

void expect_knob_row(const std::string& config) {
  for (const KnobRow& row : knob_rows()) {
    if (row.config == config) {
      return expect_golden(config, row.make(), {row.rewrites, {}});
    }
  }
  FAIL() << "no knob row " << config;
}

TEST(PatternEquivalence, HaccCompressedAsyncDrain) {
  expect_knob_row("hacc-fpp-compressed-async-drain");
}

TEST(PatternEquivalence, CosmoflowChunkedAndPreloaded) {
  expect_knob_row("cosmoflow-chunked-preloaded");
}

TEST(PatternEquivalence, JagLargeStdioBuffer) {
  expect_knob_row("jag-stdio-1mib");
}

TEST(PatternEquivalence, MontageMpiShmIntermediates) {
  expect_knob_row("montage-mpi-shm-intermediates");
}

TEST(PatternEquivalence, MontagePegasusLocalityAware) {
  expect_knob_row("montage-pegasus-locality-aware");
}

// The knob rewrites read only the pattern, never the compiler: a baseline
// dumped to YAML and loaded back, then rewritten, replays to each knob row.
TEST(PatternEquivalence, KnobRowsFromDumpedBaseline) {
  for (const KnobRow& row : knob_rows()) {
    SCOPED_TRACE(row.config);
    const Workload w = row.make();
    runtime::Simulation compile_sim(golden_cluster());
    pattern::JobPattern pat = pattern::pattern_from_yaml(
        pattern::to_yaml(w.compile(compile_sim, advisor::RunConfig{})));
    for (const advisor::Rewrite& rw : row.rewrites) {
      advisor::apply_rewrite(pat, rw, compile_sim);
    }
    Workload v;
    v.decl = w.decl;
    v.setup = w.setup;
    v.launch = [&pat](runtime::Simulation& sim, const advisor::RunConfig&) {
      pattern::replay(sim, pat);
    };
    runtime::Simulation sim(golden_cluster());
    testutil::expect_golden(
        testutil::observe(row.config, sim, v, advisor::RunConfig{}));
  }
}

// Replayed runs through the spill-to-disk trace backend must match the
// in-memory golden profile (the backends are profile-identical by
// contract; the replayer must not disturb that).
TEST(PatternEquivalence, SpillBackendMatchesReferenceProfile) {
  runtime::SpillPolicy policy;
  policy.dir = ::testing::TempDir() + "pattern_spill";
  policy.chunk_rows = 256;
  policy.max_resident_chunks = 2;
  for (const auto& entry : {paper_workloads()[1], paper_workloads()[4]}) {
    SCOPED_TRACE(entry.id);
    runtime::Simulation spill_sim(golden_cluster());
    auto spilled = run_spilled(spill_sim, entry.make_test(),
                               advisor::RunConfig{},
                               analysis::Analyzer::Options{}, policy,
                               entry.id);
    const auto* golden = testutil::golden_row(entry.id);
    ASSERT_NE(golden, nullptr);
    EXPECT_EQ(testutil::hex64(testutil::charz_digest(spilled.characterization)),
              testutil::hex64(golden->charz_digest));
    EXPECT_EQ(testutil::exact(spilled.job_seconds), golden->job_seconds);
  }
}

// run_many must stay bit-identical whether the replayed scenarios execute
// sequentially or on four worker threads, and match the golden profiles.
TEST(PatternEquivalence, RunManyIdenticalAcrossJobCounts) {
  std::vector<Scenario> scenarios;
  for (const auto& entry : paper_workloads()) {
    Scenario s;
    s.name = entry.id;
    s.spec = golden_cluster();
    s.make = entry.make_test;
    scenarios.push_back(std::move(s));
  }
  auto one = run_many(scenarios, 1);
  auto four = run_many(scenarios, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    EXPECT_EQ(one[i].job_seconds, four[i].job_seconds);
    EXPECT_EQ(one[i].characterization.to_yaml(),
              four[i].characterization.to_yaml());
    const auto* golden = testutil::golden_row(scenarios[i].name);
    ASSERT_NE(golden, nullptr);
    EXPECT_EQ(testutil::hex64(testutil::charz_digest(one[i].characterization)),
              testutil::hex64(golden->charz_digest));
  }
}

// §IV-D.1 as a pure IR mutation: applying the shm-preload rewrite to the
// compiled CosmoFlow pattern must reproduce the Fig. 7 speedup direction
// (training reads move off the PFS, the job gets faster).
TEST(PatternEquivalence, CosmoflowPreloadRewriteReproducesFig7Direction) {
  auto w = make_cosmoflow(CosmoflowParams::test());
  runtime::Simulation compile_sim(golden_cluster());
  auto baseline_pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = baseline_pat;
  advisor::apply_rewrite(rewritten, {"preload", {"shm"}}, compile_sim);
  ASSERT_NE(pattern::to_yaml(rewritten), pattern::to_yaml(baseline_pat));

  auto replay_pattern = [&](const pattern::JobPattern& pat) {
    Workload v;
    v.decl = w.decl;
    v.setup = w.setup;
    v.launch = [&pat](runtime::Simulation& sim, const advisor::RunConfig&) {
      pattern::replay(sim, pat);
    };
    return run(golden_cluster(), v);
  };
  auto base = replay_pattern(baseline_pat);
  auto fast = replay_pattern(rewritten);
  // Fig. 7: node-local training reads shrink both the job and its I/O
  // share of runtime.
  EXPECT_LT(fast.job_seconds, base.job_seconds);
  EXPECT_LT(fast.profile.io_time_fraction * fast.job_seconds,
            base.profile.io_time_fraction * base.job_seconds);
}

// What-if rewrites preserve total bytes while changing op shape.
TEST(PatternRewrite, TransferSizeKeepsBytes) {
  auto w = make_hacc(HaccParams::test());
  runtime::Simulation compile_sim(golden_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  const int changed = advisor::set_transfer_size(rewritten, util::kMiB);
  EXPECT_GT(changed, 0);

  auto run_pattern = [&](const pattern::JobPattern& p) {
    Workload v;
    v.decl = w.decl;
    v.setup = w.setup;
    v.launch = [&p](runtime::Simulation& sim, const advisor::RunConfig&) {
      pattern::replay(sim, p);
    };
    return run(golden_cluster(), v);
  };
  auto base = run_pattern(pat);
  auto variant = run_pattern(rewritten);
  EXPECT_EQ(variant.profile.totals.io_bytes(),
            base.profile.totals.io_bytes());
  EXPECT_NE(variant.profile.totals.total_ops(),
            base.profile.totals.total_ops());
}

TEST(PatternRewrite, InterfaceSwapRespectsPinnedHandles) {
  auto w = make_jag(JagParams::test());
  runtime::Simulation compile_sim(golden_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  // JAG's dataset handles are pinned by scattered reads and wrap seeks;
  // only the plain posix checkpoint chain may move to stdio.
  const int changed =
      advisor::set_interface(rewritten, pattern::Layer::kStdio);
  EXPECT_GT(changed, 0);
  Workload v;
  v.decl = w.decl;
  v.setup = w.setup;
  v.launch = [&rewritten](runtime::Simulation& sim,
                          const advisor::RunConfig&) {
    pattern::replay(sim, rewritten);
  };
  auto out = run(golden_cluster(), v);
  EXPECT_GT(out.profile.totals.io_bytes(), 0u);
}

}  // namespace
}  // namespace wasp::workloads
