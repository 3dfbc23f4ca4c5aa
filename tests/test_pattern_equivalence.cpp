// The pattern compilers' contract: replaying a compiled JobPattern through
// the generic replayer reproduces the committed golden row of each pinned
// configuration (tests/pattern_golden.hpp) — the exact trace, app list,
// engine event count, job seconds and characterization — across workloads,
// run configs, trace backends, and scenario-runner job counts.
#include <gtest/gtest.h>

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

// The compilers consume the RunConfig, so the goldens pin the advisor's
// knobs (§IV-D) too — each workload with the configuration its case study
// turns on.
TEST(PatternEquivalence, HaccCompressedAsyncDrain) {
  advisor::RunConfig cfg;
  cfg.compress_checkpoints = true;
  cfg.compress_on_gpu = true;
  cfg.async_checkpoint_drain = true;
  expect_golden("hacc-fpp-compressed-async-drain",
                make_hacc(HaccParams::test()), cfg);
}

TEST(PatternEquivalence, CosmoflowChunkedAndPreloaded) {
  advisor::RunConfig cfg;
  cfg.hdf5_chunking = true;
  cfg.preload_input_to_node_local = true;
  expect_golden("cosmoflow-chunked-preloaded",
                make_cosmoflow(CosmoflowParams::test()), cfg);
}

TEST(PatternEquivalence, JagLargeStdioBuffer) {
  advisor::RunConfig cfg;
  cfg.stdio_buffer = util::kMiB;
  expect_golden("jag-stdio-1mib", make_jag(JagParams::test()), cfg);
}

TEST(PatternEquivalence, MontageMpiShmIntermediates) {
  advisor::RunConfig cfg;
  cfg.intermediates_to_node_local = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_golden("montage-mpi-shm-intermediates",
                make_montage_mpi(MontageMpiParams::test()), cfg);
}

TEST(PatternEquivalence, MontagePegasusLocalityAware) {
  advisor::RunConfig cfg;
  cfg.locality_aware_placement = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_golden("montage-pegasus-locality-aware",
                make_montage_pegasus(MontagePegasusParams::test()), cfg);
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
// (training reads move off the PFS, the job gets faster), and must match
// what the compiler emits when the RunConfig asks for preloading.
TEST(PatternEquivalence, CosmoflowPreloadRewriteReproducesFig7Direction) {
  auto w = make_cosmoflow(CosmoflowParams::test());
  runtime::Simulation compile_sim(golden_cluster());
  auto baseline_pat = w.compile(compile_sim, advisor::RunConfig{});

  advisor::PreloadSpec spec;
  ASSERT_TRUE(
      advisor::preload_spec_from_meta(baseline_pat, "/dev/shm", &spec));
  auto rewritten = baseline_pat;
  advisor::apply_preload(rewritten, spec);

  // The rewrite equals recompiling with the knob on.
  advisor::RunConfig preload_cfg;
  preload_cfg.preload_input_to_node_local = true;
  runtime::Simulation compile_sim2(golden_cluster());
  EXPECT_EQ(pattern::to_yaml(rewritten),
            pattern::to_yaml(w.compile(compile_sim2, preload_cfg)));

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
