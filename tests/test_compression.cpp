// Compression middleware: ratio model, logical/stored accounting, and the
// advisor rule's help-vs-hurt decision.
#include <gtest/gtest.h>

#include "advisor/rules.hpp"
#include "io/compression.hpp"
#include "sim_test_util.hpp"
#include "workloads/hacc.hpp"

namespace wasp::io {
namespace {

using runtime::Proc;
using runtime::Simulation;
using sim::Task;

TEST(CompressionModel, RatioDependsOnDistribution) {
  EXPECT_GT(CompressionModel::ratio_for("uniform"), 1.0);  // grows!
  EXPECT_LT(CompressionModel::ratio_for("normal"), 0.6);
  EXPECT_LT(CompressionModel::ratio_for("gamma"), 0.7);
  EXPECT_LT(CompressionModel::ratio_for("sparse"), 0.2);
}

TEST(CompressedPosix, StoresCompressedBytesTracesLogicalOps) {
  Simulation sim(cluster::tiny(1));
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    CompressionModel model;
    model.ratio = 0.5;
    CompressedPosix cp(p, model);
    auto f = co_await cp.open("/p/gpfs1/z", OpenMode::kWrite);
    co_await cp.write(f, util::kMiB, 8);
    co_await cp.close(f);
    // Stored size is half the logical size.
    EXPECT_EQ(s.pfs().ns({0, 0}).inode(f.id).size, 4 * util::kMiB);
    EXPECT_EQ(cp.logical_written(), 8 * util::kMiB);

    auto g = co_await cp.open("/p/gpfs1/z", OpenMode::kRead);
    co_await cp.read(g, util::kMiB, 8);
    co_await cp.close(g);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();

  // PFS moved compressed bytes only...
  EXPECT_EQ(sim.pfs().counters().bytes_written, 4 * util::kMiB);
  EXPECT_EQ(sim.pfs().counters().bytes_read, 4 * util::kMiB);
  // ...while the trace reports the application's logical sizes.
  EXPECT_EQ(testutil::count_ops(sim.tracer(),
                                [](const trace::Record& r) {
                                  return r.op == trace::Op::kWrite &&
                                         r.size == util::kMiB;
                                }),
            8u);
}

TEST(CompressedPosix, GrowingRatioStoresMoreThanLogical) {
  Simulation sim(cluster::tiny(1));
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    CompressionModel model;
    model.ratio = 1.12;  // the paper's uniform-data pathology
    CompressedPosix cp(p, model);
    auto f = co_await cp.open("/p/gpfs1/u", OpenMode::kWrite);
    co_await cp.write(f, util::kMiB, 4);
    co_await cp.close(f);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
  EXPECT_GT(sim.pfs().counters().bytes_written, 4 * util::kMiB);
}

TEST(CompressedPosix, GpuCodecFasterThanCpu) {
  auto run_once = [](bool gpu) {
    Simulation sim(cluster::tiny(1));
    const auto app = sim.tracer().register_app("t");
    auto prog = [](Simulation& s, std::uint16_t a, bool use_gpu)
        -> Task<void> {
      Proc p(s, a, 0, 0);
      CompressionModel model;
      model.use_gpu = use_gpu;
      model.ratio = 0.5;
      CompressedPosix cp(p, model);
      auto f = co_await cp.open("/p/gpfs1/g", OpenMode::kWrite);
      co_await cp.write(f, 16 * util::kMiB, 16);
      co_await cp.close(f);
    };
    sim.engine().spawn(prog(sim, app, gpu));
    sim.engine().run();
    return sim::to_seconds(sim.engine().now());
  };
  EXPECT_LT(run_once(true) * 2, run_once(false));
}

TEST(CompressionRule, FiresForCompressibleBigData) {
  charz::WorkloadCharacterization c;
  c.job.nodes = 32;
  c.job.gpus_per_node = 4;
  c.dataset.io_amount = 800ull * util::kGB;
  c.high_level_io.data_distribution = "normal";
  advisor::RuleEngine rules;
  auto recs = rules.evaluate(c);
  bool fired = false;
  for (const auto& r : recs) fired = fired || r.id == "compress-checkpoints";
  ASSERT_TRUE(fired);
  auto cfg = advisor::RuleEngine::configure(recs);
  const advisor::Rewrite* compress = nullptr;
  for (const auto& rw : cfg.rewrites) {
    if (rw.name == "compress") compress = &rw;
  }
  ASSERT_NE(compress, nullptr);
  ASSERT_EQ(compress->args.size(), 2u);
  EXPECT_LT(std::stod(compress->args[0]), 0.6);  // ratio
  EXPECT_EQ(compress->args[1], "gpu");           // codec home
}

TEST(CompressionRule, DeclinesForHighEntropyData) {
  charz::WorkloadCharacterization c;
  c.job.nodes = 32;
  c.dataset.io_amount = 800ull * util::kGB;
  c.high_level_io.data_distribution = "uniform";  // the §I pathology
  advisor::RuleEngine rules;
  for (const auto& r : rules.evaluate(c)) {
    EXPECT_NE(r.id, "compress-checkpoints");
  }
}

TEST(CompressionRule, HaccIsNotCompressed) {
  // HACC declares a uniform particle distribution: the advisor must NOT
  // recommend compression even though its I/O volume qualifies.
  auto out = workloads::run(cluster::lassen(4),
                            workloads::make_hacc(workloads::HaccParams::test()));
  for (const auto& r : out.recommendations) {
    EXPECT_NE(r.id, "compress-checkpoints");
  }
}

TEST(CompressionIntegration, HaccCompressedWritesLessToPfs) {
  workloads::HaccParams P = workloads::HaccParams::test();
  advisor::RunConfig cfg;
  cfg.rewrites = {{"compress", {"0.5", "gpu"}}};
  runtime::Simulation plain(cluster::lassen(2));
  auto base = workloads::run_with(plain, workloads::make_hacc(P),
                                  advisor::RunConfig{},
                                  analysis::Analyzer::Options{});
  runtime::Simulation comp(cluster::lassen(2));
  auto z = workloads::run_with(comp, workloads::make_hacc(P), cfg,
                               analysis::Analyzer::Options{});
  EXPECT_LT(comp.pfs().counters().bytes_written,
            plain.pfs().counters().bytes_written * 6 / 10);
  // Trace still reports logical volumes: read == write.
  EXPECT_EQ(z.profile.totals.read_bytes, z.profile.totals.write_bytes);
}

}  // namespace
}  // namespace wasp::io
