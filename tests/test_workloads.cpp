// End-to-end workload tests at test scale: every exemplar runs to
// completion, produces a coherent profile, and its characterization matches
// the paper's qualitative fingerprint (interface, sharing mode, ops mix).
#include <gtest/gtest.h>

#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

cluster::ClusterSpec test_cluster(int nodes = 4) {
  auto spec = cluster::lassen(nodes);
  spec.node.cpu_cores = 8;  // plenty for the scaled-down workloads
  return spec;
}

TEST(WorkloadRegistry, AllSixRunAtTestScale) {
  for (const auto& entry : paper_workloads()) {
    SCOPED_TRACE(entry.name);
    auto out = run(test_cluster(), entry.make_test());
    EXPECT_GT(out.job_seconds, 0.0);
    EXPECT_GT(out.profile.totals.total_ops(), 0u);
    EXPECT_GT(out.profile.totals.io_bytes(), 0u);
    EXPECT_FALSE(out.characterization.to_yaml().empty());
  }
}

TEST(Cm1, FingerprintMatchesPaper) {
  auto out = run(test_cluster(), make_cm1(Cm1Params::test()));
  const auto* app = out.profile.app_by_name("cm1");
  ASSERT_NE(app, nullptr);
  // POSIX interface, 16 procs at test scale.
  EXPECT_EQ(app->interface, trace::Iface::kPosix);
  EXPECT_EQ(app->num_procs, 16);
  // Reads dominate bytes (config reads from every rank vs rank-0 writes).
  EXPECT_GT(out.profile.totals.read_bytes, out.profile.totals.write_bytes);
  // Metadata ops dominate op counts (seeks between 4KB write regions).
  EXPECT_LT(out.profile.totals.data_op_fraction(), 0.55);
  // Both shared (config) and FPP (rank-0 outputs) files exist.
  EXPECT_GT(out.profile.shared_files, 0u);
  EXPECT_GT(out.profile.fpp_files, 0u);
  // Only rank 0 writes simulation output.
  for (const auto& f : out.profile.files) {
    if (f.path.find("/out/") != std::string::npos) {
      EXPECT_EQ(f.writer_ranks, 1u) << f.path;
    }
  }
}

TEST(Hacc, FingerprintMatchesPaper) {
  HaccParams P = HaccParams::test();
  auto out = run(test_cluster(2), make_hacc(P));
  const auto* app = out.profile.app_by_name("hacc-io");
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->interface, trace::Iface::kPosix);
  // Pure file-per-process: no shared files at all (Table I: 1280/0).
  EXPECT_EQ(out.profile.shared_files, 0u);
  EXPECT_EQ(out.profile.fpp_files, 8u);
  // Checkpoint is read back entirely: bytes read == bytes written.
  EXPECT_EQ(out.profile.totals.read_bytes, out.profile.totals.write_bytes);
  // I/O-dominated job (paper: 75%).
  EXPECT_GT(out.profile.io_time_fraction, 0.4);
}

TEST(Cosmoflow, FingerprintMatchesPaper) {
  auto out = run(test_cluster(2), make_cosmoflow(CosmoflowParams::test()));
  const auto* app = out.profile.app_by_name("cosmoflow");
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->interface, trace::Iface::kHdf5);
  // Every dataset file is shared (collective reads), none FPP (Table I).
  std::uint64_t shared_h5 = 0;
  for (const auto& f : out.profile.files) {
    if (f.path.find(".h5") != std::string::npos) {
      EXPECT_TRUE(f.shared()) << f.path;
      ++shared_h5;
    }
  }
  EXPECT_EQ(shared_h5, CosmoflowParams::test().files);
  // Metadata dominates both op counts and I/O time (paper: 98% / 98%).
  EXPECT_LT(out.profile.totals.data_op_fraction(), 0.5);
  EXPECT_GT(out.profile.totals.meta_time_fraction(), 0.5);
  // Reads dominate bytes massively (1.5TB reads vs 20MB checkpoints).
  EXPECT_GT(out.profile.totals.read_bytes,
            10 * out.profile.totals.write_bytes);
}

TEST(Cosmoflow, PreloadConfigReadsFromNodeLocal) {
  advisor::RunConfig cfg;
  cfg.rewrites = {{"preload", {"shm"}}};
  auto spec = test_cluster(2);
  runtime::Simulation sim(spec);
  auto out = run_with(sim, make_cosmoflow(CosmoflowParams::test()), cfg,
                      analysis::Analyzer::Options{});
  // The shm tier holds the dataset shard afterwards.
  EXPECT_GT(sim.node_local("shm").used_bytes(0), 0u);
  EXPECT_GT(sim.node_local("shm").counters().bytes_read, 0u);
}

TEST(Jag, FingerprintMatchesPaper) {
  auto out = run(test_cluster(2), make_jag(JagParams::test()));
  const auto* app = out.profile.app_by_name("jag-icf");
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->interface, trace::Iface::kStdio);
  // Single shared input file (Table I: 0 FPP / shared input).
  bool found_dataset = false;
  for (const auto& f : out.profile.files) {
    if (f.path.find("samples.npy") != std::string::npos) {
      found_dataset = true;
      EXPECT_TRUE(f.shared());
    }
  }
  EXPECT_TRUE(found_dataset);
  // ~70% metadata ops (two seeks per sample read).
  EXPECT_LT(out.profile.totals.data_op_fraction(), 0.45);
  // Two read phases: start (epoch 1) and end (validation) — at least two
  // phases detected for the app.
  int phases = 0;
  for (const auto& ph : out.profile.phases) {
    if (ph.app == app->app) ++phases;
  }
  EXPECT_GE(phases, 2);
}

TEST(MontageMpi, FingerprintMatchesPaper) {
  auto out = run(test_cluster(2), make_montage_mpi(MontageMpiParams::test()));
  // Five applications (Table III: # apps = 5).
  EXPECT_EQ(out.profile.apps.size(), 5u);
  // Data ops dominate (Table III: 99% data).
  EXPECT_GT(out.profile.totals.data_op_fraction(), 0.8);
  // The workflow has app-level data dependencies (producer/consumer files).
  EXPECT_FALSE(out.profile.app_edges.empty());
  // mAddMPI + mViewer carry the bulk of the I/O (paper: 98%).
  const auto* add = out.profile.app_by_name("mAddMPI");
  const auto* viewer = out.profile.app_by_name("mViewer");
  ASSERT_NE(add, nullptr);
  ASSERT_NE(viewer, nullptr);
  EXPECT_GT(add->ops.io_bytes() + viewer->ops.io_bytes(),
            out.profile.totals.io_bytes() / 2);
}

TEST(MontageMpi, ShmRedirectMovesIntermediatesOffPfs) {
  advisor::RunConfig cfg;
  cfg.rewrites = {{"intermediates", {"shm"}}};
  auto spec = test_cluster(2);
  runtime::Simulation sim(spec);
  auto out = run_with(sim, make_montage_mpi(MontageMpiParams::test()), cfg,
                      analysis::Analyzer::Options{});
  // Intermediates live on shm...
  EXPECT_GT(sim.node_local("shm").counters().bytes_written, 0u);
  // ...and no intermediate path appears on the PFS namespace.
  EXPECT_TRUE(sim.pfs().ns({0, 0}).list("/p/gpfs1/montage/tmp/").empty());
}

TEST(MontagePegasus, FingerprintMatchesPaper) {
  auto out =
      run(test_cluster(2), make_montage_pegasus(MontagePegasusParams::test()));
  // Eight kernels traced (mProject..mViewer).
  EXPECT_EQ(out.profile.apps.size(), 8u);
  // mDiff dominates read volume (paper: 60% of I/O by mDiff reads).
  const auto* diff = out.profile.app_by_name("mDiff");
  ASSERT_NE(diff, nullptr);
  for (const auto& a : out.profile.apps) {
    if (a.name != "mDiff") {
      EXPECT_GE(diff->ops.read_bytes, a.ops.read_bytes) << a.name;
    }
  }
  // Deep producer->consumer chain.
  EXPECT_GE(out.profile.app_edges.size(), 4u);
}

TEST(Workloads, DeterministicAcrossRuns) {
  auto a = run(test_cluster(2), make_hacc(HaccParams::test()));
  auto b = run(test_cluster(2), make_hacc(HaccParams::test()));
  EXPECT_EQ(a.job_seconds, b.job_seconds);
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_EQ(a.profile.totals.total_ops(), b.profile.totals.total_ops());
}

}  // namespace
}  // namespace wasp::workloads
