// Shared burst-buffer tier and the async checkpoint-drain optimization.
#include <gtest/gtest.h>

#include "io/posix.hpp"
#include "sim_test_util.hpp"
#include "workloads/hacc.hpp"

namespace wasp::fs {
namespace {

using runtime::Proc;
using runtime::Simulation;
using sim::Task;

cluster::ClusterSpec tiny_cori() {
  auto spec = cluster::cori(2);
  spec.node.cpu_cores = 4;
  return spec;
}

TEST(BurstBuffer, CoriPresetMountsDataWarp) {
  Simulation sim(tiny_cori());
  ASSERT_TRUE(sim.has_shared_bb());
  EXPECT_EQ(sim.shared_bb().mount(), "/p/bb");
  EXPECT_TRUE(sim.shared_bb().shared());
  EXPECT_EQ(&sim.mounts().resolve("/p/bb/ckpt"), &sim.shared_bb());
}

TEST(BurstBuffer, LassenHasNone) {
  Simulation sim(cluster::lassen(2));
  EXPECT_FALSE(sim.has_shared_bb());
  EXPECT_THROW(sim.shared_bb(), util::SimError);
}

TEST(BurstBuffer, SharedNamespaceAcrossNodes) {
  Simulation sim(tiny_cori());
  const auto app = sim.tracer().register_app("t");
  auto writer = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/bb/stage", io::OpenMode::kWrite);
    co_await posix.write(f, util::kMiB, 1);
    co_await posix.close(f);
  };
  auto reader = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 1, 1);  // different node sees the same file
    co_await p.compute(1 * sim::kSec);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/bb/stage", io::OpenMode::kRead);
    co_await posix.read(f, util::kMiB, 1);
    co_await posix.close(f);
  };
  sim.engine().spawn(writer(sim, app));
  sim.engine().spawn(reader(sim, app));
  sim.engine().run();
  EXPECT_EQ(sim.shared_bb().counters().bytes_read, util::kMiB);
  EXPECT_EQ(sim.shared_bb().used_bytes(), util::kMiB);
}

TEST(BurstBuffer, MetadataMuchCheaperThanPfs) {
  Simulation sim(tiny_cori());
  const auto app = sim.tracer().register_app("t");
  sim::Time bb_time = 0;
  sim::Time pfs_time = 0;
  auto prog = [](Simulation& s, std::uint16_t a, sim::Time& bb,
                 sim::Time& pfs) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    sim::Time t0 = p.now();
    for (int i = 0; i < 32; ++i) {
      auto f = co_await posix.open("/p/bb/m" + std::to_string(i),
                                   io::OpenMode::kWrite);
      co_await posix.close(f);
    }
    bb = p.now() - t0;
    t0 = p.now();
    for (int i = 0; i < 32; ++i) {
      auto f = co_await posix.open(
          s.pfs().mount() + "/m" + std::to_string(i), io::OpenMode::kWrite);
      co_await posix.close(f);
    }
    pfs = p.now() - t0;
  };
  sim.engine().spawn(prog(sim, app, bb_time, pfs_time));
  sim.engine().run();
  EXPECT_LT(bb_time * 2, pfs_time);
}

TEST(BurstBuffer, CapacityEnforced) {
  auto spec = tiny_cori();
  spec.shared_bb->capacity = util::kMiB;
  Simulation sim(spec);
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/bb/big", io::OpenMode::kWrite);
    EXPECT_THROW({ co_await posix.write(f, 2 * util::kMiB, 1); },
                 util::SimError);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
}

TEST(AsyncCheckpointDrain, FasterAndStillPersistsToPfs) {
  // The drain pays off under PFS contention (otherwise the extra copy
  // costs more than it saves): 64 ranks, checkpoints too big for the
  // client cache.
  workloads::HaccParams P;
  P.nodes = 4;
  P.ranks_per_node = 16;
  P.per_rank_bytes = util::kGiB;
  P.transfer = 16 * util::kMiB;
  P.rounds = 4;
  P.generate_compute = sim::seconds(0.2);
  auto spec = cluster::cori(4);
  spec.node.cpu_cores = 16;

  auto sync_out = workloads::run(spec, workloads::make_hacc(P));

  advisor::RunConfig cfg;
  cfg.rewrites = {{"async-drain", {"shm"}}};
  runtime::Simulation sim(spec);
  auto async_out = workloads::run_with(sim, workloads::make_hacc(P), cfg,
                                       analysis::Analyzer::Options{});

  // The fast tier absorbs checkpoint+restart: job gets faster.
  EXPECT_LT(async_out.job_seconds, sync_out.job_seconds);
  // The drain still persisted every rank's checkpoint to the PFS.
  auto& ns = sim.pfs().ns({0, 0});
  const int ranks = P.nodes * P.ranks_per_node;
  for (int r = 0; r < ranks; ++r) {
    const std::string path =
        sim.pfs().mount() + "/hacc/" + std::to_string(r) + ".ckpt";
    auto id = ns.lookup(path);
    ASSERT_TRUE(id.has_value()) << path;
    EXPECT_EQ(ns.inode(*id).size, P.per_rank_bytes / P.transfer * P.transfer);
  }
}

}  // namespace
}  // namespace wasp::fs
