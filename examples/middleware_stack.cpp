// Middleware stack study: put transparent compression (HCompress-style
// CompressedPosix, the §II-B middleware layer) under a checkpoint-heavy
// pipeline, and show how the workload attributes pick the right stack.
//
// Build & run:  ./build/examples/example_middleware_stack
#include <cstdio>
#include <iostream>

#include "io/compression.hpp"
#include "util/table.hpp"

using namespace wasp;
using runtime::Proc;
using runtime::Simulation;
using sim::Task;

namespace {

constexpr int kRanks = 16;
constexpr fs::Bytes kCheckpoint = 256 * util::kMiB;
constexpr fs::Bytes kTransfer = 8 * util::kMiB;

std::string ckpt_path(int rank) {
  return "/p/gpfs1/mw/ckpt_" + std::to_string(rank);
}

double g_stall_sum = 0;  // summed per-rank checkpoint stalls of a case

/// Plain: each rank writes its checkpoint straight to the PFS.
Task<void> rank_plain(Simulation& s, std::uint16_t a, int rank) {
  Proc p(s, a, rank, rank % s.spec().nodes);
  io::Posix posix(p);
  co_await p.compute(sim::seconds(2));
  const sim::Time t0 = p.now();
  auto f = co_await posix.open(ckpt_path(rank), io::OpenMode::kWrite);
  co_await posix.write(f, kTransfer,
                       static_cast<std::uint32_t>(kCheckpoint / kTransfer));
  co_await posix.close(f);
  g_stall_sum += sim::to_seconds(p.now() - t0);
  co_await p.compute(sim::seconds(1));  // the job continues
}

/// Compressed: the codec shrinks the stream before it hits the PFS.
Task<void> rank_compressed(Simulation& s, std::uint16_t a, int rank,
                           bool gpu) {
  Proc p(s, a, rank, rank % s.spec().nodes);
  io::CompressionModel model;
  model.use_gpu = gpu;
  model.ratio = io::CompressionModel::ratio_for("normal");
  io::CompressedPosix cp(p, model);
  co_await p.compute(sim::seconds(2));
  const sim::Time t0 = p.now();
  auto f = co_await cp.open(ckpt_path(rank), io::OpenMode::kWrite);
  co_await cp.write(f, kTransfer,
                    static_cast<std::uint32_t>(kCheckpoint / kTransfer));
  co_await cp.close(f);
  g_stall_sum += sim::to_seconds(p.now() - t0);
  co_await p.compute(sim::seconds(1));
}

struct CaseResult {
  double job_sec;
  double mean_stall;
};

CaseResult run_case(const char* which, bool gpu = false) {
  g_stall_sum = 0;
  Simulation sim(cluster::lassen(4));
  const auto app = sim.tracer().register_app("mw");
  for (int r = 0; r < kRanks; ++r) {
    if (std::string(which) == "plain") {
      sim.engine().spawn(rank_plain(sim, app, r));
    } else {
      sim.engine().spawn(rank_compressed(sim, app, r, gpu));
    }
  }
  sim.engine().run();
  return {sim::to_seconds(sim.engine().now()), g_stall_sum / kRanks};
}

}  // namespace

int main() {
  util::TablePrinter table(
      "Middleware stacks on a 16-rank, 256MiB-per-rank checkpoint");
  table.set_header({"stack", "job s", "ckpt stall/rank"});
  char j[32];
  char st[32];
  auto row = [&](const char* label, CaseResult r) {
    std::snprintf(j, sizeof(j), "%.2f", r.job_sec);
    std::snprintf(st, sizeof(st), "%.2fs", r.mean_stall);
    table.add_row({label, j, st});
  };
  row("direct PFS", run_case("plain"));
  row("+ compression (CPU codec)", run_case("compressed", false));
  row("+ compression (GPU codec)", run_case("compressed", true));
  table.print(std::cout);
  std::cout << "\nThe advisor picks between these from two attributes:\n"
               "  data_dist     -> is compression worth it at all?\n"
               "  # gpus/node   -> where should the codec run?\n";
  return 0;
}
