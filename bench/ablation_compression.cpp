// Ablation: transparent checkpoint compression vs the data's value
// distribution and the codec's home (CPU vs GPU) — the paper's §I warning
// made measurable: compressing high-entropy (uniform) data grows it and
// slows the job, while structured (normal) data on a GPU codec wins. Each
// case is one sweep cell, applied as the "compress" rewrite.
#include <charconv>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "io/compression.hpp"
#include "sweep.hpp"
#include "workloads/hacc.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);

  workloads::HaccParams P;
  P.nodes = 8;
  P.ranks_per_node = 16;
  P.per_rank_bytes = 512 * util::kMB;
  P.generate_compute = sim::seconds(4);

  struct Cell {
    std::string dist;
    std::string codec;  // "off", "cpu", "gpu"
    double ratio() const {
      return codec == "off" ? 1.0 : io::CompressionModel::ratio_for(dist);
    }
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — checkpoint compression (HACC-style, 8 nodes)";
  sweep.header = {"data dist", "codec", "ratio", "job s", "PFS bytes written"};
  sweep.cells = {{"-", "off"}, {"uniform", "cpu"}, {"normal", "cpu"},
                 {"normal", "gpu"}};
  sweep.scenario = [P](const Cell& c) {
    workloads::Scenario s;
    s.name = "compress-" + c.dist + "-" + c.codec;
    s.spec = cluster::lassen(P.nodes);
    s.make = [P] { return workloads::make_hacc(P); };
    if (c.codec != "off") {
      char ratio[32];
      const auto res = std::to_chars(ratio, ratio + sizeof(ratio), c.ratio());
      s.cfg.rewrites = {{"compress", {std::string(ratio, res.ptr), c.codec}}};
    }
    return s;
  };
  sweep.row = [](const Cell& c, const workloads::RunOutput& out) {
    char job[32];
    char rat[32];
    std::snprintf(job, sizeof(job), "%.1f", out.job_seconds);
    std::snprintf(rat, sizeof(rat), "%.2f", c.ratio());
    return std::vector<std::string>{
        c.dist, c.codec, rat, job,
        util::format_bytes(out.pfs_counters.bytes_written)};
  };
  benchutil::run_sweep(sweep, jobs);
  std::cout << "\nTakeaway: the data_dist attribute decides whether the\n"
               "compression rule helps (normal: smaller+faster, especially\n"
               "on GPU) or hurts (uniform: +12% data, slower) — exactly the\n"
               "paper's introduction example.\n";
  return 0;
}
