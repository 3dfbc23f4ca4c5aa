// Ablation: HDF5 chunking (§IV-D.5 dataset-layout optimization). The
// paper attributes CosmoFlow's metadata storm to unchunked files; chunking
// amortizes the per-access metadata walk. The chunked cell is the
// "hdf5-chunk" rewrite of the baseline pattern.
#include <cstdio>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/cosmoflow.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);

  workloads::CosmoflowParams P;
  P.nodes = 8;
  P.procs_per_node = 4;
  P.files = 1024;
  P.gpu_per_file = sim::seconds(0.2);

  struct Cell {
    bool chunked;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — HDF5 chunking (CosmoFlow, 8 nodes, reduced set)";
  sweep.header = {"layout", "job s", "io s", "meta ops", "meta time"};
  sweep.cells = {{false}, {true}};
  sweep.scenario = [P](const Cell& c) {
    workloads::Scenario s;
    s.name = c.chunked ? "hdf5-chunked" : "hdf5-contiguous";
    s.spec = cluster::lassen(P.nodes);
    s.make = [P] { return workloads::make_cosmoflow(P); };
    if (c.chunked) {
      s.cfg.rewrites = {{"hdf5-chunk", {std::to_string(util::kMiB)}}};
    }
    return s;
  };
  sweep.row = [](const Cell& c, const workloads::RunOutput& out) {
    char job[32];
    char io[32];
    std::snprintf(job, sizeof(job), "%.1f", out.job_seconds);
    std::snprintf(io, sizeof(io), "%.1f",
                  out.profile.io_time_fraction * out.job_seconds);
    return std::vector<std::string>{
        c.chunked ? "chunked (1MB)" : "contiguous", job, io,
        std::to_string(out.profile.totals.meta_ops),
        util::format_percent(out.profile.totals.meta_time_fraction())};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
