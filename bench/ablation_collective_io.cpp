// Ablation: MPI-IO collective buffering (cb aggregators) on CosmoFlow's
// shared small-file reads. Disabling aggregation multiplies the number of
// PFS requests per file by the ranks-per-node; widening cb_buffer reduces
// server requests (§IV-D.1 aggregation guidance). Each setting is one
// sweep cell, applied as the "mpiio" rewrite of the baseline pattern.
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
    int agg;
    util::Bytes cb;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title =
      "Ablation — collective buffering (CosmoFlow, 8 nodes, reduced set)";
  sweep.header = {"aggregators/node", "cb_buffer", "job s", "io s",
                  "PFS data ops"};
  sweep.cells = {{1, 16 * util::kMiB}, {1, 4 * util::kMiB},
                 {0, 16 * util::kMiB}};
  sweep.scenario = [P](const Cell& c) {
    workloads::Scenario s;
    s.name = "cb-" + std::to_string(c.agg) + "-" + std::to_string(c.cb);
    s.spec = cluster::lassen(P.nodes);
    s.make = [P] { return workloads::make_cosmoflow(P); };
    s.cfg.rewrites = {
        {"mpiio", {std::to_string(c.cb), std::to_string(c.agg)}}};
    return s;
  };
  sweep.row = [](const Cell& c, const workloads::RunOutput& out) {
    char job[32];
    char io[32];
    std::snprintf(job, sizeof(job), "%.1f", out.job_seconds);
    std::snprintf(io, sizeof(io), "%.1f",
                  out.profile.io_time_fraction * out.job_seconds);
    return std::vector<std::string>{std::to_string(c.agg),
                                    util::format_bytes(c.cb), job, io,
                                    std::to_string(out.pfs_counters.data_ops)};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
