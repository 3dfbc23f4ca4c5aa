// Ablation: asynchronous checkpoint draining (§IV-D.2) — HACC-style
// checkpoints written synchronously to the PFS vs. staged on a fast tier
// (shared DataWarp burst buffer on a Cori-like system; node-local shm on
// Lassen) with a background flush overlapping the restart phase. Each
// system/drain pair is one sweep cell; the drain is the "async-drain"
// rewrite of the baseline pattern.
#include <cstdio>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/hacc.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);

  workloads::HaccParams P;
  P.nodes = 16;
  P.ranks_per_node = 16;
  P.per_rank_bytes = 512 * util::kMB;
  P.generate_compute = sim::seconds(6);

  struct Cell {
    const char* label;
    bool cori;
    bool drain;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — async checkpoint drain (HACC, 16 nodes)";
  sweep.header = {"system", "drain", "job s", "ckpt+restart io s"};
  sweep.cells = {{"lassen (GPFS only)", false, false},
                 {"lassen (shm + drain)", false, true},
                 {"cori (Lustre only)", true, false},
                 {"cori (DataWarp + drain)", true, true}};
  sweep.scenario = [P](const Cell& c) {
    workloads::Scenario s;
    s.name = c.label;
    s.spec = c.cori ? cluster::cori(P.nodes) : cluster::lassen(P.nodes);
    s.make = [P] { return workloads::make_hacc(P); };
    if (c.drain) s.cfg.rewrites = {{"async-drain", {"shm"}}};
    return s;
  };
  sweep.row = [](const Cell& c, const workloads::RunOutput& out) {
    char job[32];
    char io[32];
    std::snprintf(job, sizeof(job), "%.1f", out.job_seconds);
    std::snprintf(io, sizeof(io), "%.1f",
                  out.profile.io_time_fraction * out.job_seconds);
    return std::vector<std::string>{c.label, c.drain ? "async" : "sync", job,
                                    io};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
