// Figure 7: optimizing CosmoFlow with workload attributes.
//
// Baseline (B): collective HDF5/MPI-IO reads of 49,664 small files straight
// from GPFS. Optimized (O): the advisor's "preload-input" rule stages each
// node's shard into /dev/shm first (MPIFileUtils-style parallel copy), then
// trains against node-local files. Strong scaling 32..256 nodes.
//
// The four baselines are independent simulations, as are the four optimized
// re-runs (each derived from its own baseline characterization), so each
// half of the sweep fans out across --jobs workers.
//
// Paper: sublinear baseline improvement (1.25x-1.4x per doubling) and an
// overall I/O speedup of 2.2x (32 nodes) to 4.6x (256 nodes).
#include <iostream>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/cosmoflow.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);
  std::vector<benchutil::AdvisePoint> points;
  for (const auto& [nodes, paper] :
       {std::pair{32, 2.2}, {64, 3.0}, {128, 3.8}, {256, 4.6}}) {
    workloads::CosmoflowParams P = workloads::CosmoflowParams::paper();
    P.nodes = nodes;  // strong scaling: dataset fixed
    points.push_back({nodes, [P] { return workloads::make_cosmoflow(P); },
                      paper});
  }
  benchutil::advise_and_verify(
      "Figure 7 — CosmoFlow baseline (B) vs shm-preload optimized (O)",
      "cosmoflow", points, jobs);
  std::cout << "\npaper band: 2.2x (32 nodes) .. 4.6x (256 nodes), "
               "baseline improving 1.25-1.4x per doubling\n";
  return 0;
}
