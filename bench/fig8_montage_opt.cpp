// Figure 8: optimizing Montage (MPI) with workload attributes.
//
// Baseline (B): intermediate files (projected images, mosaic segments,
// shrunk overviews) on GPFS with <4KB-32KB transfers. Optimized (O): the
// advisor's "intermediates-node-local" rule redirects them to /dev/shm and
// places consumers with producers. Strong scaling 32..256 nodes, the
// baseline and optimized halves each fanned out across --jobs workers.
//
// Paper: baseline improves 1.35x-1.5x per doubling; the shm redirection
// improves I/O 3.9x (small scale) to 8x (256 nodes).
#include <iostream>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/montage_mpi.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);
  std::vector<benchutil::AdvisePoint> points;
  for (const auto& [nodes, paper] :
       {std::pair{32, 3.9}, {64, 5.0}, {128, 6.4}, {256, 8.0}}) {
    // Strong scaling: total survey size fixed, split across more nodes.
    workloads::MontageMpiParams P = workloads::MontageMpiParams::paper();
    P.nodes = nodes;
    P.projected_per_node = P.projected_per_node * 32 / nodes;
    P.mosaic_per_node = P.mosaic_per_node * 32 / nodes;
    P.png_per_node = P.png_per_node * 32 / nodes;
    points.push_back({nodes, [P] { return workloads::make_montage_mpi(P); },
                      paper});
  }
  benchutil::advise_and_verify(
      "Figure 8 — Montage-MPI baseline (B) vs shm-intermediates (O)",
      "montage", points, jobs);
  std::cout << "\npaper band: 3.9x .. 8x, baseline improving 1.35-1.5x per "
               "doubling\n";
  return 0;
}
