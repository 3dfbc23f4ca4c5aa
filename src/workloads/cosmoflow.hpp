// CosmoFlow deep-learning workload (paper §III-B.3, Figure 3, case study
// §V-A / Figure 7).
//
// 4 GPU processes per node read 49,664 HDF5 files of 32MB (1.5TB) through
// collective MPI-IO with 1MB transfers while training runs on the GPUs.
// The files are unchunked, so every access pays collective metadata reads —
// the metadata storm that makes 98% of I/O time metadata on GPFS.
//
// The optimized configuration (the "preload shm" rewrite the advisor's
// "preload-input" rule emits) rewrites the baseline pattern: it first
// copies each node's shard of the dataset into /dev/shm with an
// MPIFileUtils-style parallel job and then trains against node-local files.
#pragma once

#include "workloads/workload.hpp"

namespace wasp::workloads {

struct CosmoflowParams {
  int nodes = 32;
  int procs_per_node = 4;  ///< one per GPU
  std::uint64_t files = 49664;
  util::Bytes file_size = 32 * util::kMiB;
  util::Bytes transfer = util::kMiB;
  /// GPU time per training sample-file (calibrated for a 3567s job).
  sim::Time gpu_per_file = sim::seconds(2.05);
  /// Periodic checkpoints written by rank 0 (20MB total, 40KB ops).
  int checkpoints = 5;
  util::Bytes checkpoint_bytes = 4 * util::kMB;
  util::Bytes checkpoint_transfer = 40 * util::kKB;
  /// Per-node staging rate of the MPIFileUtils preload (copy + checksum +
  /// per-file metadata). The paper's Fig. 7 implies ~8GB/s aggregate at 32
  /// nodes for the 1.5TB stage-in, i.e. ~250-300MB/s per node.
  double preload_node_bps = 300e6;

  static CosmoflowParams paper() { return CosmoflowParams{}; }
  static CosmoflowParams test();

  std::uint64_t files_per_node() const {
    return (files + static_cast<std::uint64_t>(nodes) - 1) /
           static_cast<std::uint64_t>(nodes);
  }
};

Workload make_cosmoflow(const CosmoflowParams& params = CosmoflowParams{});

}  // namespace wasp::workloads
