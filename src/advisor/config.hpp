// RunConfig: every storage/middleware knob the advisor can turn. The
// default-constructed value is the system default configuration (the
// paper's "baseline"); the advisor rewrites fields based on workload
// attributes (the paper's "optimized"). advisor::apply_config
// (pattern_rewrites.hpp) is the one place the runner honors them: it turns
// each non-cluster field into an IR -> IR rewrite of the baseline pattern.
#pragma once

#include <string>

#include "io/mpiio.hpp"
#include "sim/faults.hpp"
#include "util/units.hpp"

namespace wasp::advisor {

struct RunConfig {
  // ---- Parallel-file-system configuration (Lustre/GPFS-style) ----
  // The "stripe-size" and "disable-locking" recommendations write these,
  // but no run applies them: the fs model has no byte-range locking, and
  // the PFS stripe size comes from the ClusterSpec.
  util::Bytes stripe_size = util::kMiB;
  /// GPFS ROMIO-style byte-range locking for shared files.
  bool shared_file_locking = true;

  // ---- Middleware configuration ----
  util::Bytes stdio_buffer = 4 * util::kKiB;  ///< setvbuf size
  io::MpiIoConfig mpiio;                      ///< cb_buffer / aggregators
  bool hdf5_chunking = false;
  util::Bytes hdf5_chunk_size = util::kMiB;

  // ---- Data placement ----
  /// Stage the (read-only) input dataset into a node-local tier before the
  /// compute phase (the CosmoFlow case study, §V-A).
  bool preload_input_to_node_local = false;
  /// Create and consume intermediate workflow files on a node-local tier
  /// instead of the PFS (the Montage case study, §V-B).
  bool intermediates_to_node_local = false;
  /// Which node-local tier to use for either redirection.
  std::string node_local_tier = "shm";

  // ---- Data transformation ----
  /// Compress checkpoint/output streams (HCompress-style middleware).
  bool compress_checkpoints = false;
  /// Run the codec on the GPU (the "# gpu/node" attribute, §IV-D.1).
  bool compress_on_gpu = false;
  /// Expected stored/logical ratio (set by the advisor from the declared
  /// data distribution).
  double compression_ratio = 0.5;

  // ---- Scheduling ----
  /// Place workflow tasks on the node that produced their inputs.
  bool locality_aware_placement = false;
  /// Overlap checkpoint writes with the next compute phase.
  bool async_checkpoint_drain = false;

  // ---- Fault injection ----
  /// Deterministic fault schedule for the run (empty = fault-free). The
  /// runner installs it on the Simulation before launching the traced job.
  sim::FaultPlan faults;
};

}  // namespace wasp::advisor
