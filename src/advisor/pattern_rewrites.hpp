// What-if rewrites over the pattern IR (§IV-D).
//
// Each of the advisor's configuration changes — preload inputs to a
// node-local tier, redirect intermediates to shm, enable HDF5 chunking,
// grow the STDIO buffer, compress or asynchronously drain checkpoints —
// is a pure IR -> IR transform over a baseline JobPattern, named by a
// Rewrite: the `wasp_pattern whatif --<name> <args...>` flag as data. One
// table maps every name to its arguments and its transform, in the
// canonical order RuleEngine::configure applies them. Evaluating a
// recommendation is then: compile the baseline once, rewrite, replay,
// compare profiles. The rewrites never re-derive workload structure:
// whatever a rewrite needs to know about the workload, the compiler
// records in the pattern's meta (DESIGN.md §11), and a rewrite whose meta
// the pattern lacks is a no-op.
#pragma once

#include <string>
#include <vector>

#include "pattern/pattern.hpp"

namespace wasp::runtime {
class Simulation;
}

namespace wasp::advisor {

/// One named rewrite and its arguments, spelled as on the command line:
///   transfer SIZE            rescale constant transfers (set_transfer_size)
///   interface posix|stdio    move plain open/IO chains (set_interface)
///   stdio-buffer SIZE        setvbuf size of every lane group and the DAG
///   hdf5-chunk SIZE          HDF5 dataset chunk size (0 = contiguous)
///   mpiio CB_BUFFER AGGS     ROMIO cb_buffer_size and aggregators per node
///   redirect FROM TO         rewrite path prefixes
///   locality                 DAG locality-aware placement, local copies
///   compress RATIO cpu|gpu   checkpoint compression (HCompress-style)
///   async-drain TIER         checkpoints on a fast tier, drained to the PFS
///   intermediates TIER       workflow intermediates on a node-local tier
///   preload TIER             stage inputs into a node-local tier
/// SIZE is a byte count ("1048576") or a table size ("16MB"). TIER names a
/// node-local tier of the cluster ("shm", "tmp"); async-drain prefers the
/// cluster's shared burst buffer when it has one.
struct Rewrite {
  std::string name;
  std::vector<std::string> args;

  bool operator==(const Rewrite&) const = default;
};

/// Validate `rw` against the table: throws util::SimError naming the
/// problem on an unknown name, a wrong arity or a malformed argument.
/// (Tier names are resolved, and checked, when the rewrite is applied.)
void check_rewrite(const Rewrite& rw);

/// Number of arguments rewrite `name` takes, or -1 when no rewrite has
/// that name.
int rewrite_arity(const std::string& name);

/// Position of rewrite `name` in the table's canonical order.
std::size_t rewrite_rank(const std::string& name);

/// Apply one rewrite to `pat`. Tier mounts come from `sim`; a tier is
/// resolved only when the pattern carries the rewrite's meta, so a cluster
/// without the tier still runs a pattern the rewrite does not touch.
/// Throws util::SimError on a bad rewrite or an unknown tier.
void apply_rewrite(pattern::JobPattern& pat, const Rewrite& rw,
                   runtime::Simulation& sim);

/// The rewrites as `wasp_pattern whatif` flags: "--name arg ...", space
/// separated, in list order.
std::string to_flags(const std::vector<Rewrite>& rewrites);

/// What-if: rescale every constant-size transfer to `transfer`, keeping
/// the bytes moved identical (count = max(size * count / transfer, 1)).
/// Ops whose size or count is a computed expression are left untouched.
/// Returns the number of ops rewritten.
int set_transfer_size(pattern::JobPattern& pat, util::Bytes transfer);

/// What-if: move plain open/close/read/write/seek/seek_batch chains to
/// `layer` (posix <-> stdio). Handles also used by layer-pinned ops
/// (pread/pwrite, scattered reads, wrap seeks, paced reads, hdf5 or
/// compressed opens) keep their original layer. Returns the number of ops
/// rewritten.
int set_interface(pattern::JobPattern& pat, pattern::Layer layer);

}  // namespace wasp::advisor
