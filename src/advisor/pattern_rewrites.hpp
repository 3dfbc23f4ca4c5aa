// What-if rewrites over the pattern IR (§IV-D).
//
// Each of the advisor's configuration changes — preload inputs to a
// node-local tier, redirect intermediates to shm, enable HDF5 chunking,
// grow the STDIO buffer, compress or asynchronously drain checkpoints —
// is expressed here as a pure IR -> IR transform over a baseline
// JobPattern. Compilers emit only the baseline; apply_config() turns a
// RunConfig into the sequence of rewrites. Evaluating a recommendation is
// then: compile the baseline once, rewrite, replay, compare profiles. The
// rewrites never re-derive workload structure: whatever a knob needs to
// know about the workload, the compiler records in the pattern's meta.
#pragma once

#include <string>

#include "advisor/config.hpp"
#include "pattern/pattern.hpp"

namespace wasp::runtime {
class Simulation;
}

namespace wasp::advisor {

/// §IV-D.1: stage the inputs a compiler described in the pattern's meta
/// ("preload.*" keys: source dir, file suffix and count, nodes, ranks per
/// node, file size, copy chunk, paced-copy floor) into
/// `tier_mount + "/" + pat.name + "/"`. Every path under the source dir is
/// retargeted to the node-local copies, and an MPIFileUtils-style paced
/// parallel copy loop (plus a barrier) is prepended to the first phase of
/// the first lane group. Returns false when the pattern carries no preload
/// metadata.
bool apply_preload(pattern::JobPattern& pat, const std::string& tier_mount);

/// §IV-D.4 (shm redirect): rewrite every path that starts with `from` to
/// start with `to` — op path templates and size_of("...") references
/// inside expressions alike.
void redirect_prefix(pattern::JobPattern& pat, const std::string& from,
                     const std::string& to);

/// §IV-D.3: set the HDF5 dataset chunk size of every lane group (0 turns
/// chunking off and restores the deep object-header walk per open).
void set_hdf5_chunking(pattern::JobPattern& pat, util::Bytes chunk_size);

/// §IV-D.5: set the STDIO buffer of every lane group and of the DAG.
void set_stdio_buffer(pattern::JobPattern& pat, util::Bytes buffer);

/// Configure a baseline pattern as `cfg` says: the one reader of
/// RunConfig's middleware, placement, transformation and scheduling knobs.
/// Middleware settings go on every lane group; each enabled placement,
/// compression or drain knob applies its rewrite, driven by the meta the
/// compiler recorded ("preload.*", "checkpoint.*", "intermediates.*",
/// "locality.*"; DESIGN.md §11 maps knob -> rewrite -> meta keys). Tier
/// mounts come from `sim`. A knob whose meta the pattern does not carry is
/// a no-op.
void apply_config(pattern::JobPattern& pat, const RunConfig& cfg,
                  runtime::Simulation& sim);

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
