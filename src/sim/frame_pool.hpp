// Size-bucketed freelist arena for coroutine Task frames.
//
// Every simulated activity is a short-lived Task<T> coroutine, so a run
// allocates hundreds of thousands of frames in a handful of distinct sizes.
// The pool routes promise_type::operator new/delete (sim/task.hpp) through
// per-thread freelists of canonical-size blocks instead of the global
// allocator:
//
//   - Request sizes round up to 64-byte buckets; a 16-byte header in front
//     of the frame records the block's canonical size, so deallocation
//     needs no size argument (compilers differ on whether coroutine frames
//     call the sized delete).
//   - Blocks are plain ::operator new allocations of canonical sizes and
//     carry no thread affinity: a frame freed on a different thread from
//     the one that allocated it simply joins the freeing thread's cache,
//     so cross-thread Task handoff is safe with zero synchronization.
//   - Each thread caches at most kCacheBytesPerBucket per size bucket;
//     beyond that (and above kMaxPooled) frees go straight to the heap.
//
// Pool traffic feeds engine.frame_pool.{hits,misses,bytes} in the obs
// registry through thread-owned cells; thread_stats() exposes the calling
// thread's exact counts, its hits, misses and bytes read from those cells.
// Allocation never affects simulation ordering — determinism is untouched
// by cache state.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wasp::sim {

class FramePool {
 public:
  /// Prefix on every block holding the canonical block size; 16 bytes keeps
  /// the frame itself aligned for max_align_t.
  static constexpr std::size_t kHeaderSize = 16;
  static constexpr std::size_t kBucketStep = 64;
  /// Largest pooled block (header included); bigger frames go to the heap.
  static constexpr std::size_t kMaxPooled = 4096;
  static constexpr std::size_t kBucketCount = kMaxPooled / kBucketStep;
  /// Per-thread cache cap per size bucket.
  static constexpr std::size_t kCacheBytesPerBucket = std::size_t{1} << 20;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p) noexcept;

  /// Calling thread's pool traffic (monotonic except cached_bytes).
  struct ThreadStats {
    std::uint64_t hits = 0;          ///< served from the thread cache
    std::uint64_t misses = 0;        ///< pooled size, fell through to new
    std::uint64_t bytes = 0;         ///< block bytes taken from the heap
    std::uint64_t oversize = 0;      ///< larger than kMaxPooled
    std::uint64_t returns = 0;       ///< blocks parked back in the cache
    std::uint64_t evictions = 0;     ///< cache-full frees sent to the heap
    std::uint64_t cached_bytes = 0;  ///< currently parked on this thread
  };
  static ThreadStats thread_stats() noexcept;

  /// Release every block cached by the calling thread back to the heap.
  static void trim_thread_cache() noexcept;
};

}  // namespace wasp::sim
