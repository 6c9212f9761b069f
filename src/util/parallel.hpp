// Shared-memory parallel-for on the persistent global ThreadPool.
//
// The simulator is embarrassingly parallel at two grains: independent chips
// within one switch stage, and independent trials in Monte-Carlo sweeps.
// parallel_for covers both without dragging in OpenMP.  Calls run on
// ThreadPool::global() — workers are started once per process and reused, so
// thread creation is no longer priced into every sweep.  Exceptions thrown by
// the body are captured and rethrown on the caller after the range finishes.
//
// Batch entry points (route_batch, nearsorted_batch) size their chunks by
// work through parallel_for_work: a dispatch with less work than one chunk
// runs inline on the caller and never touches the pool.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.hpp"

namespace pcs {

/// Run body(i) for every i in [begin, end), with up to `threads` threads
/// (caller included) claiming chunks of `grain` indices from the global pool.
/// With threads <= 1, or a range smaller than 2, runs inline on the caller.
/// grain == 0 picks a heuristic chunk size.  The body must be safe to call
/// concurrently for distinct i.  The first exception thrown by any body is
/// rethrown on the calling thread after the whole range has run.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = default_thread_count(),
                  std::size_t grain = 0);

/// Chunked variant: body receives whole [lo, hi) ranges, so per-thread
/// scratch (lane buffers, RNGs) is set up once per chunk instead of per index.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t threads = default_thread_count(),
                         std::size_t grain = 0);

/// Smallest work worth one pool chunk, in wire-patterns (a batch of p
/// patterns on an n-input switch is p * n).  Chosen by bench_threads'
/// small-dispatch rows on a 4-vCPU AVX-512 host (EXPERIMENTS P2): at 2^14,
/// sparse Revsort(256 -> 192) dispatches of 96-128 patterns ran slower on
/// four threads than on one; at 2^16, dense ones of 256-512 patterns gave
/// up much of the pool's speed-up.
inline constexpr std::size_t kMinChunkWork = std::size_t{1} << 15;

/// Indices per chunk for `count` items of `item_work` each: the default
/// eight chunks per thread, but never less than kMinChunkWork of work per
/// chunk.  A result >= count means the batch runs inline.
std::size_t work_grain(std::size_t count, std::size_t item_work,
                       std::size_t threads = default_thread_count());

/// parallel_for_chunks over [0, count) with work_grain's chunk size.  A
/// batch smaller than one chunk runs body(0, count) inline on the caller
/// before any pool job is built (and without wrapping `body` in a
/// std::function).
template <class Body>
void parallel_for_work(std::size_t count, std::size_t item_work,
                       const Body& body,
                       std::size_t threads = default_thread_count()) {
  const std::size_t grain = work_grain(count, item_work, threads);
  if (grain >= count) {
    if (count > 0) body(std::size_t{0}, count);
    return;
  }
  parallel_for_chunks(
      0, count, [&body](std::size_t lo, std::size_t hi) { body(lo, hi); },
      threads, grain);
}

/// Process-wide clamp on the parallelism of every parallel_for /
/// parallel_for_chunks call (the per-call `threads` argument is capped to
/// this).  0 -- the default -- means no clamp.  Set to 1 for byte-
/// deterministic execution order (trace capture, CI determinism diffs):
/// every range then runs inline on the caller in index order.
void set_max_parallelism(std::size_t threads) noexcept;
std::size_t max_parallelism() noexcept;

}  // namespace pcs
