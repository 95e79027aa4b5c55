#pragma once
// Shared worker-fan-out runner for the three batch loops
// (src/core/src/backends/batch_loops.hpp: verify_workload,
// collect_activity, run_fault_campaign).
//
// All of them share one shape: an atomic claim counter hands out batches,
// each worker owns per-slot state (usually a pooled simulator) and loops
// claiming until the queue is exhausted, and a worker that throws must
// stop its siblings — the drain below — and surface the first exception
// to the caller.  This header is that shape, written once.  A fan-out
// with one work item per slot needs no claim queue and calls
// TaskPool::run_group directly (quant::search_min_precision).
//
// Since the TaskPool landed, run_workers is a thin shim over the shared
// process-wide pool (util::TaskPool) instead of spawning a fresh set of
// std::threads per call: slots become pool tasks, the calling thread
// claims slots alongside the workers, and nested fan-outs compose
// without oversubscribing cores.  The contract is unchanged except that
// slots may run on any pool thread (slot 0 is no longer pinned to the
// caller when num_threads > 1; per-slot state keeps working because it
// is indexed by slot, not by thread).

#include <atomic>
#include <cstddef>

#include "pml/util/task_pool.hpp"

namespace pml::util {

/// Run `worker(slot)` for slot = 0..num_threads-1 across the shared
/// TaskPool (`num_threads <= 1` runs inline on the caller with no pool
/// touch — the zero-allocation path).  Workers claim work from `queue`
/// themselves; when one throws, `queue` is stored to `drain_to` so
/// siblings stop claiming, every started slot is waited out, and the
/// first exception is rethrown.  Submission failure (e.g. allocation
/// failure queueing the tickets) likewise drains, quiesces, and
/// rethrows.  `label` names the per-task trace tracks.
template <typename Worker>
void run_workers(std::size_t num_threads, std::atomic<std::size_t>& queue,
                 std::size_t drain_to, Worker&& worker,
                 const char* label = "worker") {
  if (num_threads <= 1) {
    worker(std::size_t{0});
    return;
  }
  auto guarded = [&](std::size_t slot) {
    try {
      worker(slot);
    } catch (...) {
      queue.store(drain_to, std::memory_order_relaxed);
      throw;  // TaskPool captures the first exception and rethrows it
    }
  };
  try {
    TaskPool::instance().run_group(num_threads, label, guarded);
  } catch (...) {
    queue.store(drain_to, std::memory_order_relaxed);  // submission failure
    throw;
  }
}

}  // namespace pml::util
