#pragma once
// The width-generic worker loops behind the Kernels table (kernels.hpp).
//
// Each backend TU instantiates these templates on its LaneWord — they are
// the former bodies of verify_workload / collect_activity_into /
// run_fault_campaign, verbatim in protocol (claim order, cancellation
// checkpoints, obs span/counter names, pooling, lowest-index-first
// mismatch, warm-up rounds, golden-lane bookkeeping), with every literal
// 64 replaced by the backend's lane width.  Keeping them here, included
// ONLY from the per-backend TUs, means the vector instantiations are
// compiled exactly once each, under the right -m flags.
//
// Width-invariance (why every backend returns identical results):
//  - verify: each lane's sample is simulated independently; lane packing
//    only changes which word a sample rides in, never its value stream.
//  - activity: each lane-stream warms up on its chunk's predecessor
//    sample, so it enters its chunk in the state the one serial stream
//    reaches there; the summed counters equal that stream's whatever the
//    chunking, and so whatever the lane width and thread count.
//  - fault: every batch starts from power-on reset and variants are
//    lane-independent, so per-variant counts do not depend on packing
//    (63 vs 255 vs 511 variants per pass) — nor on the cone a batch is
//    simulated on, since outside it every lane equals the golden trace.
//  - probe: reset-per-batch makes even free-running sequential state
//    width-invariant (see backend_probe.hpp).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "kernels.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/util/parallel.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::core::backends {

template <class L>
inline constexpr sim::Backend kBackendOf = sim::Backend::kU64;
#if defined(__AVX2__)
template <>
inline constexpr sim::Backend kBackendOf<sim::LaneAvx2> = sim::Backend::kAvx2;
#endif
#if defined(__AVX512F__)
template <>
inline constexpr sim::Backend kBackendOf<sim::LaneAvx512> =
    sim::Backend::kAvx512;
#endif

/// Pooled verification simulators.  The u64 loop keeps using the
/// dedicated WorkerScratch::batch member (the slot the zero-allocation
/// contract is proven on); wide backends pool through the type-erased
/// lane_batch slot, tagged with its backend so a context that switches
/// backends between evaluations drops the stale simulator.  (The event
/// simulators of the activity loop are per thread: sim::thread_simulator.)
template <class L>
[[nodiscard]] inline sim::BatchSimulatorT<L>& pooled_batch(
    EvalContext::WorkerScratch& ws) {
  if constexpr (std::is_same_v<L, sim::LaneU64>) {
    return ws.batch;
  } else {
    if (ws.lane_batch_backend != kBackendOf<L> || ws.lane_batch == nullptr) {
      ws.lane_batch = std::make_shared<sim::BatchSimulatorT<L>>();
      ws.lane_batch_backend = kBackendOf<L>;
    }
    return *static_cast<sim::BatchSimulatorT<L>*>(ws.lane_batch.get());
  }
}

[[nodiscard]] inline std::size_t clamp_threads(std::size_t requested,
                                               std::size_t num_batches) {
  // 0 = auto: fill the shared TaskPool (max(2, hardware_concurrency) or
  // the PML_POOL_THREADS override) rather than re-deriving the hardware
  // count here; either way never more slots than batches.
  const std::size_t n =
      requested != 0 ? requested : util::TaskPool::instance().size();
  return std::min(n, num_batches);
}

// --- verify -----------------------------------------------------------------

template <class L>
void run_verify_loop(const VerifyJob& job, VerifyResult& result) {
  constexpr std::size_t kLanes = L::kWidth;
  const CircuitWorkload& workload = *job.workload;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  const std::size_t num_samples = workload.feature_codes.size();
  const std::size_t num_batches = (num_samples + kLanes - 1) / kLanes;
  const std::size_t num_threads = clamp_threads(job.num_threads, num_batches);

  std::atomic<std::size_t> next_batch{0};
  std::atomic<std::size_t> mismatch_count{0};
  std::mutex mu;  // guards result.first (mismatches are the rare path)

  if (job.context != nullptr) job.context->ensure_workers(num_threads);

  auto worker = [&](std::size_t slot) {
    PML_OBS_SPAN("verify.worker");
    // Pooled path: rebind this slot's warmed simulator (zero allocation
    // for same-shaped modules); otherwise bind a per-call local.
    sim::BatchSimulatorT<L> local;
    sim::BatchSimulatorT<L>& bsim =
        job.context != nullptr ? pooled_batch<L>(job.context->worker(slot))
                               : local;
    if (bsim.bound()) PML_OBS_COUNT("eval.pool_reuse", 1);
    bsim.rebind(*job.module, job.lv);
    std::uint64_t lane_values[kLanes];
    for (;;) {
      // Publish the rebind's settle, then each finished batch, before any
      // exit.
      PML_OBS_COUNT("sim.batch.lane_words", bsim.take_lane_words());
      if (mismatch_count.load(std::memory_order_relaxed) >=
          job.max_mismatches) {
        return;
      }
      // Cancellation checkpoint between batches: the throw propagates
      // through run_workers (siblings drain, threads join) so a cancel
      // or deadline stops the whole verification promptly.
      if (job.cancel != nullptr) job.cancel->check("verify.batch");
      const std::size_t b = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_batches) return;
      PML_OBS_COUNT("sim.batch.batches", 1);
      const std::size_t begin = b * kLanes;
      const std::size_t count = std::min(kLanes, num_samples - begin);
      PML_OBS_COUNT("sim.batch.lanes_active", count);
      PML_OBS_COUNT("sim.batch.lane_capacity", kLanes);
      for (std::size_t j = 0; j < ports.size(); ++j) {
        for (std::size_t lane = 0; lane < count; ++lane) {
          lane_values[lane] = static_cast<std::uint64_t>(
              workload.feature_codes[begin + lane][j]);
        }
        bsim.set_port(*ports[j], lane_values, count);
      }
      if (job.sequential) {
        for (int c = 0; c < job.cycles_per_inference; ++c) bsim.step();
      } else {
        bsim.propagate();
      }
      for (std::size_t lane = 0; lane < count; ++lane) {
        const int predicted =
            static_cast<int>(bsim.port_unsigned(*job.class_port, lane));
        const std::size_t s = begin + lane;
        if (predicted != workload.expected_class[s]) {
          mismatch_count.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(mu);
          if (!result.first.has_value() || s < result.first->sample) {
            result.first =
                VerifyMismatch{s, predicted, workload.expected_class[s]};
          }
        }
      }
    }
  };

  util::run_workers(num_threads, next_batch, num_batches, worker,
                    "verify.worker");

  result.mismatches = mismatch_count.load();
}

// --- activity ---------------------------------------------------------------

/// Propagation windows per replay round: the input settle plus one per
/// clock edge (a sequential circuit clocked 0 times runs none).
[[nodiscard]] inline std::size_t windows_per_round(bool sequential,
                                                   int cycles_per_inference) {
  if (!sequential) return 1;
  return cycles_per_inference > 0
             ? static_cast<std::size_t>(cycles_per_inference) + 1
             : 0;
}

/// One worker's claim: windows [first, last) of batch `batch`'s replay
/// (chunks [b*kLanes, ...); round r's windows are [r*W, (r+1)*W) with W =
/// windows_per_round) through its own BatchEventSimulator, counts merged
/// into `local`.  Windows before `first` are reached in zero delay and
/// uncounted, so the ranges of one batch count together what the whole
/// batch counts.
template <class L>
void run_activity_batch(sim::BatchEventSimulatorT<L>& bsim, std::size_t batch,
                        std::size_t first, std::size_t last,
                        std::size_t num_chunks, std::size_t chunk_samples,
                        std::size_t num_samples, bool sequential,
                        int cycles_per_inference,
                        const std::vector<std::vector<std::int64_t>>& samples,
                        const std::vector<const netlist::Port*>& ports,
                        sim::ActivityStats& local) {
  constexpr std::size_t kLanes = L::kWidth;
  const std::size_t chunk_begin = batch * kLanes;
  const std::size_t lanes = std::min(kLanes, num_chunks - chunk_begin);
  const std::size_t per_round =
      windows_per_round(sequential, cycles_per_inference);
  std::uint64_t lane_values[kLanes];
  std::uint64_t mask[L::kChunks];

  const auto lane_begin = [&](std::size_t lane) {
    return (chunk_begin + lane) * chunk_samples;
  };
  const auto lane_len = [&](std::size_t lane) {
    return std::min(chunk_samples, num_samples - lane_begin(lane));  // >= 1
  };
  // Sample index for chunk-lane L at round r, clamped to the chunk's last
  // sample once the (ragged final) chunk is exhausted: holding the inputs
  // produces no events in that lane, and the count mask excludes it.
  const auto sample_at = [&](std::size_t lane, std::size_t r) {
    return lane_begin(lane) + std::min(r, lane_len(lane) - 1);
  };
  // Warm-up sample: the chunk's predecessor, so the lane enters its chunk
  // in the state the serial stream reaches there (the first chunk warms
  // on sample 0, as the serial stream does).
  const auto warm_sample = [&](std::size_t lane) {
    const std::size_t begin = lane_begin(lane);
    return begin == 0 ? std::size_t{0} : begin - 1;
  };

  const auto stage = [&](auto&& sample_of) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        lane_values[lane] =
            static_cast<std::uint64_t>(samples[sample_of(lane)][j]);
      }
      bsim.set_port(*ports[j], lane_values, lanes);
    }
  };

  bsim.reset();
  // Uncounted warm-up on each chunk's predecessor sample; zero delay
  // reaches the state the delay-accurate round would (see warm_up).
  stage(warm_sample);
  bsim.warm_up(sequential ? cycles_per_inference : 0);

  // Replay rounds up to the one holding window `last - 1`; chunk 0 of the
  // batch is always the longest.  Rounds wholly before `first` only
  // catch up.
  const std::size_t rounds = lane_len(0);
  const auto in_round = [&](std::size_t w, std::size_t base) {
    return static_cast<int>(std::min(w - std::min(w, base), per_round));
  };
  for (std::size_t r = 0; r < rounds && r * per_round < last; ++r) {
    std::fill(mask, mask + L::kChunks, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (r < lane_len(lane)) mask[sim::lane_chunk(lane)] |= sim::lane_bit(lane);
    }
    bsim.set_count_mask_chunks(mask);
    stage([&](std::size_t lane) { return sample_at(lane, r); });
    const std::size_t base = r * per_round;
    bsim.run_windows(in_round(first, base), in_round(last, base));
  }
  local.accumulate(bsim.activity());
}

template <class L>
void run_activity_loop(const ActivityJob& job, sim::ActivityStats& out) {
  constexpr std::size_t kLanes = L::kWidth;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  const std::size_t n = job.num_samples;
  const std::size_t chunk = job.chunk_samples;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  const std::size_t num_batches = (num_chunks + kLanes - 1) / kLanes;
  // Fewer batches than workers: split each batch's windows into ranges
  // (batch 0 has the most, rounds x windows_per_round) so the workers
  // share them.  With at least as many batches as workers each batch is
  // one range.
  const std::size_t per_round =
      windows_per_round(job.sequential, job.cycles_per_inference);
  const auto batch_windows = [&](std::size_t b) {
    return std::min(chunk, n - b * kLanes * chunk) * per_round;
  };
  const std::size_t ranges =
      num_batches >= job.num_threads
          ? 1
          : std::min((job.num_threads + num_batches - 1) / num_batches,
                     std::max<std::size_t>(batch_windows(0), 1));
  const std::size_t num_units = num_batches * ranges;
  const std::size_t num_threads = clamp_threads(job.num_threads, num_units);

  std::atomic<std::size_t> next_unit{0};
  // One stats slot per worker; summed after the join.  Addition of
  // integer counts is commutative, so the total is independent of which
  // worker claims which unit.  Pooled slots live in the context (reused
  // capacity); otherwise a per-call vector.  ActivityStats is plain
  // scalar counters, so the slots are shared by every backend.
  const std::size_t nets = job.module->num_nets();
  std::vector<sim::ActivityStats> local_partials;
  if (job.context != nullptr) {
    job.context->ensure_workers(num_threads);
  } else {
    local_partials.resize(num_threads);
  }
  auto partial = [&](std::size_t slot) -> sim::ActivityStats& {
    return job.context != nullptr ? job.context->worker(slot).activity
                                  : local_partials[slot];
  };
  for (std::size_t t = 0; t < num_threads; ++t) {
    sim::ActivityStats& p = partial(t);
    p.net_toggles.assign(nets, 0);
    p.net_functional.assign(nets, 0);
    p.dff_clock_events = 0;
    p.cycles = 0;
  }

  auto worker = [&](std::size_t slot) {
    PML_OBS_SPAN("activity.worker");
    sim::ActivityStats& local = partial(slot);
    // The running thread's simulator: zero allocation once it has seen a
    // same-shaped module.  Nothing below fans out while it is in use.
    sim::BatchEventSimulatorT<L>& bsim = sim::thread_simulator<L>();
    bsim.rebind(*job.module, *job.lib, job.time_quantum_ms, job.lv);
    for (;;) {
      // Cancellation checkpoint between units (see verify loop).
      if (job.cancel != nullptr) job.cancel->check("activity.batch");
      const std::size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (u >= num_units) return;
      const std::size_t b = u / ranges;
      const std::size_t i = u % ranges;
      const std::size_t windows = batch_windows(b);
      const std::size_t first = i * windows / ranges;
      const std::size_t last = (i + 1) * windows / ranges;
      if (i == 0) {  // batch counters: once per batch, whatever the split
        PML_OBS_COUNT("sim.batch_event.batches", 1);
        PML_OBS_COUNT("sim.batch_event.lanes_active",
                      std::min(kLanes, num_chunks - b * kLanes));
        PML_OBS_COUNT("sim.batch_event.lane_capacity", kLanes);
      } else if (first == last) {
        continue;  // a short final batch has fewer windows than ranges
      }
      run_activity_batch<L>(bsim, b, first, last, num_chunks, chunk, n,
                            job.sequential, job.cycles_per_inference,
                            *job.samples, ports, local);
    }
  };

  util::run_workers(num_threads, next_unit, num_units, worker,
                    "activity.worker");

  out.net_toggles.assign(nets, 0);
  out.net_functional.assign(nets, 0);
  out.dff_clock_events = 0;
  out.cycles = 0;
  for (std::size_t t = 0; t < num_threads; ++t) out.accumulate(partial(t));
}

// --- fault campaign ---------------------------------------------------------

/// The campaign protocol of every variant batch, whose settles line up
/// one to one with the golden trace rows: power on and settle (row 0);
/// then per sample, drive the feature ports and settle
/// `settles_per_sample` times, clocking before every settle but the
/// first.  This is exactly the reset + set_port + step() sequence of the
/// scalar oracle.  `settle(row)` must propagate `sim`; `sample_done(i)`
/// runs after sample i's last settle.
template <class Sim, class Settle, class SampleDone>
void run_campaign_protocol(Sim& sim, const FaultJob& job, Settle&& settle,
                           SampleDone&& sample_done) {
  const CircuitWorkload& workload = *job.workload;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  std::size_t row = 0;
  sim.power_on();
  settle(row++);
  for (std::size_t i = 0; i < job.num_samples; ++i) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      sim.set_port_broadcast(
          *ports[j], static_cast<std::uint64_t>(workload.feature_codes[i][j]));
    }
    for (std::size_t s = 0; s < job.settles_per_sample; ++s) {
      if (s > 0) sim.clock();
      settle(row++);
    }
    sample_done(i);
  }
}

template <class L>
void run_fault_loop(const FaultJob& job, FaultCampaignResult& result) {
  // Lane 0 carries the golden reference; the driver packed at most
  // kLanes - 1 variants per batch (63 scalar, 255 AVX2, 511 AVX-512).
  constexpr std::size_t kLanes = L::kWidth;
  const std::vector<FaultBatch>& batches = *job.batches;
  const std::vector<FaultSet>& fault_sets = *job.fault_sets;
  const GoldenTrace& trace = *job.trace;
  const std::size_t num_threads = clamp_threads(job.num_threads,
                                                batches.size());

  std::atomic<std::size_t> next_batch{0};

  // Each batch writes disjoint result slots (its own variants and its own
  // golden count), so workers need no locking on results.
  auto worker = [&](std::size_t /*thread_index*/) {
    PML_OBS_SPAN("fault.worker");
    sim::BatchSimulatorT<L> bsim(*job.module, job.lv);
    std::size_t miscount[kLanes];
    for (;;) {
      // Publish the constructor's settle, then each finished batch.
      PML_OBS_COUNT("sim.batch_fault.lane_words", bsim.take_lane_words());
      // Cancellation checkpoint between variant batches: a long campaign
      // can be abandoned without waiting for the full sweep.
      if (job.cancel != nullptr) job.cancel->check("fault.batch");
      const std::size_t b = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= batches.size()) return;
      const FaultBatch& batch = batches[b];
      PML_OBS_COUNT("fault.lanes_active", batch.count + 1);
      PML_OBS_COUNT("fault.lane_capacity", kLanes);

      bsim.clear_faults();
      bsim.restrict_to(batch.comb, batch.dffs);
      for (std::size_t v = 0; v < batch.count; ++v) {
        for (const StuckAtFault& f : fault_sets[batch.begin + v].faults) {
          bsim.set_fault(f.net, v + 1, f.stuck_value);
        }
      }
      // Outside the cone every lane holds the fault-free value: drive the
      // boundary nets the cone reads from the golden trace, broadcasting
      // only the bits that changed since the previous settle (all zero at
      // power-on).
      const auto settle = [&](std::size_t row) {
        const std::uint64_t* const cur = trace.rows.data() + row * trace.words;
        for (const auto& [word, mask] : batch.feed) {
          const std::uint64_t prev = row == 0 ? 0 : cur[word - trace.words];
          for (std::uint64_t diff = (cur[word] ^ prev) & mask; diff != 0;
               diff &= diff - 1) {
            const auto bit = static_cast<unsigned>(std::countr_zero(diff));
            bsim.set_net_broadcast(trace.nets[word * 64 + bit],
                                   ((cur[word] >> bit) & 1u) != 0);
          }
        }
        bsim.propagate();
      };
      // Read the class port a word at a time: one miss mask per 64 lanes,
      // then one count per set lane (lanes past the batch masked off).
      const std::size_t live = batch.count + 1;
      std::fill(miscount, miscount + live, std::size_t{0});
      run_campaign_protocol(bsim, job, settle, [&](std::size_t i) {
        const int expected = job.workload->expected_class[i];
        for (std::size_t c = 0; c * 64 < live; ++c) {
          std::uint64_t miss =
              class_miss_lanes(bsim, *job.class_port, c, expected);
          if (live - c * 64 < 64) {
            miss &= (std::uint64_t{1} << (live - c * 64)) - 1;
          }
          for (; miss != 0; miss &= miss - 1) {
            ++miscount[c * 64 +
                       static_cast<std::size_t>(std::countr_zero(miss))];
          }
        }
      });
      for (std::size_t v = 0; v < batch.count; ++v) {
        result.variants[batch.begin + v].misclassified = miscount[v + 1];
      }
      job.golden_counts[b] = miscount[0];
    }
  };

  util::run_workers(num_threads, next_batch, batches.size(), worker,
                    "fault.worker");
}

// --- probe ------------------------------------------------------------------

template <class L>
void run_probe_loop(const ProbeJob& job, BatchProbeResult& result) {
  constexpr std::size_t kLanes = L::kWidth;
  const std::vector<std::vector<std::int64_t>>& samples = *job.samples;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  const std::size_t num_samples = samples.size();
  const std::size_t num_batches = (num_samples + kLanes - 1) / kLanes;

  result.lanes = kLanes;
  result.class_values.assign(num_samples, 0);
  result.net_ones.assign(job.module->num_nets(), 0);

  sim::BatchSimulatorT<L> bsim(*job.module, job.lv);
  std::uint64_t lane_values[kLanes];
  std::uint64_t active[L::kChunks];
  for (std::size_t b = 0; b < num_batches; ++b) {
    if (job.cancel != nullptr) job.cancel->check("probe.batch");
    const std::size_t begin = b * kLanes;
    const std::size_t count = std::min(kLanes, num_samples - begin);
    // Reset per batch: every sample starts from power-on state, so the
    // outputs and per-net counts cannot depend on lane packing (see
    // backend_probe.hpp).
    bsim.reset();
    for (std::size_t j = 0; j < ports.size(); ++j) {
      for (std::size_t lane = 0; lane < count; ++lane) {
        lane_values[lane] =
            static_cast<std::uint64_t>(samples[begin + lane][j]);
      }
      bsim.set_port(*ports[j], lane_values, count);
    }
    if (job.sequential) {
      for (int c = 0; c < job.cycles_per_inference; ++c) bsim.step();
    } else {
      bsim.propagate();
    }
    std::fill(active, active + L::kChunks, 0);
    for (std::size_t lane = 0; lane < count; ++lane) {
      result.class_values[begin + lane] =
          bsim.port_unsigned(*job.class_port, lane);
      active[sim::lane_chunk(lane)] |= sim::lane_bit(lane);
    }
    for (std::size_t net = 0; net < result.net_ones.size(); ++net) {
      for (std::size_t c = 0; c < L::kChunks; ++c) {
        result.net_ones[net] += static_cast<std::uint64_t>(
            std::popcount(bsim.net_chunk(net, c) & active[c]));
      }
    }
  }
  PML_OBS_COUNT("sim.batch.lane_words", bsim.take_lane_words());
}

/// Build one backend's kernel table from the templated loops.
template <class L>
[[nodiscard]] constexpr Kernels make_kernels() {
  Kernels k;
  k.backend = kBackendOf<L>;
  k.lanes = L::kWidth;
  k.verify = &run_verify_loop<L>;
  k.activity = &run_activity_loop<L>;
  k.fault = &run_fault_loop<L>;
  k.probe = &run_probe_loop<L>;
  return k;
}

}  // namespace pml::core::backends
