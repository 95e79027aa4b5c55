#pragma once
// Deterministic cross-backend probe: run a feature workload through the
// zero-delay batch simulator of one SIMD backend with a reset-per-batch
// protocol and report every per-sample class output plus, per net, how
// many samples end their inference with the net at 1.
//
// Unlike verify_workload (which free-runs sequential designs across
// batches, making per-sample outputs depend on how samples are packed
// into lanes), the probe resets the simulator before every batch, so its
// outputs and per-net counts are *width-invariant by construction*: every
// backend — u64, AVX2, AVX-512 — must produce exactly equal
// BatchProbeResults on ANY netlist, including random sequential ones.
// That makes exact equality the assertion of the backend-equivalence
// suite (tests/test_sim_backend.cpp); it is a testing/diagnostic vehicle,
// not a production evaluation path.

#include <cstdint>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

struct BatchProbeResult {
  /// Lane width of the backend that produced this result (64/256/512).
  /// The only field allowed to differ across backends.
  std::size_t lanes = 0;
  /// Raw unsigned "class" output per sample, in workload order.
  std::vector<std::uint64_t> class_values;
  /// Per net: the samples whose final settled value of the net is 1
  /// (reset-per-batch protocol => equal across backends, bit for bit).
  std::vector<std::uint64_t> net_ones;
};

/// Run `samples` (sample-major feature codes, ports x0..x{n-1}) through
/// the requested backend's BatchSimulator and collect class outputs and
/// per-net counts.  `backend` goes through sim::resolve_backend, so kAuto
/// honors PML_SIM_BACKEND and an unavailable concrete backend throws.
[[nodiscard]] BatchProbeResult probe_batch_backend(
    const netlist::Module& module, int cycles_per_inference,
    const std::vector<std::vector<std::int64_t>>& samples,
    sim::Backend backend = sim::Backend::kAuto);

}  // namespace pml::core
