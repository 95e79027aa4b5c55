#pragma once
// Type-erased kernel table for the SIMD lane-word backends.
//
// The core drivers (verify_workload, collect_activity_into,
// run_fault_campaign, probe_batch_backend) keep all validation, port
// resolution, and levelization width-agnostic, then package the prepared
// inputs into a Job struct and call through this table.  Each backend TU
// (backend_u64.cpp always; backend_avx2.cpp / backend_avx512.cpp compiled
// with the matching -m flags) instantiates the shared templated worker
// loops from batch_loops.hpp on its LaneWord and exposes them as plain
// function pointers — so no TU without the right -m flag ever names a
// vector type, and the compiler is free to use vector instructions
// everywhere inside a backend TU.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/core/backend_probe.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/cancellation.hpp"

namespace pml::core::backends {

/// Inputs shared by every kernel: the module, its levelization, the
/// resolved feature ports, and the clocking protocol.
struct JobBase {
  const netlist::Module* module = nullptr;
  std::shared_ptr<const sim::Levelization> lv;
  const std::vector<const netlist::Port*>* ports = nullptr;
  bool sequential = false;
  int cycles_per_inference = 0;
  const util::CancellationToken* cancel = nullptr;
};

struct VerifyJob : JobBase {
  const CircuitWorkload* workload = nullptr;
  const netlist::Port* class_port = nullptr;
  std::size_t max_mismatches = 0;
  /// Raw thread request (0 = the TaskPool's width); the kernel clamps to
  /// its own batch count, which depends on the backend's lane width.
  std::size_t num_threads = 0;
  EvalContext* context = nullptr;
};

struct ActivityJob : JobBase {
  const cells::CellLibrary* lib = nullptr;
  double time_quantum_ms = 0;
  const std::vector<std::vector<std::int64_t>>* samples = nullptr;
  std::size_t num_samples = 0;
  /// Contiguous samples per lane-stream, derived by collect_activity.
  std::size_t chunk_samples = 0;
  /// Resolved worker count (never 0); the kernel clamps it to its batch
  /// count.
  std::size_t num_threads = 0;
  EvalContext* context = nullptr;
};

/// One variant batch of a fault campaign that can reach `class`, with the
/// cone it is simulated on (see fault_campaign.cpp).
struct FaultBatch {
  std::size_t begin = 0;  ///< variants [begin, begin + count)
  std::size_t count = 0;
  std::vector<std::uint32_t> comb;  ///< cone comb cells, levelized order
  std::vector<std::uint32_t> dffs;  ///< cone DFFs
  /// (trace word, column mask) pairs: the boundary nets and out-of-cone
  /// class bits this batch drives from the golden trace.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> feed;
};

/// The fault-free value of selected nets after every settle of the
/// campaign protocol (run_campaign_protocol), bit-packed: row r, column c
/// is nets[c] after settle r.  Row 0 is the power-on settle, row
/// 1 + i * settles_per_sample + s sample i's settle s.
struct GoldenTrace {
  std::vector<netlist::NetId> nets;
  std::size_t words = 0;  ///< uint64 words per row
  std::vector<std::uint64_t> rows;
};

struct FaultJob : JobBase {
  const CircuitWorkload* workload = nullptr;
  const netlist::Port* class_port = nullptr;
  const std::vector<FaultSet>* fault_sets = nullptr;
  std::size_t num_samples = 0;
  /// Propagates per sample: 1 combinational, cycles_per_inference + 1
  /// sequential (the settle before the first clock edge, then one per
  /// edge), 0 for a sequential circuit clocked 0 times.
  std::size_t settles_per_sample = 0;
  std::size_t num_threads = 0;
  /// Batches to simulate, in claim order; never empty.
  const std::vector<FaultBatch>* batches = nullptr;
  const GoldenTrace* trace = nullptr;
  /// Out: lane 0's misclassification count, one slot per batch.
  std::size_t* golden_counts = nullptr;
};

/// Lanes [64c, 64c + 64) of `sim` whose class port reads other than
/// `expected`, as static_cast<int>(port_unsigned(port, lane)) != expected
/// compares them: only the port's low 32 bits reach the int, and a class
/// the port cannot represent differs in every lane.
template <class Sim>
[[nodiscard]] std::uint64_t class_miss_lanes(const Sim& sim,
                                             const netlist::Port& port,
                                             std::size_t c, int expected) {
  const std::size_t bits = std::min<std::size_t>(port.nets.size(), 32);
  const auto want = static_cast<std::uint32_t>(expected);
  if (bits < 32 && (want >> bits) != 0) return ~std::uint64_t{0};
  std::uint64_t miss = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    miss |= sim.net_chunk(port.nets[i], c) ^
            (std::uint64_t{0} - ((want >> i) & 1u));
  }
  return miss;
}

struct ProbeJob : JobBase {
  const std::vector<std::vector<std::int64_t>>* samples = nullptr;
  const netlist::Port* class_port = nullptr;
};

/// One backend's kernel table.  `lanes` is the batch width the kernels
/// shard work by (64 / 256 / 512).
struct Kernels {
  sim::Backend backend = sim::Backend::kU64;
  std::size_t lanes = 0;
  void (*verify)(const VerifyJob&, VerifyResult&) = nullptr;
  void (*activity)(const ActivityJob&, sim::ActivityStats&) = nullptr;
  void (*fault)(const FaultJob&, FaultCampaignResult&) = nullptr;
  void (*probe)(const ProbeJob&, BatchProbeResult&) = nullptr;
};

/// Per-backend tables; the AVX ones return nullptr when their TU was
/// compiled without the matching -m support (PML_SIM_HAVE_* unset).
[[nodiscard]] const Kernels* kernels_u64();
[[nodiscard]] const Kernels* kernels_avx2();
[[nodiscard]] const Kernels* kernels_avx512();

/// Table for a *resolved* concrete backend (callers run
/// sim::resolve_backend first); throws std::runtime_error if the backend
/// has no compiled kernels.
[[nodiscard]] const Kernels& kernels_for(sim::Backend resolved);

}  // namespace pml::core::backends
