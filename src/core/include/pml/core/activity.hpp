#pragma once
// Batched, multi-threaded glitch-activity collection — the engine behind
// evaluate_circuit's power step (flow step 7).
//
// The merged ActivityStats are *bit-exact* against one serial scalar
// stream:
//
//   reset a scalar EventSimulator, apply sample 0 and settle/clock
//   cycles_per_inference times (warm-up, not counted), then replay
//   samples 0..n-1 in order, counting.
//
// To run that stream on a bit-parallel sim::BatchEventSimulator, the
// samples are cut into contiguous chunks, one chunk per lane-stream, and
// batches of kLanes chunks (64 on the u64 reference backend, wider under
// AVX) are sharded across the shared util::TaskPool (each worker owns one
// simulator; all workers share one Levelization — the same pattern as
// core::verify_workload).  A batch's replay is rounds x (1 + C)
// propagation windows for C clock cycles per inference (one per round
// when combinational).  With fewer batches than workers, each batch's
// windows are cut into ceil(workers / batches) contiguous ranges (at most
// one per window) and the workers claim (batch, range) units: a range
// reaches its first window in zero delay, uncounted
// (BatchEventSimulatorT::run_windows), and counts only its own windows.
// The counts are integer sums, so the merged stats equal the unsplit
// replay's for every module, its state reloaded each inference or not.
// With at least as many batches as workers each batch is one unit.  Each lane warms up on its chunk's
// *predecessor* sample (sample 0 for the first chunk) in zero delay,
// uncounted (BatchEventSimulatorT::warm_up), then replays its chunk round
// by round, counting.  The warm-up lands where the serial stream's
// delay-accurate warm-up round does: such a window runs until nothing
// changes over acyclic logic, so it ends at the zero-delay value of its
// final inputs.  It runs no events, so only the counted windows can trip
// the event budget.  Every arch generator
// reloads its sequential state each inference, so the state after an
// inference depends only on that inference's inputs and each lane enters
// its chunk exactly as the serial stream does (proven against the serial
// oracle on every generator in tests/test_sim_batch_event.cpp).  A lane
// whose chunk is exhausted (only the ragged final chunk) holds its inputs
// and is masked out of counting.
//
// Because the counts equal the serial stream's for every chunking, the
// chunking is not an option: collect_activity fills the lanes first (one
// sample per lane-stream while the samples fit one batch word) and
// lengthens chunks only to keep the batch count within the worker count.
//
// Precondition for that equivalence: the module's sequential state after
// an inference depends only on that inference's inputs (true of every arch
// generator, which reloads its registers each inference).  Under it the
// counts depend on the circuit, workload and sample count alone — never on
// the backend, thread count or host.  A module whose state carries over
// between inferences (e.g. a free-running counter) breaks it: the chunk
// length, and so the thread count, can then change the counts.

#include <cstddef>
#include <memory>

#include "pml/cells/library.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::core {

struct ActivityOptions {
  /// Worker threads; 0 = the shared util::TaskPool's width (its
  /// PML_POOL_THREADS override, else max(2, hardware threads)).  Fewer
  /// batches than threads split each batch's windows into ranges, so even
  /// a replay that fits one batch word fans out (up to one thread per
  /// window); 1 runs every batch whole on the calling thread.  It sets the
  /// chunk length, so the counts are independent of it only under the
  /// precondition in the header comment (state reloaded every inference).
  std::size_t num_threads = 0;
  /// Event-simulator tick (ms); must match the scalar reference for
  /// bit-exact equivalence.
  double time_quantum_ms = 0.02;
  /// Optional pre-derived levelization shared with the caller's other
  /// analyses; nullptr derives one internally.
  std::shared_ptr<const sim::Levelization> levelization;
  /// Optional pooled scratch: workers rebind the context's pooled
  /// BatchEventSimulators and accumulate into its pooled per-slot
  /// ActivityStats — the zero-allocation path of evaluate_circuit.  The
  /// context must not be shared with a concurrent evaluation; nullptr
  /// allocates per-call scratch as before.
  EvalContext* context = nullptr;
  /// Optional cooperative cancellation, checked between worker batches
  /// (throws util::Cancelled).  Null = no checks.
  const util::CancellationToken* cancel = nullptr;
  /// SWAR lane-word backend.  kAuto picks by occupancy: u64 when its 64
  /// lanes hold all samples, the widest available backend above that
  /// (sim::resolve_backend_for; PML_SIM_BACKEND still overrides).  Under
  /// the header's precondition the merged ActivityStats never depend on
  /// it.
  sim::Backend backend = sim::Backend::kAuto;
};

/// Replay the first `num_samples` workload samples (clamped to the
/// workload size) through sharded bit-parallel batch-event workers and
/// return
/// the merged delay-accurate ActivityStats — per-net transition counts
/// including glitches, DFF clock events, and counted cycles — ready for
/// power::estimate.  `cycles_per_inference` clock cycles per sample for
/// sequential circuits; purely combinational circuits are settled once
/// per sample.  Throws std::invalid_argument on an empty or lopsided
/// workload, zero samples, or missing ports.
[[nodiscard]] sim::ActivityStats collect_activity(
    const netlist::Module& module, const cells::CellLibrary& lib,
    int cycles_per_inference, const CircuitWorkload& workload,
    std::size_t num_samples, const ActivityOptions& options = {});

/// As above into a reused stats record (allocation-free once `out` and the
/// context's pools have the capacity).  `out` is overwritten, not
/// accumulated into.
void collect_activity_into(sim::ActivityStats& out,
                           const netlist::Module& module,
                           const cells::CellLibrary& lib,
                           int cycles_per_inference,
                           const CircuitWorkload& workload,
                           std::size_t num_samples,
                           const ActivityOptions& options = {});

}  // namespace pml::core
