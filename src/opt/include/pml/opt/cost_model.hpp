#pragma once
// Hardware cost models for the cost-driven pass manager.
//
// The point of scoring candidate modules *inside* the optimization loop
// (rather than trusting cell count) is that the two real objectives —
// area and switching energy — disagree: PR 4's area-minimal netlist
// glitches more than the raw one.  SwitchingEnergyCost replays a short
// caller-supplied probe workload through one batch of
// sim::BatchEventSimulator lanes, its windows spread over the shared
// util::TaskPool, and prices a candidate by measured
// transitions x per-cell switch energy x fanout load (+ clock energy) —
// the same glitch-aware figure power::estimate reports, minus the
// period-dependent scaling that cancels between candidates.
//
// Cost models must be deterministic in the module alone (the accept /
// reject trace of a cost-driven recipe is part of the reproducibility
// contract, tested in tests/test_opt_passes.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"

namespace pml::opt {

/// Scalar figure of demerit for a candidate module; lower is better.
class CostModel {
 public:
  virtual ~CostModel() = default;
  /// Must be deterministic in `m` alone and side-effect free.
  [[nodiscard]] virtual double cost(const netlist::Module& m) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Cell count — the PR 4 objective, and the fallback when no workload is
/// available to probe with.
class CellCountCost final : public CostModel {
 public:
  [[nodiscard]] double cost(const netlist::Module& m) const override;
  [[nodiscard]] std::string name() const override { return "cell-count"; }
};

/// A short stimulus for probing candidate modules: per-sample raw codes
/// for every input port, aligned with Module::input_ports() order (the
/// optimization passes preserve port identity, so one probe serves every
/// candidate derived from the same design).
struct ProbeWorkload {
  /// samples[i][p] = unsigned raw code driven into input port p.  At most
  /// the first BatchEventSimulator::kLanes samples are used (one lane
  /// each).
  std::vector<std::vector<std::uint64_t>> samples;
  /// Clock cycles per sample for sequential circuits; <= 0 settles once
  /// (combinational).
  int cycles_per_inference = 1;
};

/// Measured switching energy (nJ) of one probe replay, glitches included.
///
/// A probe is one inference per lane from the power-on state: C + 1
/// propagation windows for C clock cycles per inference (one for a
/// combinational probe).  cost() splits them into contiguous ranges over
/// min(TaskPool width, C + 1) util::TaskPool slots; each slot replays its
/// range on its thread's simulator (sim::thread_simulator), reaching the
/// range's first window in zero delay (BatchEventSimulatorT::run_windows).
/// The per-slot counts are integer sums, so the cost equals a one-slot
/// probe's bit for bit at every pool width.
///
/// One instance pools the rest of its probe scratch (levelization, arena,
/// per-slot counts) and rebinds it per cost() call, so repeated probes of
/// same-shaped candidates allocate nothing beyond the fan-out.  The costs
/// equal a fresh instance's, also after a probe that threw (a slot's
/// exception is rethrown on the caller).  The scratch makes one instance
/// unsafe to probe from two threads at once; give each thread its own.
class SwitchingEnergyCost final : public CostModel {
 public:
  /// `lib` is borrowed and must outlive the model.  Throws
  /// std::invalid_argument on an empty probe.
  SwitchingEnergyCost(const cells::CellLibrary& lib, ProbeWorkload probe,
                      double time_quantum_ms = 0.02);
  ~SwitchingEnergyCost() override;

  [[nodiscard]] double cost(const netlist::Module& m) const override;
  [[nodiscard]] std::string name() const override {
    return "switching-energy";
  }

 private:
  struct Scratch;

  const cells::CellLibrary& lib_;
  ProbeWorkload probe_;
  double time_quantum_ms_;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace pml::opt
