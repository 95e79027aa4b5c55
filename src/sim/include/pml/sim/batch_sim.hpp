#pragma once
// Width-generic bit-parallel (SWAR) zero-delay batch simulator.
//
// BatchSimulatorT<L> packs L::kWidth lanes into one lane word per net (bit
// L = lane L's logic value, stored as L::kChunks uint64_t chunks) and
// evaluates the levelized netlist once per settle for all lanes at once:
// an AND2 becomes one machine AND (scalar or vector), a MUX2 three
// bit-ops.  It is the one zero-delay batch engine, used two ways:
//  - samples: kLanes workload samples through one design
//    (core::verify_workload, probe_batch_backend, and the golden replay
//    that feeds core::run_fault_campaign's variant batches);
//  - fault variants: kLanes stuck-at variants of the same design on the
//    same input (core::run_fault_campaign's variant batches).
// Functional results are bit-identical, lane by lane, to the scalar
// CycleSimulator oracle (with the same faults installed via force_net)
// for EVERY backend — tests/test_sim_batch.cpp, test_sim_fault_batch.cpp
// (u64) and test_sim_backend.cpp (wide backends vs u64) prove it on
// generated sequential-SVM, parallel-SVM, MLP and random netlists.
//
// Stuck-at faults.  Each forced net carries a stuck-at-0 and a stuck-at-1
// lane mask, applied after its driver's eval (cell outputs) or at the
// start of every sweep (PIs, DFF Qs), so lane L sees the net stuck where
// bit L of a mask is set.  Unforced cells are evaluated with no mask work
// at all: with no fault installed a sweep is one plain pass.  Lane 0 is
// reserved fault-free (set_fault rejects it), so every variant batch
// carries the golden reference for free.
//
// Cone restriction.  restrict_to() narrows evaluation to a subset of the
// cells — in a fault campaign, the fanout cone of a batch's fault sites,
// outside which every lane holds the fault-free value.  Nets the subset
// reads but does not drive become the caller's to drive (set_net*), e.g.
// from a recorded fault-free trace.  rebind() returns to the whole
// circuit and drops every fault.
//
// `BatchSimulator` is the 64-lane scalar instantiation — the always-built
// reference.  The AVX2 (256-lane) and AVX-512 (512-lane) instantiations
// are only created inside per-flag TUs (src/core/src/backends/
// backend_avx2.cpp / backend_avx512.cpp); runtime selection goes through
// sim::resolve_backend (sim/backend.hpp).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sim/swar.hpp"

namespace pml::sim {

template <LaneWord L>
class BatchSimulatorT {
 public:
  /// Lanes per batch: one sample (or fault variant) per bit of the SWAR
  /// lane word.
  static constexpr std::size_t kLanes = L::kWidth;
  /// uint64_t storage chunks per lane word (lane L -> chunk L/64).
  static constexpr std::size_t kChunks = L::kChunks;

  /// Unbound simulator for pooling (core::EvalContext worker scratch);
  /// every member other than rebind()/bound() requires a bind first.
  BatchSimulatorT() = default;
  explicit BatchSimulatorT(const netlist::Module& module)
      : BatchSimulatorT(module, levelize_shared(module)) {}
  /// Reuse a previously derived levelization (workers across threads
  /// share one instead of re-deriving it per simulator).
  BatchSimulatorT(const netlist::Module& module,
                  const std::shared_ptr<const Levelization>& lv) {
    rebind(module, lv);
  }

  /// (Re)bind to a module, reusing all internal vector capacities: a
  /// pooled simulator rebound to same-shaped modules performs zero heap
  /// allocation.  The module is borrowed and must outlive the binding;
  /// the levelization is only read here.  Faults, cone and counters are
  /// cleared, the whole circuit is evaluated, and the state is as after
  /// reset().
  void rebind(const netlist::Module& module,
              const std::shared_ptr<const Levelization>& lv) {
    if (lv == nullptr) {
      throw std::invalid_argument("BatchSimulator: null levelization");
    }
    module_ = &module;
    swar_comb_ops_into(ops_, *module_, *lv);
    swar_dff_ops_into(dffs_, *module_, *lv);
    values_.assign(module_->num_nets() * kChunks, 0);
    dff_state_.assign(dffs_.size() * kChunks, 0);
    clear_faults();  // before the resize: it indexes force_slot_ by old nets
    force_slot_.assign(module_->num_nets(), kNoForce);
    lane_words_ = 0;
    reset();
  }
  [[nodiscard]] bool bound() const noexcept { return module_ != nullptr; }

  /// Evaluate only `comb_cells` (cell indices, in Levelization::comb_order
  /// order) and clock only `dff_cells` from now on.  Every other net keeps
  /// whatever it holds: nets the subset reads but does not drive are the
  /// caller's to drive before each propagate().  Installed faults are
  /// kept; their nets must be PIs or driven by the subset.
  void restrict_to(std::span<const std::uint32_t> comb_cells,
                   std::span<const std::uint32_t> dff_cells) {
    const auto& cells = module_->cells();
    ops_.clear();
    for (const std::uint32_t c : comb_cells) {
      ops_.push_back(flatten_cell(cells[c]));
    }
    dffs_.clear();
    for (const std::uint32_t c : dff_cells) {
      dffs_.push_back(flatten_dff(cells[c]));
    }
    dff_state_.assign(dffs_.size() * kChunks, 0);
    plan_dirty_ = true;
    inputs_dirty_ = true;
  }

  /// Restore the evaluated DFFs (every lane) to their power-on values and
  /// zero all nets, without settling.  Drive any boundary nets, then
  /// propagate(): together that is reset().
  void power_on() {
    std::fill(values_.begin(), values_.end(), 0);
    for (std::size_t c = 0; c < kChunks; ++c) {
      values_[netlist::kConst1 * kChunks + c] = ~std::uint64_t{0};
    }
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      // SwarDffOp::init is 0 or ~0 — broadcast it to every chunk.
      for (std::size_t c = 0; c < kChunks; ++c) {
        dff_state_[i * kChunks + c] = dffs_[i].init;
        values_[dffs_[i].q * kChunks + c] = dffs_[i].init;
      }
    }
    cycles_ = 0;
    inputs_dirty_ = true;
  }

  /// Restore all DFFs (every lane) to their power-on values, zero all
  /// nets, and settle with the installed faults applied — the batch
  /// equivalent of CycleSimulator::reset (after force_net).
  void reset() {
    power_on();
    propagate();
  }

  // --- fault control --------------------------------------------------------
  /// Stick `net` at `stuck_value` in fault variant `lane` (1 <= lane <
  /// kLanes; lane 0 is the reserved fault-free reference).  Re-sticking
  /// the same net in the same lane overwrites, like
  /// CycleSimulator::force_net.  Takes effect from the next
  /// reset()/propagate()/step().  Throws on lane 0, out-of-range
  /// nets/lanes, and the constant nets.
  void set_fault(netlist::NetId net, std::size_t lane, bool stuck_value) {
    if (net >= force_slot_.size()) {
      throw std::out_of_range("set_fault: bad net");
    }
    if (lane == 0) {
      throw std::invalid_argument(
          "set_fault: lane 0 is the reserved fault-free reference");
    }
    if (lane >= kLanes) throw std::out_of_range("set_fault: bad lane");
    if (net == netlist::kConst0 || net == netlist::kConst1) {
      throw std::invalid_argument("set_fault: cannot force a constant net");
    }
    std::uint32_t& slot = force_slot_[net];
    if (slot == kNoForce) {
      slot = static_cast<std::uint32_t>(forces_.size());
      forces_.push_back(Force{net, kNoOp});
      force_masks_.resize(force_masks_.size() + 2 * kChunks, 0);
      plan_dirty_ = true;
    }
    std::uint64_t* const f0 = force0(slot);
    std::uint64_t* const f1 = force1(slot);
    const std::size_t c = lane_chunk(lane);
    const std::uint64_t bit = lane_bit(lane);
    if (((f0[c] | f1[c]) & bit) == 0) ++num_faults_;
    if (stuck_value) {
      f1[c] |= bit;
      f0[c] &= ~bit;
    } else {
      f0[c] |= bit;
      f1[c] &= ~bit;
    }
    inputs_dirty_ = true;
  }
  /// Remove every fault from every lane.
  void clear_faults() {
    for (const Force& f : forces_) force_slot_[f.net] = kNoForce;
    forces_.clear();
    force_masks_.clear();
    forced_ops_.clear();
    num_faults_ = 0;
    plan_dirty_ = false;
    inputs_dirty_ = true;
  }
  /// Total installed (net, lane) stuck-at entries.
  [[nodiscard]] std::size_t num_faults() const { return num_faults_; }
  /// Lanes [0, 64) of the stuck-at-0 / stuck-at-1 masks for a net (bit L
  /// = lane L).
  [[nodiscard]] std::uint64_t fault0_mask(netlist::NetId net) const {
    return mask_word(net, 0);
  }
  [[nodiscard]] std::uint64_t fault1_mask(netlist::NetId net) const {
    return mask_word(net, kChunks);
  }

  // --- stimulus -------------------------------------------------------------
  /// Drive lanes [0, 64) of a source net with one word; any wider
  /// backend's remaining lanes are driven to 0 (historical 64-lane API).
  void set_net(netlist::NetId net, std::uint64_t lanes) {
    check_net(net);
    values_[net * kChunks] = lanes;
    for (std::size_t c = 1; c < kChunks; ++c) values_[net * kChunks + c] = 0;
    inputs_dirty_ = true;
  }
  /// Drive a source net — a primary input, or a net outside the evaluated
  /// cone — to `value` in every lane.
  void set_net_broadcast(netlist::NetId net, bool value) {
    check_net(net);
    std::fill_n(values_.begin() + net * kChunks, kChunks,
                value ? ~std::uint64_t{0} : 0);
    inputs_dirty_ = true;
  }
  /// Drive all kLanes lanes of a source net from kChunks words.
  void set_net_chunks(netlist::NetId net, const std::uint64_t* chunks) {
    check_net(net);
    std::copy(chunks, chunks + kChunks, values_.begin() + net * kChunks);
    inputs_dirty_ = true;
  }
  /// Drive an input port: values[L] is lane L's port value (LSB first),
  /// `count` <= kLanes.  Lanes >= count are driven to 0.
  void set_port(const netlist::Port& port, const std::uint64_t* values,
                std::size_t count) {
    if (count > kLanes) {
      throw std::out_of_range("set_port: count > kLanes");
    }
    // Transpose sample-major port values into bit-major lane words.
    std::uint64_t word[kChunks];
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      std::fill(word, word + kChunks, 0);
      for (std::size_t lane = 0; lane < count; ++lane) {
        word[lane_chunk(lane)] |= ((values[lane] >> i) & 1u) << (lane & 63);
      }
      set_net_chunks(port.nets[i], word);
    }
  }
  void set_port(const std::string& name, const std::uint64_t* values,
                std::size_t count) {
    set_port(find_input(name), values, count);
  }
  /// Drive the same value (LSB first) into every lane of an input port.
  void set_port_broadcast(const netlist::Port& port, std::uint64_t value) {
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      set_net_broadcast(port.nets[i], ((value >> i) & 1u) != 0);
    }
  }
  void set_port_broadcast(const std::string& name, std::uint64_t value) {
    set_port_broadcast(find_input(name), value);
  }

  // --- evaluation -----------------------------------------------------------
  /// Propagate combinational logic for all lanes (no clock edge), faults
  /// applied.
  void propagate() {
    if (plan_dirty_) plan_forces();
    // Source nets (PIs, DFF Qs) keep their forced lanes across the sweep;
    // forced cell outputs are re-forced right after their eval, exactly
    // mirroring the scalar CycleSimulator force order.
    std::uint64_t* const v = values_.data();
    for (std::size_t slot = 0; slot < forces_.size(); ++slot) {
      if (forces_[slot].op == kNoOp) apply_force(slot, v);
    }
    std::size_t begin = 0;
    for (const auto& [op, slot] : forced_ops_) {
      eval_ops(begin, op + 1);
      apply_force(slot, v);
      begin = op + 1;
    }
    eval_ops(begin, ops_.size());
    inputs_dirty_ = false;
    lane_words_ += ops_.size();
  }
  /// Clock every evaluated DFF: capture D into Q, all lanes, without
  /// re-settling.  Forced Q lanes are re-asserted by the next propagate
  /// before anything reads them.
  void clock() {
    // Two-phase clocking (sample all Ds, then update all Qs) so DFF chains
    // shift correctly regardless of cell order — same as CycleSimulator.
    std::uint64_t* const v = values_.data();
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      L::store(dff_state_.data() + i * kChunks,
               L::load(v + dffs_[i].d * kChunks));
    }
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      L::store(v + dffs_[i].q * kChunks,
               L::load(dff_state_.data() + i * kChunks));
    }
    ++cycles_;
    inputs_dirty_ = true;
  }
  /// Clock and re-settle.  The pre-clock sweep is skipped when nothing
  /// changed since the last propagate: a levelized pass (faults included)
  /// is a fixpoint, so re-running it is an observably-identical no-op.
  void step() {
    if (inputs_dirty_) propagate();
    clock();
    propagate();
  }

  // --- observation ----------------------------------------------------------
  /// Lanes [0, 64) of a net (historical 64-lane API).
  [[nodiscard]] std::uint64_t net_lanes(netlist::NetId net) const {
    return values_[net * kChunks];
  }
  /// Chunk `c` (lanes [64c, 64c+64)) of a net.
  [[nodiscard]] std::uint64_t net_chunk(netlist::NetId net,
                                        std::size_t c) const {
    return values_[net * kChunks + c];
  }
  /// Read a port in one lane as an unsigned integer (LSB first).
  [[nodiscard]] std::uint64_t port_unsigned(const netlist::Port& port,
                                            std::size_t lane) const {
    if (lane >= kLanes) throw std::out_of_range("port_unsigned: bad lane");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      v |= static_cast<std::uint64_t>(
               extract_lane(values_.data() + port.nets[i] * kChunks, lane))
           << i;
    }
    return v;
  }
  [[nodiscard]] std::uint64_t port_unsigned(const std::string& name,
                                            std::size_t lane) const {
    return port_unsigned(find_port(name), lane);
  }
  /// Read a port in one lane as a two's complement signed integer.
  [[nodiscard]] std::int64_t port_signed(const netlist::Port& port,
                                         std::size_t lane) const {
    return sign_extend_port(port_unsigned(port, lane), port.nets.size());
  }
  [[nodiscard]] std::int64_t port_signed(const std::string& name,
                                         std::size_t lane) const {
    return port_signed(find_port(name), lane);
  }

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// Lane words evaluated (one per evaluated cell per propagate) since
  /// the last call or rebind; each driver publishes them under its own
  /// obs counter name.
  [[nodiscard]] std::uint64_t take_lane_words() {
    return std::exchange(lane_words_, 0);
  }

 private:
  static constexpr std::uint32_t kNoForce = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

  /// One forced net; `op` is its driver's position in ops_, or kNoOp for a
  /// source net (PI, DFF Q), which is forced at the start of each sweep.
  struct Force {
    netlist::NetId net;
    std::uint32_t op;
  };

  [[nodiscard]] std::uint64_t* force0(std::size_t slot) {
    return force_masks_.data() + slot * 2 * kChunks;
  }
  [[nodiscard]] std::uint64_t* force1(std::size_t slot) {
    return force0(slot) + kChunks;
  }
  /// Chunk 0 of a net's stuck-at-0 (offset 0) or stuck-at-1 (offset
  /// kChunks) mask.
  [[nodiscard]] std::uint64_t mask_word(netlist::NetId net,
                                        std::size_t offset) const {
    const std::uint32_t slot = force_slot_[net];
    return slot == kNoForce ? 0 : force_masks_[slot * 2 * kChunks + offset];
  }

  void check_net(netlist::NetId net) const {
    if (net * kChunks >= values_.size()) {
      throw std::out_of_range("set_net: bad net");
    }
  }
  [[nodiscard]] const netlist::Port& find_input(const std::string& name) const {
    const netlist::Port* port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no input port: " + name);
    return *port;
  }
  [[nodiscard]] const netlist::Port& find_port(const std::string& name) const {
    const netlist::Port* port = module_->find_output(name);
    if (port == nullptr) port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no port: " + name);
    return *port;
  }

  /// Locate each forced net's driver in ops_, and list the forced ops in
  /// sweep order.  Runs once per change of faults or cone.
  void plan_forces() {
    forced_ops_.clear();
    for (Force& f : forces_) f.op = kNoOp;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const std::uint32_t slot = force_slot_[ops_[i].out];
      if (slot == kNoForce) continue;
      forces_[slot].op = static_cast<std::uint32_t>(i);
      forced_ops_.emplace_back(static_cast<std::uint32_t>(i), slot);
    }
    plan_dirty_ = false;
  }

  void apply_force(std::size_t slot, std::uint64_t* v) {
    std::uint64_t* const w = v + forces_[slot].net * kChunks;
    L::store(w, L::bor(L::andnot(L::load(w), L::load(force0(slot))),
                       L::load(force1(slot))));
  }

  /// Plain SWAR sweep over ops_[begin, end).
  void eval_ops(std::size_t begin, std::size_t end) {
    std::uint64_t* const v = values_.data();
    for (std::size_t i = begin; i < end; ++i) {
      const SwarOp& op = ops_[i];
      L::store(v + op.out * kChunks,
               eval_cell_lanes_w<L>(op.type, L::load(v + op.a * kChunks),
                                    L::load(v + op.b * kChunks),
                                    L::load(v + op.s * kChunks)));
    }
  }

  const netlist::Module* module_ = nullptr;
  std::vector<SwarOp> ops_;  ///< evaluated cells, levelized, pins flattened
  std::vector<SwarDffOp> dffs_;            ///< clocked DFFs
  std::vector<std::uint64_t> values_;      ///< kChunks words per net
  std::vector<std::uint64_t> dff_state_;   ///< captured D, per DFF
  std::vector<std::uint32_t> force_slot_;  ///< per net: forces_ index
  std::vector<Force> forces_;              ///< one per forced net
  /// Per force: kChunks stuck-at-0 mask words, then kChunks stuck-at-1.
  std::vector<std::uint64_t> force_masks_;
  /// (position in ops_, forces_ index) of every forced cell output,
  /// ascending in position.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> forced_ops_;
  std::size_t num_faults_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t lane_words_ = 0;
  bool plan_dirty_ = false;    ///< faults or cone changed since plan_forces
  bool inputs_dirty_ = false;  ///< stimulus, faults or state changed
};

/// The 64-lane scalar instantiation: the always-built reference backend
/// and the type every historical call site keeps using.
using BatchSimulator = BatchSimulatorT<LaneU64>;
extern template class BatchSimulatorT<LaneU64>;

}  // namespace pml::sim
