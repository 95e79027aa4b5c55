#pragma once
// Width-generic bit-parallel (SWAR) *delay-accurate* event-driven
// simulator, evaluated as levelized waveforms.
//
// BatchEventSimulatorT<L> packs L::kWidth independent workload samples
// into one lane word per net (bit L = lane L's logic value, stored as
// L::kChunks uint64_t chunks).  Gate delays are lane-invariant (they
// depend only on the cell type), so every lane's transitions land on the
// same integer tick grid as a scalar EventSimulator run of that lane
// alone: the per-lane value trajectory — including every glitch — is
// bit-exact, and a word-level change is a no-op in any lane whose value
// is unchanged.
//
// Waveform evaluation.  A propagation window (one settle(), or the clock
// phase of step()) does not schedule events.  Its sources — the staged
// inputs, or the DFF Q changes at clk-to-Q — become per-net waveforms:
// runs of (tick, lane word) entries, each the net's value from that tick
// on.  Every combinational cell is then visited once, in
// Levelization::comb_order, so all of its input waveforms are complete
// when it runs.  It merges them in tick order, evaluates its gate at
// every tick where an input changed, and appends the result at
// tick + delay whenever it differs from the output's running value.
// This is exactly what a timing wheel computes — the same evaluations at
// the same ticks on the same values — without per-event fanout walks,
// dedup stamps or bucket pushes.  DFF D pins never wake a cell (DFFs are
// not in comb_order), and a window whose sources plus evaluations exceed
// the scalar oracle's event budget throws the same std::runtime_error.
//
// Memory.  Waveforms live in one pooled buffer owned by the simulator.
// A net's waveform is reclaimed — its final value and functional count
// committed — as soon as its last combinational reader has merged it,
// and a full buffer compacts its live segments before it grows, so it
// tracks the live frontier of the levelized sweep (at most 2x its peak)
// rather than the whole window.  Its capacity survives rebind(), which keeps
// the zero-allocation pooling contract.
//
// The equivalence suites in tests/test_sim_batch_event.cpp (u64) and
// tests/test_sim_backend.cpp (wide backends vs u64) prove the results
// bit-exact against the scalar oracle on generated sequential-SVM,
// parallel-SVM and MLP circuits, on random netlists and on the kernel's
// edge cases (equal-tick reconvergence, one net on two pins, repeated
// staging, long-lived sources).  tests/test_sim_batch_event.cpp also
// proves warm_up() against the delay-accurate round it stands in for, and
// every run_windows() split of an inference against the serial one, on
// every backend.
//
// `BatchEventSimulator` remains the 64-lane scalar instantiation; AVX2
// (256-lane) / AVX-512 (512-lane) instantiations are created only in the
// per-flag TUs under src/core/src/backends/.
//
// Transition counts (the input to power::estimate's glitch-aware dynamic
// power) are accumulated per net as the popcount of the changed-bits word
// masked to the *counted* lanes, so ragged (< kLanes stream) batches and
// per-lane stream exhaustion stay exact: the accumulated ActivityStats
// equal the sum of scalar EventSimulator ActivityStats over the counted
// lanes' sample histories.  warm_up() reaches a round's final state in
// zero delay, counting nothing, for rounds whose transitions are not
// wanted (the power replay's warm-up).  run_windows() runs a range of one
// inference's windows, reaching its first window the same way; the counts
// are integer sums, so ranges run on separate simulators add up to the
// whole inference's.  That is how one lane word's replay spreads over
// threads: the settle window and the C clock windows of a C-cycle
// inference are split into ranges, one per TaskPool slot.
//
// This is the engine behind core::collect_activity (the power replay)
// and opt::SwitchingEnergyCost (the optimizer's cost probes); both split
// windows over the pool when they have fewer lane words than workers.
// The scalar EventSimulator remains the reference oracle.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sim/swar.hpp"

namespace pml::sim {

template <LaneWord L>
class BatchEventSimulatorT {
 public:
  /// Lanes per batch: one sample stream per bit of the SWAR lane word.
  static constexpr std::size_t kLanes = L::kWidth;
  /// uint64_t storage chunks per lane word (lane L -> chunk L/64).
  static constexpr std::size_t kChunks = L::kChunks;

  /// Unbound simulator for pooling (core::EvalContext worker scratch);
  /// every member other than rebind()/bound() requires a bind first.
  BatchEventSimulatorT() = default;
  /// `time_quantum_ms` converts library delays to integer ticks, exactly
  /// as in EventSimulator (equal quanta => equal tick grids => bit-exact
  /// per-lane equivalence).
  BatchEventSimulatorT(const netlist::Module& module,
                       const cells::CellLibrary& lib,
                       double time_quantum_ms = 0.01)
      : BatchEventSimulatorT(module, lib, time_quantum_ms,
                             levelize_shared(module)) {}
  /// Reuse a previously derived levelization (activity workers across
  /// threads share one instead of re-deriving it per simulator).
  BatchEventSimulatorT(const netlist::Module& module,
                       const cells::CellLibrary& lib, double time_quantum_ms,
                       std::shared_ptr<const Levelization> lv) {
    rebind(module, lib, time_quantum_ms, std::move(lv));
  }

  /// (Re)bind to a module, reusing all internal storage — op tables, lane
  /// words, the waveform buffer, activity counters: a pooled simulator
  /// rebound to same-shaped modules under the same library performs zero
  /// heap allocation.  The module and levelization are borrowed and must
  /// outlive the binding; counters and the count mask are reset.
  void rebind(const netlist::Module& module, const cells::CellLibrary& lib,
              double time_quantum_ms, std::shared_ptr<const Levelization> lv) {
    if (lv == nullptr) {
      throw std::invalid_argument("BatchEventSimulator: null levelization");
    }
    if (time_quantum_ms <= 0) {
      throw std::invalid_argument("time quantum must be positive");
    }
    drop_waves();  // a window abandoned by an exception left segments
    module_ = &module;
    lv_ = std::move(lv);
    // Same quantization as EventSimulator: equal tick grids are what make
    // the per-lane trajectories bit-exact against the scalar oracle.
    for (int t = 0; t < netlist::kNumCellTypes; ++t) {
      const double d =
          lib.params(static_cast<netlist::CellType>(t)).delay_ms;
      delay_ticks_[t] = static_cast<std::uint32_t>(
          std::max(1, static_cast<int>(std::lround(d / time_quantum_ms))));
    }
    const std::size_t nets = module_->num_nets();
    segs_.assign(nets, Segment{});
    bind_ops();
    swar_dff_ops_into(dffs_, *module_, *lv_);
    values_.assign(nets * kChunks, 0);
    dff_state_.assign(dffs_.size() * kChunks, 0);
    std::fill(count_mask_, count_mask_ + kChunks, ~std::uint64_t{0});
    activity_.net_toggles.assign(nets, 0);
    activity_.net_functional.assign(nets, 0);
    reset();
  }
  [[nodiscard]] bool bound() const noexcept { return module_ != nullptr; }

  /// Restore all DFFs (every lane) to their power-on values, zero all
  /// nets, settle without counting, and clear the activity counters.
  void reset() {
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
    pending_inputs_.clear();
    drop_waves();
    full_settle_zero_delay();
    clear_activity();
  }

  // --- lane counting --------------------------------------------------------
  /// Bit L set iff lane L accumulates into the activity counters.  All
  /// lanes always *simulate*; masked-out lanes are simply not counted
  /// (used for ragged batches and per-lane stream exhaustion).  This
  /// historical 64-lane form masks lanes [0, 64) and clears any wider
  /// backend's remaining lanes from counting.
  void set_count_mask(std::uint64_t mask) {
    count_mask_[0] = mask;
    for (std::size_t c = 1; c < kChunks; ++c) count_mask_[c] = 0;
  }
  /// Full-width form: kChunks mask words (lane L -> chunk L/64, bit L%64).
  void set_count_mask_chunks(const std::uint64_t* mask) {
    std::copy(mask, mask + kChunks, count_mask_);
  }
  /// Chunk 0 of the count mask (lanes [0, 64)).
  [[nodiscard]] std::uint64_t count_mask() const { return count_mask_[0]; }

  // --- stimulus -------------------------------------------------------------
  /// Stage a primary-input change on lanes [0, 64) (historical API; any
  /// wider backend's remaining lanes are driven to 0); takes effect at
  /// tick 0 of the next settle()/step().
  void set_net(netlist::NetId net, std::uint64_t lanes) {
    if (net * kChunks >= values_.size()) {
      throw std::out_of_range("set_net: bad net");
    }
    Staged& e = pending_inputs_.emplace_back();
    e.net = net;
    e.w[0] = lanes;
    for (std::size_t c = 1; c < kChunks; ++c) e.w[c] = 0;
  }
  /// Stage all kLanes lanes of a primary-input net from kChunks words.
  void set_net_chunks(netlist::NetId net, const std::uint64_t* chunks) {
    if (net * kChunks >= values_.size()) {
      throw std::out_of_range("set_net_chunks: bad net");
    }
    Staged& e = pending_inputs_.emplace_back();
    e.net = net;
    std::copy(chunks, chunks + kChunks, e.w);
  }
  /// Stage an input port: values[L] is lane L's port value (LSB first),
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
    const netlist::Port* port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no input port: " + name);
    set_port(*port, values, count);
  }
  /// Stage the same value into every lane of an input port.
  void set_port_broadcast(const netlist::Port& port, std::uint64_t value) {
    std::uint64_t word[kChunks];
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      std::fill(word, word + kChunks,
                ((value >> i) & 1u) != 0 ? ~std::uint64_t{0} : 0);
      set_net_chunks(port.nets[i], word);
    }
  }
  void set_port_broadcast(const std::string& name, std::uint64_t value) {
    const netlist::Port* port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no input port: " + name);
    set_port_broadcast(*port, value);
  }

  // --- evaluation -----------------------------------------------------------
  /// Propagate the staged inputs until the network is quiet (all lanes).
  void settle() {
    const auto cmask = L::load(count_mask_);
    for (const Staged& e : pending_inputs_) add_source(e.net, e.w, cmask);
    const std::uint64_t sources = pending_inputs_.size();
    pending_inputs_.clear();
    propagate(sources);
  }
  /// settle(), then clock all DFFs; Q changes become the sources of the
  /// clock window (they land clk-to-Q after the edge, exactly as in
  /// EventSimulator::step; one shared source tick, so it is tick 0 here).
  void step() {
    settle();
    clock_window();
  }
  /// Windows [first, last) of one inference over the staged inputs, as
  /// settle() then step() x cycles runs them: window 0 settles the inputs
  /// and window k (1 <= k <= cycles) is the k-th clock edge's.  The
  /// windows before `first` are reached with warm_up(first - 1): zero
  /// delay, uncounted, and exact for the reason given there.  So ranges
  /// that partition [0, cycles + 1), each run on its own simulator from
  /// the same state, count together exactly what the whole inference
  /// counts, and the range ending at cycles + 1 ends in its final state:
  /// this is how one inference's windows fan out over threads.
  void run_windows(int first, int last) {
    if (first > 0) {
      warm_up(first - 1);
    } else if (last > 0) {
      settle();
    }
    for (int k = std::max(first, 1); k < last; ++k) clock_window();
  }
  /// Uncounted warm-up: apply the staged primary-input changes and run
  /// `cycles` clock cycles (<= 0: one settle) as zero-delay sweeps,
  /// latching D -> Q between them.  No counter or waveform is touched.
  /// From a settled state this leaves every net and DFF lane word where
  /// settle() (cycles <= 0) or step() x cycles leaves them: a
  /// delay-accurate window runs until nothing changes over acyclic
  /// logic, so it ends at the zero-delay value of its final inputs.
  void warm_up(int cycles) {
    for (const Staged& e : pending_inputs_) {
      std::copy(e.w, e.w + kChunks, values_.data() + e.net * kChunks);
    }
    pending_inputs_.clear();
    full_settle_zero_delay();
    for (int c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < dffs_.size(); ++i) {
        L::store(dff_state_.data() + i * kChunks,
                 L::load(values_.data() + dffs_[i].d * kChunks));
      }
      for (std::size_t i = 0; i < dffs_.size(); ++i) {
        L::store(values_.data() + dffs_[i].q * kChunks,
                 L::load(dff_state_.data() + i * kChunks));
      }
      full_settle_zero_delay();
    }
    PML_OBS_COUNT("sim.batch_event.warm_cycles", std::max(cycles, 0) + 1);
  }

  // --- observation ----------------------------------------------------------
  /// Lanes [0, 64) of a net (historical 64-lane API).
  [[nodiscard]] std::uint64_t net_lanes(netlist::NetId net) const {
    return values_[net * kChunks];
  }
  [[nodiscard]] bool net(netlist::NetId net, std::size_t lane) const {
    return extract_lane(values_.data() + net * kChunks, lane);
  }
  /// One lane of DFF `i`'s latched state (Levelization::dffs order).
  [[nodiscard]] bool dff_state(std::size_t i, std::size_t lane) const {
    return extract_lane(dff_state_.data() + i * kChunks, lane);
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
  [[nodiscard]] std::int64_t port_signed(const std::string& name,
                                         std::size_t lane) const {
    const netlist::Port& port = find_port(name);
    return sign_extend_port(port_unsigned(port, lane), port.nets.size());
  }

  /// Counters summed over the counted lanes: `net_toggles` are per-net
  /// transitions including glitches, `dff_clock_events` advances by
  /// num_dffs x popcount(count_mask) per step, `cycles` by
  /// popcount(count_mask) — so the totals equal the sum of per-lane scalar
  /// EventSimulator ActivityStats.
  [[nodiscard]] const ActivityStats& activity() const { return activity_; }
  /// Zero the counters (e.g. after a warm-up round).
  void clear_activity() {
    std::fill(activity_.net_toggles.begin(), activity_.net_toggles.end(), 0);
    std::fill(activity_.net_functional.begin(), activity_.net_functional.end(),
              0);
    activity_.dff_clock_events = 0;
    activity_.cycles = 0;
  }

  [[nodiscard]] const netlist::Module& module() const { return *module_; }
  [[nodiscard]] const Levelization& levelization() const { return *lv_; }

 private:
  using Word = typename L::Word;

  /// A staged (net, lane word) input change, applied at the next window.
  struct Staged {
    netlist::NetId net;
    std::uint64_t w[kChunks];
  };
  /// One lane word of the waveform buffer, aligned to its vector width
  /// (capped at a cache line) so the wide backends never split a load.
  struct alignas(kChunks * 8 < 64 ? kChunks * 8 : 64) WaveWord {
    std::uint64_t w[kChunks];
  };
  /// A net's live waveform: `len` entries at [begin, begin + len) of the
  /// buffer, followed by a kEndTick sentinel; len == 0: no waveform (the
  /// net holds values_ for the whole window).
  struct Segment {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };
  /// A segment's allocation record, for compaction: still live iff the
  /// net's current segment starts at `begin`.
  struct Alloc {
    netlist::NetId net;
    std::uint32_t begin;
  };

  /// A combinational cell in comb_order with its pins flattened, plus the
  /// reclamation facts of the levelized sweep.
  struct WaveOp {
    netlist::CellType type;
    /// Bit k set iff this op is the last comb reader of pin k's net.
    std::uint8_t last_read;
    /// Whether any comb cell reads `out` (else it is committed at once).
    bool out_read;
    netlist::NetId in[3];
    netlist::NetId out;
  };

  static constexpr std::uint32_t kEndTick =
      std::numeric_limits<std::uint32_t>::max();
  /// The cursor of a net without a waveform: already at its end.
  static constexpr std::uint32_t kNoWave[1] = {kEndTick};

  [[nodiscard]] const netlist::Port& find_port(const std::string& name) const {
    const netlist::Port* port = module_->find_output(name);
    if (port == nullptr) port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no port: " + name);
    return *port;
  }

  /// Clock all DFFs and propagate the Q changes (step() after its
  /// settle()); counts the edge in every counted lane.
  void clock_window() {
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      L::store(dff_state_.data() + i * kChunks,
               L::load(values_.data() + dffs_[i].d * kChunks));
    }
    const auto cmask = L::load(count_mask_);
    std::uint64_t sources = 0;
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      const std::uint64_t* next = dff_state_.data() + i * kChunks;
      const auto q = L::load(values_.data() + dffs_[i].q * kChunks);
      if (!L::is_zero(L::bxor(L::load(next), q))) {
        add_source(dffs_[i].q, next, cmask);
        ++sources;
      }
    }
    std::uint64_t counted = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      counted += static_cast<std::uint64_t>(std::popcount(count_mask_[c]));
    }
    activity_.dff_clock_events += dffs_.size() * counted;
    activity_.cycles += counted;
    propagate(sources);
  }

  /// Flatten comb_order into ops_ and mark, walking it backwards, each
  /// net's last comb reader (segs_, all empty between windows, doubles as
  /// the "read later" scratch).
  void bind_ops() {
    const auto& cells = module_->cells();
    ops_.resize(lv_->comb_order.size());
    for (std::size_t i = lv_->comb_order.size(); i-- > 0;) {
      const SwarOp f = flatten_cell(cells[lv_->comb_order[i]]);
      WaveOp& op = ops_[i];
      op = WaveOp{f.type, 0, segs_[f.out].len != 0, {f.a, f.b, f.s}, f.out};
      const int arity = netlist::cell_num_inputs(f.type);
      for (int k = 0; k < arity; ++k) {
        if (segs_[op.in[k]].len == 0) {
          segs_[op.in[k]].len = 1;
          op.last_read |= static_cast<std::uint8_t>(1u << k);
        }
      }
    }
    std::fill(segs_.begin(), segs_.end(), Segment{});
  }

  [[nodiscard]] const std::uint64_t* wave_word(std::size_t i) const {
    return wave_words_[i].w;
  }

  /// Apply one source change at the window's first tick.  Repeated
  /// sources on one net apply in order, each counting its own toggles;
  /// the net's single tick-0 entry holds the last value and wakes the
  /// readers if any of them changed the net.
  void add_source(netlist::NetId net, const std::uint64_t* w, Word cmask) {
    Segment& seg = segs_[net];
    const std::uint64_t* cur =
        seg.len != 0 ? wave_word(seg.begin) : values_.data() + net * kChunks;
    const auto word = L::load(w);
    const auto diff = L::bxor(word, L::load(cur));
    if (L::is_zero(diff)) return;
    activity_.net_toggles[net] += L::popcount(L::band(diff, cmask));
    if (seg.len == 0) {
      reserve_waves(2);
      seg = Segment{static_cast<std::uint32_t>(wave_top_), 1};
      wave_ticks_[wave_top_] = 0;
      wave_ticks_[wave_top_ + 1] = kEndTick;
      wave_top_ += 2;
      wave_allocs_.push_back(Alloc{net, seg.begin});
      source_nets_.push_back(net);
    }
    L::store(wave_words_[seg.begin].w, word);
  }

  /// One propagation window: visit every comb cell in levelized order,
  /// then commit the sources nobody reads.  `guard` counts the window's
  /// source events toward the event budget.
  void propagate(std::uint64_t guard) {
    using enum netlist::CellType;
    // No source changed a net (e.g. the settle() half of a step() with
    // nothing staged): every cell would sleep, so skip the sweep.
    if (source_nets_.empty()) return;
    const std::uint64_t max_events =
        std::max<std::uint64_t>(1000, module_->cells().size()) * 4096;
    const auto cmask = L::load(count_mask_);
    std::uint64_t evals = 0;  // lane-word cell evaluations this window
    for (const WaveOp& op : ops_) {
      switch (op.type) {
        case kInv: evals += eval_op<kInv, 1>(op, cmask); break;
        case kBuf: evals += eval_op<kBuf, 1>(op, cmask); break;
        case kNand2: evals += eval_op<kNand2, 2>(op, cmask); break;
        case kNor2: evals += eval_op<kNor2, 2>(op, cmask); break;
        case kAnd2: evals += eval_op<kAnd2, 2>(op, cmask); break;
        case kOr2: evals += eval_op<kOr2, 2>(op, cmask); break;
        case kXor2: evals += eval_op<kXor2, 2>(op, cmask); break;
        case kXnor2: evals += eval_op<kXnor2, 2>(op, cmask); break;
        case kMux2: evals += eval_op<kMux2, 3>(op, cmask); break;
        case kDff:
          throw std::logic_error("batch event simulator: DFF in comb_order");
      }
      // The scalar oracle's budget: one event per source and evaluation.
      if (guard + evals > max_events) {
        drop_waves();
        throw std::runtime_error(
            "batch event simulator: event budget exceeded");
      }
    }
    for (const netlist::NetId net : source_nets_) {
      if (segs_[net].len != 0) commit(net, cmask);
    }
    drop_waves();
    PML_OBS_COUNT("sim.batch_event.lane_words", evals);
  }

  /// Evaluate one N-input cell of type T over its input waveforms;
  /// returns the number of lane-word evaluations (one per distinct input
  /// tick).  T is a constant, so the shared gate function folds to the
  /// one gate inside the merge loop.
  template <netlist::CellType T, int N>
  std::uint64_t eval_op(const WaveOp& op, Word cmask) {
    std::size_t in_entries = 0;
    for (int k = 0; k < N; ++k) in_entries += segs_[op.in[k]].len;
    if (in_entries == 0) return 0;  // no input changes: the cell sleeps

    // Output bound: one entry per input entry, a source, the sentinel.
    reserve_waves(in_entries + segs_[op.out].len + 1);
    // A source on a comb-driven net (set_net on an internal net) stays
    // the first entry of the output waveform.  Read after the reserve,
    // which may have compacted every segment.
    const Segment src = segs_[op.out];

    const std::uint32_t* ticks[N];
    const WaveWord* words[N];
    Word v[3];
    for (int k = 0; k < N; ++k) {
      const netlist::NetId p = op.in[k];
      v[k] = L::load(values_.data() + p * kChunks);
      const Segment seg = segs_[p];
      ticks[k] = seg.len != 0 ? wave_ticks_.data() + seg.begin : kNoWave;
      words[k] = wave_words_.data() + seg.begin;
    }
    for (int k = N; k < 3; ++k) v[k] = v[0];

    std::uint32_t* out_tick = wave_ticks_.data() + wave_top_;
    WaveWord* out_word = wave_words_.data() + wave_top_;
    Word cur = L::load(values_.data() + op.out * kChunks);
    if (src.len != 0) {
      cur = L::load(wave_word(src.begin));
      *out_tick++ = wave_ticks_[src.begin];
      L::store((out_word++)->w, cur);
      wave_dead_ += src.len + 1;
    }
    const std::uint32_t delay = delay_ticks_[static_cast<int>(T)];
    const auto next_tick = [&] {
      std::uint32_t t = *ticks[0];
      for (int k = 1; k < N; ++k) t = std::min(t, *ticks[k]);
      return t;
    };
    std::uint64_t evals = 0;
    std::uint64_t toggles = 0;
    for (std::uint32_t t = next_tick(); t != kEndTick; t = next_tick()) {
      for (int k = 0; k < N; ++k) {
        if (*ticks[k] == t) {
          v[k] = L::load(words[k]->w);
          ++ticks[k];
          ++words[k];
        }
      }
      ++evals;
      const Word o = eval_cell_lanes_w<L>(T, v[0], v[1], v[2]);
      const Word diff = L::bxor(o, cur);
      if (!L::is_zero(diff)) {
        toggles += L::popcount(L::band(diff, cmask));
        *out_tick++ = t + delay;
        L::store((out_word++)->w, o);
        cur = o;
      }
    }
    activity_.net_toggles[op.out] += toggles;

    const auto len = static_cast<std::uint32_t>(
        out_tick - (wave_ticks_.data() + wave_top_));
    if (len != 0) {
      *out_tick = kEndTick;
      segs_[op.out] = Segment{static_cast<std::uint32_t>(wave_top_), len};
      if (op.out_read) {
        wave_allocs_.push_back(Alloc{op.out, segs_[op.out].begin});
        wave_top_ += len + 1;
      } else {
        // Nobody merges it: commit straight from the buffer tail, which
        // stays free (so it is not dead space either).
        commit(op.out, cmask);
        wave_dead_ -= len + 1;
      }
    }
    // Reclaim the inputs this cell was the last to read.
    for (int k = 0; k < N; ++k) {
      const netlist::NetId p = op.in[k];
      if ((op.last_read >> k & 1u) != 0 && segs_[p].len != 0) {
        commit(p, cmask);
      }
    }
    return evals;
  }

  /// Retire a net's waveform: its last entry is the window's final value,
  /// and the lanes where it differs from the window's start value
  /// (values_, untouched until now) carry one functional transition.
  void commit(netlist::NetId net, Word cmask) {
    Segment& seg = segs_[net];
    std::uint64_t* const dst = values_.data() + net * kChunks;
    const auto final_word = L::load(wave_word(seg.begin + seg.len - 1));
    activity_.net_functional[net] +=
        L::popcount(L::band(L::bxor(final_word, L::load(dst)), cmask));
    L::store(dst, final_word);
    wave_dead_ += seg.len + 1;
    seg.len = 0;
  }

  /// Make room for `entries` more at wave_top_: compact when full, and
  /// grow only if the live segments plus the request would still fill
  /// more than three quarters of the buffer, to twice their size — so the
  /// buffer stays within twice the peak live frontier, at least a quarter
  /// of it is appended between compactions, and each compaction costs at
  /// most three moves per appended entry.
  void reserve_waves(std::size_t entries) {
    if (wave_top_ + entries <= wave_ticks_.size()) return;
    if (wave_dead_ != 0) compact_waves();
    if (4 * (wave_top_ + entries) <= 3 * wave_ticks_.size()) return;
    const std::size_t cap =
        std::max(2 * (wave_top_ + entries), std::size_t{1024});
    wave_ticks_.resize(cap);
    wave_words_.resize(cap);
  }

  /// Slide every live segment (in allocation, hence address, order) down
  /// over the dead ones.
  void compact_waves() {
    std::size_t top = 0;
    std::size_t kept = 0;
    for (const Alloc& a : wave_allocs_) {
      Segment& seg = segs_[a.net];
      if (seg.len == 0 || seg.begin != a.begin) continue;  // reclaimed
      const std::size_t size = seg.len + 1;
      std::memmove(wave_ticks_.data() + top, wave_ticks_.data() + seg.begin,
                   size * sizeof(std::uint32_t));
      std::memmove(wave_words_.data() + top, wave_words_.data() + seg.begin,
                   size * sizeof(WaveWord));
      seg.begin = static_cast<std::uint32_t>(top);
      wave_allocs_[kept++] = Alloc{a.net, seg.begin};
      top += size;
    }
    wave_allocs_.resize(kept);
    wave_top_ = top;
    wave_dead_ = 0;
  }

  /// Empty the buffer (end of a window, or abandoning a failed one).
  void drop_waves() {
    for (const Alloc& a : wave_allocs_) segs_[a.net].len = 0;
    wave_allocs_.clear();
    source_nets_.clear();
    wave_top_ = 0;
    wave_dead_ = 0;
  }

  void full_settle_zero_delay() {
    // Levelized consistent assignment, for reset() and warm_up() (mirrors
    // EventSimulator::full_settle_zero_delay, kLanes lanes at a time).
    std::uint64_t* const v = values_.data();
    for (const WaveOp& op : ops_) {
      L::store(v + op.out * kChunks,
               eval_cell_lanes_w<L>(op.type, L::load(v + op.in[0] * kChunks),
                                    L::load(v + op.in[1] * kChunks),
                                    L::load(v + op.in[2] * kChunks)));
    }
  }

  const netlist::Module* module_ = nullptr;
  std::shared_ptr<const Levelization> lv_;
  std::uint32_t delay_ticks_[netlist::kNumCellTypes] = {};  ///< per type
  std::vector<WaveOp> ops_;  ///< comb cells in comb_order
  std::vector<SwarDffOp> dffs_;
  std::vector<std::uint64_t> values_;     ///< kChunks words per net
  std::vector<std::uint64_t> dff_state_;  ///< captured D words, per DFF
  std::vector<Staged> pending_inputs_;
  std::uint64_t count_mask_[kChunks] = {};
  // The pooled waveform buffer: parallel tick / lane-word columns, live
  // segments per net, and the allocation log compaction walks.
  std::vector<std::uint32_t> wave_ticks_;
  std::vector<WaveWord> wave_words_;
  std::size_t wave_top_ = 0;   ///< first free entry
  std::size_t wave_dead_ = 0;  ///< reclaimed entries below wave_top_
  std::vector<Segment> segs_;  ///< per net
  std::vector<Alloc> wave_allocs_;
  std::vector<netlist::NetId> source_nets_;  ///< this window's sources
  ActivityStats activity_;
};

/// The 64-lane scalar instantiation: the always-built reference backend
/// and the type every historical call site keeps using.
using BatchEventSimulator = BatchEventSimulatorT<LaneU64>;
extern template class BatchEventSimulatorT<LaneU64>;

/// The calling thread's simulator for lane word L, kept for the thread's
/// lifetime.  The power replay's workers and the cost probes' slots each
/// rebind the one of the thread they run on, so a process holds one per
/// thread that ran such a slot — not one per slot of every evaluation in
/// flight — and a warm thread rebinds same-shaped modules without
/// allocating.  A user must not fan out onto the pool while it holds it:
/// a slot run inline on the same thread would rebind it.
template <LaneWord L>
[[nodiscard]] BatchEventSimulatorT<L>& thread_simulator() {
  thread_local BatchEventSimulatorT<L> sim;
  return sim;
}

}  // namespace pml::sim
