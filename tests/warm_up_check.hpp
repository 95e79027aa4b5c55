#pragma once
// BatchEventSimulatorT<L>::warm_up against the delay-accurate round it
// replaces, and run_windows ranges against the serial inference they
// split, on any lane word; and the accumulator module whose state carries
// across inferences, on which every warm-up scheme must be caught.  tests/test_sim_batch_event.cpp runs both on
// u64; warm_up_avx2.cpp / warm_up_avx512.cpp instantiate them under the
// matching -m flag (as the library's backend TUs do) and export plain
// functions.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"

namespace pml::sim::warm_check {

/// A circuit and the stimulus the check drives through every lane.
struct Case {
  const netlist::Module* module = nullptr;
  const cells::CellLibrary* lib = nullptr;
  double quantum = 0.02;
  /// Clock cycles per round; <= 0 settles once (combinational).
  int cycles = 0;
  std::vector<const netlist::Port*> ports;
  /// Lane `lane` of round `r` drives row (r * lanes + lane) % size.
  std::vector<std::vector<std::int64_t>> samples;
};

/// A 4-bit accumulator, `out` += x0 on every clock edge and never
/// reloaded: its state carries over from one inference to the next.
inline netlist::Module accumulator_module(const std::string& out = "acc") {
  netlist::Module m("accumulator");
  const std::vector<netlist::NetId> x = m.add_input_port("x0", 4);
  const std::vector<netlist::NetId> d = m.new_nets(4);
  std::vector<netlist::NetId> acc;
  for (const netlist::NetId n : d) acc.push_back(m.dff(n));
  netlist::NetId carry = netlist::kConst0;
  for (std::size_t i = 0; i < 4; ++i) {
    const netlist::NetId p = m.xor2(acc[i], x[i]);
    m.drive_net(d[i], m.xor2(p, carry));
    carry = m.or2(m.and2(acc[i], x[i]), m.and2(p, carry));
  }
  m.add_output_port(out, acc);
  return m;
}

/// Empty iff the check passed on the u64 lane word, else what differed.
[[nodiscard]] std::string warm_up_mismatch_u64(const Case& c);
/// As above on AVX2 / AVX-512; callers check sim::backend_available.
[[nodiscard]] std::string warm_up_mismatch_avx2(const Case& c);
[[nodiscard]] std::string warm_up_mismatch_avx512(const Case& c);

/// Empty iff every run_windows split of an inference equals the serial
/// one (see window_split_mismatch), else what differed.
[[nodiscard]] std::string window_split_mismatch_u64(const Case& c);
[[nodiscard]] std::string window_split_mismatch_avx2(const Case& c);
[[nodiscard]] std::string window_split_mismatch_avx512(const Case& c);

}  // namespace pml::sim::warm_check

#ifdef PML_WARM_UP_CHECK_IMPL
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::sim::warm_check {

/// Two simulators from one state: `warm` runs warm_up(cycles), `event`
/// the delay-accurate round (settle(), or step() x cycles).  Checked from
/// power-on reset, then again after both replay one counted round from
/// the warmed state: that round must count identically on both, and
/// after each warm-up every net and DFF lane must agree while `warm`'s
/// counters stay zero.
/// Stage round `round` of the case's stimulus into every lane.
template <class L>
void stage_round(BatchEventSimulatorT<L>& s, const Case& c,
                 std::size_t round) {
  constexpr std::size_t kLanes = L::kWidth;
  std::vector<std::uint64_t> values(kLanes);
  for (std::size_t j = 0; j < c.ports.size(); ++j) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      values[lane] = static_cast<std::uint64_t>(
          c.samples[(round * kLanes + lane) % c.samples.size()][j]);
    }
    s.set_port(*c.ports[j], values.data(), kLanes);
  }
}

/// The delay-accurate round: settle(), or step() x cycles.
template <class L>
void event_round(BatchEventSimulatorT<L>& s, const Case& c) {
  if (c.cycles <= 0) {
    s.settle();
  } else {
    for (int k = 0; k < c.cycles; ++k) s.step();
  }
}

/// Empty iff every net and DFF lane of `a` equals `b`'s, else which did not.
template <class L>
std::string state_mismatch(const BatchEventSimulatorT<L>& a,
                           const BatchEventSimulatorT<L>& b) {
  constexpr std::size_t kLanes = L::kWidth;
  for (std::size_t n = 0; n < a.module().num_nets(); ++n) {
    const auto net = static_cast<netlist::NetId>(n);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (a.net(net, lane) != b.net(net, lane)) {
        return "net " + std::to_string(n) + " lane " + std::to_string(lane) +
               " differs";
      }
    }
  }
  for (std::size_t i = 0; i < a.levelization().dffs.size(); ++i) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (a.dff_state(i, lane) != b.dff_state(i, lane)) {
        return "dff " + std::to_string(i) + " lane " + std::to_string(lane) +
               " differs";
      }
    }
  }
  return {};
}

template <class L>
std::string warm_up_mismatch(const Case& c) {
  const auto lv = levelize_shared(*c.module);
  BatchEventSimulatorT<L> warm(*c.module, *c.lib, c.quantum, lv);
  BatchEventSimulatorT<L> event(*c.module, *c.lib, c.quantum, lv);
  const auto stage = [&](BatchEventSimulatorT<L>& s, std::size_t round) {
    stage_round(s, c, round);
  };

  for (const bool after_counted : {false, true}) {
    const std::string when =
        after_counted ? " after a counted round" : " after reset";
    if (after_counted) {
      warm.clear_activity();
      event.clear_activity();
      for (auto* s : {&warm, &event}) {
        stage(*s, 1);
        event_round(*s, c);
      }
      const ActivityStats& a = warm.activity();
      const ActivityStats& b = event.activity();
      if (a.net_toggles != b.net_toggles ||
          a.net_functional != b.net_functional ||
          a.dff_clock_events != b.dff_clock_events || a.cycles != b.cycles) {
        return "a counted round after warm_up counts differently";
      }
      warm.clear_activity();
    }
    const std::size_t round = after_counted ? 2 : 0;
    stage(warm, round);
    warm.warm_up(c.cycles);
    stage(event, round);
    event_round(event, c);
    if (const std::string diff = state_mismatch(warm, event); !diff.empty()) {
      return diff + when;
    }
    const ActivityStats& a = warm.activity();
    for (std::size_t n = 0; n < a.net_toggles.size(); ++n) {
      if (a.net_toggles[n] != 0 || a.net_functional[n] != 0) {
        return "warm_up counted net " + std::to_string(n) + when;
      }
    }
    if (a.dff_clock_events != 0 || a.cycles != 0) {
      return "warm_up counted clock events" + when;
    }
  }
  return {};
}

/// run_windows against the serial inference it splits.  An inference of
/// W = max(cycles, 0) + 1 windows is cut into K = 1 .. W + 1 contiguous
/// ranges (K = W + 1 leaves one empty: more slots than windows), each run
/// on a simulator from the same state.  Their summed counters must equal
/// the serial inference's (settle(), or step() x cycles) net for net, and
/// the range ending at W must end in its state on every net and DFF lane.
/// Checked on round 0 from power-on reset, then on round 1 after round 0
/// (delay-accurate on the serial side, run_windows(W, W) — zero delay,
/// uncounted — on the split side), so state that carries over between
/// inferences is caught up too.
template <class L>
std::string window_split_mismatch(const Case& c) {
  const auto lv = levelize_shared(*c.module);
  BatchEventSimulatorT<L> serial(*c.module, *c.lib, c.quantum, lv);
  BatchEventSimulatorT<L> part(*c.module, *c.lib, c.quantum, lv);
  const int windows = std::max(c.cycles, 0) + 1;
  for (const std::size_t round : {0u, 1u}) {
    const std::string when = " in round " + std::to_string(round);
    serial.reset();
    if (round == 1) {
      stage_round(serial, c, 0);
      event_round(serial, c);
      serial.clear_activity();
    }
    stage_round(serial, c, round);
    event_round(serial, c);
    const ActivityStats& want = serial.activity();
    for (int k = 1; k <= windows + 1; ++k) {
      const std::string split = " split " + std::to_string(k) + " ways";
      ActivityStats sum;
      sum.net_toggles.assign(c.module->num_nets(), 0);
      sum.net_functional.assign(c.module->num_nets(), 0);
      for (int i = 0; i < k; ++i) {
        part.reset();
        if (round == 1) {
          stage_round(part, c, 0);
          part.run_windows(windows, windows);
        }
        stage_round(part, c, round);
        part.run_windows(i * windows / k, (i + 1) * windows / k);
        sum.accumulate(part.activity());
      }
      if (sum.net_toggles != want.net_toggles ||
          sum.net_functional != want.net_functional) {
        return "net counts differ" + split + when;
      }
      if (sum.dff_clock_events != want.dff_clock_events ||
          sum.cycles != want.cycles) {
        return "clock counts differ" + split + when;
      }
      if (const std::string diff = state_mismatch(part, serial);
          !diff.empty()) {
        return diff + split + when;
      }
    }
  }
  return {};
}

}  // namespace pml::sim::warm_check
#endif  // PML_WARM_UP_CHECK_IMPL
